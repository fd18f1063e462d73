"""Properties of the public API over any input: an answer is finite and in
its documented range, or the input is rejected with a HypgeoError.

Hypothesis (MacIver et al., JOSS 2019) draws the inputs.  derandomize=True
and no example database make every run draw the same examples, so the
suite stays deterministic.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hypgeo import (
    CausalType,
    GroupTag,
    HypgeoError,
    covector_from_pbar3,
    cut_locus_sample,
    cut_time,
    injectivity_radius,
    light_covector,
    make_metric,
    metric_from_eta,
)
from hypgeo.root_solver import EQUATOR_TOLERANCE

EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308]
# any float, the edges drawn often: nan, +-inf, +-0, subnormals and 1e308
ANY = st.one_of(st.sampled_from(EDGES), st.floats())
FINITE_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=math.inf, exclude_min=True, exclude_max=True),
)
# eta = -10^x with x in [0.01, 300]: from eta = -1.02 to beyond the point
# (about -1e16) where 1 + eta rounds to eta
ETA = st.floats(0.01, 300.0).map(lambda x: -(10.0 ** x))
GROUP = st.sampled_from(GroupTag)

SEARCH = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@SEARCH
@given(i1=ANY, i3=ANY)
def test_make_metric_gives_a_finite_eta_and_radius_or_raises(i1, i3):
    try:
        m = make_metric(i1, i3)
    except HypgeoError:
        return
    assert -math.inf < m.eta < -1.0
    assert 0.0 < injectivity_radius(m) < math.inf


@SEARCH
@given(eta=ETA, pbar3=ANY, ctype=st.sampled_from(CausalType), group=GROUP)
def test_an_accepted_covector_has_a_positive_cut_time(eta, pbar3, ctype, group):
    m = metric_from_eta(eta)
    try:
        if ctype is CausalType.LIGHT_LIKE:
            p = light_covector(m, 0.0)
        else:
            p = covector_from_pbar3(m, pbar3, 0.0, ctype)
    except HypgeoError:
        return
    t = cut_time(m, p, group)
    # the space-like equator is the one geodesic that is minimizing forever
    equator = ctype is CausalType.SPACE_LIKE and abs(pbar3) < EQUATOR_TOLERANCE
    assert 0.0 < t < math.inf or (equator and t == math.inf)


@SEARCH
@given(eta=ETA, rho_max=FINITE_POSITIVE, group=GROUP)
def test_cut_locus_sample_has_a_finite_validation_error(eta, rho_max, group):
    try:
        strata = cut_locus_sample(metric_from_eta(eta), group, 2, rho_max)
    except HypgeoError:
        return
    assert all(math.isfinite(s.validation_error) for s in strata)
