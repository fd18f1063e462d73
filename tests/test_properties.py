"""Properties of the public API over any input: an answer is finite and in
its documented range, or the input is rejected with a HypgeoError.

Hypothesis (MacIver et al., JOSS 2019) draws the inputs.  derandomize=True
and no example database make every run draw the same examples, so the
suite stays deterministic.
"""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypgeo import (
    CausalType,
    GroupTag,
    HypgeoError,
    SplitQuaternion,
    SrMomentum,
    SymmetryElement,
    apply_symmetry_image,
    apply_symmetry_preimage,
    beta_from_pbar3,
    conjugate_roots,
    covector_from_components,
    covector_from_pbar3,
    cut_locus_sample,
    cut_time,
    describe_cut,
    exp_map,
    first_conjugate_time,
    injectivity_radius,
    jacobian,
    light_covector,
    limit_comparison,
    make_metric,
    maxwell_root_q0,
    maxwell_root_q3,
    maxwell_time,
    metric_from_eta,
    psl2_canonicalize,
    sample_geodesic,
    sq_exp,
    sr_cut_time,
    sr_exp_map,
    tau_of_t,
    vertical_flow,
    wavefront_sample,
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


# ---- every public function: no NaN, no bare exception -----------------------

# the edges above and 1e154, whose square is near the top of the range
FLOAT = st.one_of(st.sampled_from([*EDGES, 1e154, -1e154]), st.floats())
# eta from just below -1 to -1e300, and I1 over the positive floats
WIDE_ETA = st.one_of(st.sampled_from([-1.0000001, -1.05, -2.0, -1e16, -1e300]), ETA)
I1 = st.one_of(st.just(1.0), FINITE_POSITIVE)
COUNT = st.integers(-1, 64)  # sizes of grids, sample lists and root lists
# a drawn sq_exp may raise its DomainError, which the property accepts
GROUP_ELEMENT = st.one_of(st.builds(sq_exp, FLOAT, FLOAT, FLOAT),
                          st.builds(SplitQuaternion, FLOAT, FLOAT, FLOAT, FLOAT))
SYMMETRY = st.builds(SymmetryElement, FLOAT, st.booleans(), st.booleans())
CTYPE = st.sampled_from(CausalType)


def _covector(m, data):
    """A covector on m from one of the three constructors, or a HypgeoError."""
    kind = data.draw(st.sampled_from(("pbar3", "components", "light")))
    if kind == "light":
        return light_covector(m, data.draw(FLOAT), data.draw(st.sampled_from((1, -1))))
    p = covector_from_pbar3(m, data.draw(FLOAT), data.draw(FLOAT), data.draw(CTYPE))
    if kind == "components":  # a point of C, or a drawn one off it
        xyz = data.draw(st.one_of(st.just(p[:3]), st.tuples(FLOAT, FLOAT, FLOAT)))
        return covector_from_components(m, *xyz)
    return p


# each function's arguments, drawn from `data` for the metric m
CALLS = {
    "exp_map": lambda m, d: exp_map(m, _covector(m, d), d.draw(FLOAT)),
    "vertical_flow": lambda m, d: vertical_flow(m, _covector(m, d), d.draw(FLOAT)),
    "sample_geodesic": lambda m, d: sample_geodesic(m, _covector(m, d), d.draw(FLOAT),
                                                    d.draw(COUNT)),
    "tau_of_t": lambda m, d: tau_of_t(m, _covector(m, d), d.draw(FLOAT)),
    "apply_symmetry_preimage": lambda m, d: apply_symmetry_preimage(
        m, d.draw(SYMMETRY), _covector(m, d), d.draw(FLOAT)),
    "apply_symmetry_image": lambda m, d: apply_symmetry_image(d.draw(SYMMETRY),
                                                              d.draw(GROUP_ELEMENT)),
    "cut_time": lambda m, d: cut_time(m, _covector(m, d), d.draw(GROUP)),
    "describe_cut": lambda m, d: describe_cut(m, _covector(m, d), d.draw(GROUP)),
    "maxwell_time": lambda m, d: maxwell_time(m, _covector(m, d)),
    "maxwell_root_q0": lambda m, d: maxwell_root_q0(m, _covector(m, d)),
    "maxwell_root_q3": lambda m, d: maxwell_root_q3(m, _covector(m, d)),
    "first_conjugate_time": lambda m, d: first_conjugate_time(m, _covector(m, d)),
    "conjugate_roots": lambda m, d: conjugate_roots(m, d.draw(FLOAT), d.draw(COUNT)),
    "jacobian": lambda m, d: jacobian(m, d.draw(CTYPE), d.draw(FLOAT), d.draw(FLOAT)),
    "covector": _covector,
    "sq_exp": lambda m, d: sq_exp(d.draw(FLOAT), d.draw(FLOAT), d.draw(FLOAT)),
    "psl2_canonicalize": lambda m, d: psl2_canonicalize(d.draw(GROUP_ELEMENT)),
    "wavefront_sample": lambda m, d: wavefront_sample(m, d.draw(FLOAT), d.draw(COUNT),
                                                      d.draw(GROUP)),
    "injectivity_radius": lambda m, d: injectivity_radius(m),
    "sr_exp_map": lambda m, d: sr_exp_map(SrMomentum(d.draw(FLOAT), d.draw(FLOAT)),
                                          d.draw(FLOAT)),
    "sr_cut_time": lambda m, d: sr_cut_time(d.draw(FLOAT)),
    "beta_from_pbar3": lambda m, d: beta_from_pbar3(d.draw(FLOAT), d.draw(CTYPE)),
    "limit_comparison": lambda m, d: limit_comparison(
        d.draw(FLOAT), d.draw(CTYPE), d.draw(st.lists(FLOAT, max_size=4))),
}


def _nan_in(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    return isinstance(value, (tuple, list)) and any(map(_nan_in, value))


@pytest.mark.parametrize("name", CALLS)
@settings(SEARCH, max_examples=30)  # 23 functions: the suite's wall time stays in bounds
@given(eta=WIDE_ETA, i1=I1, data=st.data())
def test_public_function_returns_no_nan_and_raises_only_hypgeo_errors(name, eta, i1, data):
    try:
        value = CALLS[name](metric_from_eta(eta, i1), data)
    except HypgeoError:
        return
    assert not _nan_in(value), value


@settings(SEARCH, max_examples=50)
@given(eta=WIDE_ETA, b=st.floats(1e3, 1e9), sign=st.sampled_from((1, -1)), group=GROUP)
def test_cut_time_is_continuous_across_the_light_cone(eta, b, sign, group):
    # both sides of the cone tend to its cut time like 1/b^2, and the
    # bound's 4 eps leaves room for the rounding of each side's phase root
    m = metric_from_eta(eta)
    t_light = cut_time(m, light_covector(m, 0.0, sign), group)
    for ctype in (CausalType.TIME_LIKE, CausalType.SPACE_LIKE):
        try:
            p = covector_from_pbar3(m, sign * b, 0.0, ctype)
        except HypgeoError:  # b^2 eta overflows near eta = -1e300
            continue
        t = cut_time(m, p, group)
        assert abs(t / t_light - 1.0) <= 1.0 / (b * b) + 4.0 * sys.float_info.epsilon, ctype


@settings(SEARCH, max_examples=50)
@given(eta=WIDE_ETA, pbar3=st.one_of(st.just(0.0), st.floats(0.0, 3.0), st.floats(1.0, 1e9)),
       sign=st.sampled_from((1, -1)), phase=st.floats(-4.0, 4.0), ctype=CTYPE, group=GROUP)
def test_describe_cut_names_m12_at_the_conjugate_time_and_none_at_inf(
        eta, pbar3, sign, phase, ctype, group):
    m = metric_from_eta(eta)
    try:
        if ctype is CausalType.LIGHT_LIKE:
            p = light_covector(m, phase, sign)
        else:
            p = covector_from_pbar3(m, sign * pbar3, phase, ctype)
    except HypgeoError:
        return
    d = describe_cut(m, p, group)
    assert (d.active_stratum == "M12") == (d.t_cut == d.t_conj < math.inf)
    assert (d.active_stratum is None) == math.isinf(d.t_cut)
