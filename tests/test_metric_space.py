"""Metric construction, the surface C, and momentum classification."""

import math
import random

import pytest

from hypgeo import (
    ETA_INJ_SPLIT,
    ETA_POLE_SPLIT_PSL2,
    ETA_POLE_SPLIT_SL2,
    CausalType,
    DomainError,
    GroupTag,
    LightLikeInput,
    Metric,
    NonPositiveEigenvalue,
    NotOnC,
    covector_from_components,
    covector_from_pbar3,
    cut_locus_sample,
    injectivity_radius,
    light_covector,
    make_metric,
    metric_from_eta,
    tau_of_t,
)
from hypgeo.metric_space import covector_of_type


def test_eta_of_known_metric():
    m = make_metric(1.0, 4.0)
    assert m.eta == -1.25
    assert m.i1 == 1.0 and m.i3 == 4.0


def test_metric_from_eta_inverts_eta():
    for eta in (-1.05, -1.5, -2.0, -3.7):
        m = metric_from_eta(eta, 2.0)
        assert abs(m.eta - eta) < 1e-14
        assert m.i1 == 2.0


def test_metric_rejects_bad_arguments():
    with pytest.raises(NonPositiveEigenvalue):
        make_metric(0.0, 1.0)
    with pytest.raises(NonPositiveEigenvalue):
        make_metric(1.0, -2.0)
    with pytest.raises(DomainError):
        metric_from_eta(-1.0)
    with pytest.raises(DomainError):
        metric_from_eta(-0.3)


def test_metric_rejects_eigenvalues_that_are_not_finite():
    for i1, i3 in ((math.inf, 1.0), (1.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(DomainError):
            make_metric(i1, i3)


@pytest.mark.parametrize("i1, i3", [(1e300, 1e-300), (1e-300, 1e300), (1.0, 1e17)])
def test_metric_rejects_a_ratio_that_eta_cannot_represent(i1, i3):
    # eta was -inf, -1.0 and -1.0, and the injectivity radius 0.0, -0.0 and -0.0
    with pytest.raises(DomainError, match="I1/I3"):
        make_metric(i1, i3)


def test_metric_keeps_a_ratio_near_the_limit_that_eta_represents():
    m = make_metric(1.0, 1e15)
    assert -1.0 - 2e-15 < m.eta < -1.0
    assert 0.0 < injectivity_radius(m) < 3e-7


def test_components_constructor_rejects_nan():
    m = make_metric(1.0, 4.0)
    with pytest.raises(NotOnC):
        covector_from_components(m, math.nan, 0.0, 0.0)
    # used to return a NaN covector tagged space-like, then to report NotOnC
    # ("energy nan"); a time-like pbar3 of nan or +-inf is a DomainError
    for pbar3 in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="pbar3") as err:
            covector_from_pbar3(m, pbar3, 0.0, CausalType.TIME_LIKE)
        assert not isinstance(err.value, NotOnC)
    # an infinite phase used to leak a bare ValueError (math domain error)
    for phase in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            light_covector(m, phase)


def test_split_constants():
    assert ETA_POLE_SPLIT_PSL2 == -1.5
    assert ETA_POLE_SPLIT_SL2 == -2.0
    assert abs(ETA_INJ_SPLIT - (-3.0 - math.sqrt(73.0)) / 8.0) == 0.0
    # ordering along the eta axis
    assert ETA_POLE_SPLIT_SL2 < ETA_POLE_SPLIT_PSL2 < ETA_INJ_SPLIT < -1.0


def test_pbar3_thresholds():
    # the pbar3 thresholds -c/eta are the pole splits over eta
    m = make_metric(1.0, 4.0)  # eta = -1.25
    assert abs(ETA_POLE_SPLIT_PSL2 / m.eta - 1.2) < 1e-15
    assert abs(ETA_POLE_SPLIT_SL2 / m.eta - 1.6) < 1e-15
    # the axis strata's witnesses end at them
    assert cut_locus_sample(m, GroupTag.PSL2, 6)[1].parameters[-1][0].pbar3 == -1.2
    assert cut_locus_sample(m, GroupTag.SL2, 6)[1].parameters[-1][0].pbar3 == 1.6
    # thresholds exist (are >= 1) exactly above the pole splits
    assert ETA_POLE_SPLIT_PSL2 / metric_from_eta(-1.49).eta > 1.0
    assert ETA_POLE_SPLIT_SL2 / metric_from_eta(-1.9).eta > 1.0


def test_light_cone_p3():
    m = make_metric(1.0, 4.0)
    want = math.sqrt(-1.0 / -1.25)
    assert abs(m.light_cone_p3() - want) < 1e-15


@pytest.mark.parametrize("seed", range(20))
def test_components_constructor_validates_energy(seed):
    rnd = random.Random(1500 + seed)
    m = make_metric(rnd.uniform(0.5, 2.0), rnd.uniform(3.0, 9.0))
    # a point of C: (p1, p2) on a circle of radius set by p3
    p3 = rnd.uniform(-0.9, 0.9) * math.sqrt(m.i3)
    r = math.sqrt(m.i1 * (1.0 - p3 * p3 / m.i3))
    ang = rnd.uniform(0, 2 * math.pi)
    p = covector_from_components(m, r * math.cos(ang), r * math.sin(ang), p3)
    energy = (p.p1 ** 2 + p.p2 ** 2) / m.i1 + p.p3 ** 2 / m.i3
    assert abs(energy - 1.0) < 1e-12
    with pytest.raises(NotOnC):
        covector_from_components(m, 2.0 * r, r, p3)


def test_classification_signs():
    m = make_metric(1.0, 4.0)

    def on_c(p3):
        return covector_from_components(
            m, math.sqrt(m.i1 * (1.0 - p3 * p3 / m.i3)), 0.0, p3
        )

    tl = on_c(1.99)
    assert tl.ctype is CausalType.TIME_LIKE
    assert tl.kil < 0
    sl = on_c(0.4)
    assert sl.ctype is CausalType.SPACE_LIKE
    assert sl.kil > 0
    ll = light_covector(m, 0.0)
    assert ll.ctype is CausalType.LIGHT_LIKE
    assert abs(ll.kil) < 1e-12


@pytest.mark.parametrize("ctype,mag", [
    (CausalType.TIME_LIKE, 1.7),
    (CausalType.TIME_LIKE, 12.0),
    (CausalType.SPACE_LIKE, 0.35),
    (CausalType.SPACE_LIKE, 4.0),
])
def test_pbar3_constructor_round_trips_through_components(ctype, mag):
    m = make_metric(1.0, 4.0)
    for sign in (1.0, -1.0):
        p = covector_from_pbar3(m, sign * mag, 0.8, ctype)
        assert p.ctype is ctype
        assert abs(p.pbar3 - sign * mag) < 1e-10 * mag
        # rebuilding from raw components preserves everything
        q = covector_from_components(m, p.p1, p.p2, p.p3)
        assert q.ctype is ctype
        assert abs(q.pbar3 - p.pbar3) < 1e-9 * mag
        assert abs(q.norm - p.norm) < 1e-12


def test_pbar3_and_norm_satisfy_momentum_identities():
    m = make_metric(1.0, 4.0)
    p = covector_from_pbar3(m, 2.0, 0.3, CausalType.TIME_LIKE)
    # |p|^2 = I1 / (-r) with r = 1 + eta pbar3^2 for the time-like branch
    r = 1.0 + m.eta * 4.0
    assert abs(p.norm - math.sqrt(m.i1 / -r)) < 1e-14
    assert abs(p.p3 - p.pbar3 * p.norm) < 1e-14
    # space-like branch flips the sign under the radical
    s = covector_from_pbar3(m, 0.5, 0.0, CausalType.SPACE_LIKE)
    rs = 1.0 - m.eta * 0.25
    assert abs(s.norm - math.sqrt(m.i1 / rs)) < 1e-14


def test_pbar3_constructor_rejects_wrong_ranges():
    m = make_metric(1.0, 4.0)
    # time-like momenta always have |pbar3| > 1
    with pytest.raises(DomainError):
        covector_from_pbar3(m, 0.7, 0.0, CausalType.TIME_LIKE)
    with pytest.raises(DomainError):
        covector_from_pbar3(m, math.inf, 0.0, CausalType.SPACE_LIKE)
    with pytest.raises(DomainError):
        covector_from_pbar3(m, 1.0, 0.0, CausalType.LIGHT_LIKE)
    # a phase of inf used to leak a bare ValueError from cos
    for phase in (math.inf, math.nan):
        with pytest.raises(DomainError):
            covector_from_pbar3(m, 2.0, phase, CausalType.TIME_LIKE)


_EXACT_ETAS = (-1.001, -1.05, -1.25, -2.0, -2.75, -9.0, -30.0)
_EXACT_PBAR3S = (
    (CausalType.SPACE_LIKE, (0.0, 0.3, 300.0, 3000.0, 1e4)),
    (CausalType.TIME_LIKE, (1.0, 1.0 + 1e-12, 1.5, 1e4)),
)


def test_pbar3_constructor_builds_the_exact_record():
    # the type is known, so the record is not re-derived from rounded
    # components: Kil = p1^2 + p2^2 - p3^2 of those cancels, and put 3000
    # 1.2e-10 relative off, 1e4 1.2e-8 off
    eps = 2.220446049250313e-16
    for eta in _EXACT_ETAS:
        for i1 in (1.0, 2.5):
            m = metric_from_eta(eta, i1)
            # eta = -I1/I3 - 1 rounds, and I1/I3 = -(1 + eta) only up to
            # eps |eta/(1 + eta)|: the energy's own rounding
            bound = 4.0 * eps * max(1.0, abs(eta / (1.0 + eta)))
            for ctype, pbar3s in _EXACT_PBAR3S:
                sign = 1.0 if ctype is CausalType.TIME_LIKE else -1.0
                for pbar3 in pbar3s + tuple(-b for b in pbar3s):
                    for phase in (0.0, 0.4, 2.0, -3.0):
                        p = covector_from_pbar3(m, pbar3, phase, ctype)
                        assert p.ctype is ctype
                        assert p.pbar3 == pbar3, (eta, pbar3)
                        assert p.kil == -sign * p.norm * p.norm
                        assert p.p3 == pbar3 * p.norm
                        energy = (p.p1 * p.p1 + p.p2 * p.p2) / m.i1 + p.p3 * p.p3 / m.i3
                        assert abs(energy - 1.0) <= bound, (eta, i1, pbar3, phase)


def test_light_covector_has_zero_kil():
    for eta in _EXACT_ETAS:
        m = metric_from_eta(eta, 1.7)
        for phase in (0.0, 0.25, 1.9, -2.5):
            for p3_sign in (1, -1):
                p = light_covector(m, phase, p3_sign)
                assert p.kil == 0.0
                assert p.ctype is CausalType.LIGHT_LIKE and p.norm == 0.0 and p.pbar3 is None


def test_pbar3_constructor_rejects_an_overflowing_square():
    # r = 1 + type eta pbar3^2 overflows to -+inf, so |p| is 0; this used to
    # report NotOnC ("energy nan")
    m = metric_from_eta(-1.3)
    for ctype in (CausalType.TIME_LIKE, CausalType.SPACE_LIKE):
        for pbar3 in (1e200, -1e200, 1.3e154):
            with pytest.raises(DomainError, match="pbar3") as err:
                covector_from_pbar3(m, pbar3, 0.0, ctype)
            assert not isinstance(err.value, NotOnC)


def test_pbar3_constructor_rejects_the_poles_of_the_limit_metric():
    # I3 = inf gives eta = -1, where 1 + eta pbar3^2 = 0 at pbar3 = +-1 and
    # |p| would be infinite; this used to leak a bare ZeroDivisionError
    m = Metric(1.0, math.inf)
    assert m.eta == -1.0
    for pbar3 in (1.0, -1.0):
        with pytest.raises(DomainError, match="pbar3"):
            covector_of_type(m, CausalType.TIME_LIKE, pbar3, 0.0, 0.0)
        with pytest.raises(DomainError, match="pbar3"):
            covector_from_pbar3(m, pbar3, 0.0, CausalType.TIME_LIKE)
    # the axis strata's conjugate circle sits at the poles
    for group in GroupTag:
        with pytest.raises(DomainError, match="pbar3"):
            cut_locus_sample(m, group, 8)
    # off the poles the limit metric keeps its exact records
    p = covector_from_pbar3(m, 2.0, 0.0, CausalType.TIME_LIKE)
    assert p.pbar3 == 2.0 and p.norm == math.sqrt(1.0 / 3.0)


def test_light_covector_rejects_a_zero_sign():
    with pytest.raises(DomainError, match="p3_sign"):
        light_covector(make_metric(1.0, 4.0), 0.0, 0)


def test_light_covector_rejects_a_cone_that_underflows():
    # I1 = 5e-324: p3 = sqrt(-I1/eta) rounds to 0, a covector off C whose
    # cut time would divide by a zero speed
    with pytest.raises(DomainError, match="underflows"):
        light_covector(metric_from_eta(-2.0, 5e-324), 0.0)


def test_light_covector_components():
    m = make_metric(1.0, 4.0)
    p = light_covector(m, 0.25, -1)
    assert p.p3 < 0
    assert abs(p.p1 ** 2 + p.p2 ** 2 - p.p3 ** 2) < 1e-12
    assert abs(math.atan2(p.p2, p.p1) - 0.25) < 1e-14
    energy = (p.p1 ** 2 + p.p2 ** 2) / m.i1 + p.p3 ** 2 / m.i3
    assert abs(energy - 1.0) < 1e-12


def test_tau_rescaling():
    m = make_metric(1.0, 4.0)
    p = covector_from_pbar3(m, 2.0, 0.0, CausalType.TIME_LIKE)
    assert abs(tau_of_t(m, p, 3.0) - 3.0 * p.norm / 2.0) < 1e-15
    with pytest.raises(LightLikeInput):
        tau_of_t(m, light_covector(m, 0.0), 1.0)
    # nan used to come back as a silent NaN
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError):
            tau_of_t(m, p, t)
