"""The derivation tools of tests/derivation.py against their own formulas:
the algebra exponential against its power series, the Jacobian's zeros
and signs, and the symmetry group's law and guards."""

import math
import random

import pytest

from derivation import (
    SymmetryElement,
    apply_symmetry_image,
    apply_symmetry_preimage,
    jacobian,
    sq_exp,
    tau_of_t,
)
from helpers import series_exp
from hypgeo import (
    CausalType,
    DomainError,
    SplitQuaternion,
    covector_from_pbar3,
    exp_map,
    light_covector,
    make_metric,
    metric_from_eta,
)

M = make_metric(1.0, 4.0)


# --- exponential of the algebra -------------------------------------------------


# frozen power-series values, 60 terms of exp((v1 i + v2 j + v3 k)/2)
SERIES_CASES = [
    ((0.3, -0.4, 0.75),
     (0.9611911518003403, 0.14805449021833708, -0.19740598695778278,
      0.3701362255458427)),
    ((1.1, 0.2, -0.35),
     (1.1442793257110393, 0.5762051572094886, 0.10476457403808882,
      -0.18333800456665544)),
    # light-like direction: the series terminates, components are exact
    ((0.6, 0.8, 1.0), (1.0, 0.3, 0.4, 0.5)),
    ((0.0, 0.0, 2.2),
     (0.45359612142557726, 0.0, 0.0, 0.8912073600614353)),
    ((1.3, -0.9, 0.0),
     (1.3291189366955172, 0.719855980018679, -0.498361832320624, 0.0)),
]


@pytest.mark.parametrize("v,want", SERIES_CASES)
def test_exp_matches_frozen_series_values(v, want):
    got = sq_exp(*v).components()
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-14


@pytest.mark.parametrize("seed", range(30))
def test_exp_matches_series_randomly(seed):
    rnd = random.Random(77 + seed)
    v = tuple(rnd.uniform(-2.5, 2.5) for _ in range(3))
    got = sq_exp(*v).components()
    want = series_exp(*v)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12


@pytest.mark.parametrize("v", [
    # tiny and near-cone arguments used to take the affine form 1 + v/2,
    # which drops |kappa|/8 from q0: 1.1e-10, 4.2e-10 and 1.25e-10 off
    (0.0, 0.0, 3e-5),
    (10.0, 0.0, 10.0000000001),
    (3.0, 4.0, 5.0000000001),
])
def test_exp_matches_series_near_the_light_cone(v):
    got = sq_exp(*v).components()
    want = series_exp(*v)
    assert max(abs(x - y) for x, y in zip(got, want)) < 1e-15


@pytest.mark.parametrize("seed", range(30))
def test_exp_lands_on_unit_pseudo_norm_surface(seed):
    rnd = random.Random(501 + seed)
    q = sq_exp(*(rnd.uniform(-3, 3) for _ in range(3)))
    assert abs(q.pseudo_norm() - 1.0) < 1e-11


@pytest.mark.parametrize("v", [
    (1e300, 1e300, 0.0),   # kappa overflows: came back (inf, nan, nan, nan)
    (0.0, 0.0, 1e300),
    (math.nan, 0.0, 0.0),
    (2000.0, 0.0, 0.0),    # cosh(|v|/2) overflowed with a bare OverflowError
])
def test_exp_rejects_an_exponent_that_is_not_finite_or_overflows(v):
    with pytest.raises(DomainError):
        sq_exp(*v)


# --- rescaled time and Jacobian -----------------------------------------------


def test_tau_rescaling():
    m = make_metric(1.0, 4.0)
    p = covector_from_pbar3(m, 2.0, 0.0, CausalType.TIME_LIKE)
    assert abs(tau_of_t(m, p, 3.0) - 3.0 * p.norm / 2.0) < 1e-15
    with pytest.raises(DomainError):
        tau_of_t(m, light_covector(m, 0.0), 1.0)
    # nan used to come back as a silent NaN
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError):
            tau_of_t(m, p, t)


def test_jacobian_rejects_light_like():
    with pytest.raises(DomainError):
        jacobian(M, CausalType.LIGHT_LIKE, 1.0, 0.5)


@pytest.mark.parametrize("ctype", [CausalType.TIME_LIKE, CausalType.SPACE_LIKE])
@pytest.mark.parametrize("pbar3, tau", [(2.0, math.inf), (2.0, math.nan), (math.inf, 1.0),
                                        (math.nan, 1.0)])
def test_jacobian_rejects_values_that_are_not_finite(ctype, pbar3, tau):
    # tau = inf used to leak a bare ValueError, the others came back NaN
    with pytest.raises(DomainError):
        jacobian(M, ctype, pbar3, tau)


@pytest.mark.parametrize("tau", [180.0, 240.0, 800.0])
def test_jacobian_rejects_a_space_like_tau_where_it_overflows(tau):
    # J came back inf from tau = 177 on; from 237.5 on s ** 3, and from
    # 710.5 on sinh itself, leaked a bare OverflowError
    with pytest.raises(DomainError):
        jacobian(metric_from_eta(-1.3), CausalType.SPACE_LIKE, 0.5, tau)


def test_jacobian_vanishes_at_pi_for_time_like():
    for pbar3 in (1.01, 1.5, 2.0, 9.0):
        assert abs(jacobian(M, CausalType.TIME_LIKE, pbar3, math.pi)) < 1e-14


def test_jacobian_pole_zeros_at_multiples_of_pi():
    for k in (1, 2, 3):
        assert abs(jacobian(M, CausalType.TIME_LIKE, 1.0, k * math.pi)) < 1e-12
        assert abs(jacobian(M, CausalType.TIME_LIKE, -1.0, k * math.pi)) < 1e-12


def test_jacobian_keeps_sign_before_first_conjugate_point():
    # (1 + eta) < 0 makes J negative on (0, pi) for time-like momenta
    for tau in (0.3, 1.0, 2.0, 3.0):
        assert jacobian(M, CausalType.TIME_LIKE, 1.4, tau) < 0.0
    # and changes sign just past pi
    assert jacobian(M, CausalType.TIME_LIKE, 1.4, math.pi + 0.05) > 0.0


def test_space_like_jacobian_never_vanishes():
    for tau in (0.2, 1.0, 3.0, 7.0, 15.0):
        assert jacobian(M, CausalType.SPACE_LIKE, 0.6, tau) > 0.0


def test_jacobian_small_time_expansion():
    # both causal types open with J = (1 + eta) tau^4 + O(tau^6) up to the
    # overall type sign; check the quartic coefficient numerically
    tau = 1e-4
    lead_t = jacobian(M, CausalType.TIME_LIKE, 1.3, tau) / tau ** 4
    assert abs(lead_t - (1.0 + M.eta)) < 1e-6
    lead_s = jacobian(M, CausalType.SPACE_LIKE, 0.6, tau) / tau ** 4
    assert abs(lead_s + (1.0 + M.eta)) < 1e-6


# --- symmetry group -------------------------------------------------------------


def test_symmetry_flags():
    assert SymmetryElement.rotation(1.0).reverses_vertical is False
    assert SymmetryElement.sigma1().reverses_vertical is True
    assert SymmetryElement.sigma2().reverses_vertical is True
    both = SymmetryElement(mirror=True, flip3=True)
    assert both.reverses_vertical is False
    assert both.kind == "composite"
    assert SymmetryElement.rotation(0.5).kind == "rotation"
    assert SymmetryElement.sigma1().kind == "reflection-sigma1"
    assert SymmetryElement.sigma2().kind == "reflection-sigma2"


def test_symmetry_composition_is_group_law():
    rnd = random.Random(4)
    for _ in range(20):
        a = SymmetryElement(rnd.uniform(-3, 3), rnd.random() < 0.5,
                            rnd.random() < 0.5)
        b = SymmetryElement(rnd.uniform(-3, 3), rnd.random() < 0.5,
                            rnd.random() < 0.5)
        v = (rnd.uniform(-1, 1), rnd.uniform(-1, 1), rnd.uniform(-1, 1))
        via_compose = a.compose(b).act_on_vector(*v)
        stepwise = a.act_on_vector(*b.act_on_vector(*v))
        assert max(abs(x - y) for x, y in zip(via_compose, stepwise)) < 1e-12


@pytest.mark.parametrize("angle", [math.nan, math.inf])
def test_symmetry_image_rejects_an_angle_that_is_not_finite(angle):
    q = exp_map(M, covector_from_pbar3(M, 1.9, 0.37, CausalType.TIME_LIKE), 1.3)
    for s in (SymmetryElement(angle), SymmetryElement(angle, mirror=True)):
        with pytest.raises(DomainError, match="symmetry angle"):
            apply_symmetry_image(s, q)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_symmetry_image_rejects_a_component_that_is_not_finite(bad):
    # inf rotated by angle 0 meets sin 0, and inf * 0 is NaN
    with pytest.raises(DomainError, match="not finite"):
        apply_symmetry_image(SymmetryElement(), SplitQuaternion(1.0, bad, 0.0, 0.0))


@pytest.mark.parametrize("angle", [math.nan, math.inf])
def test_symmetry_preimage_rejects_an_angle_that_is_not_finite(angle):
    # the angle is the bad input, not the covector: not NotOnC
    p = covector_from_pbar3(M, 1.9, 0.37, CausalType.TIME_LIKE)
    for s in (SymmetryElement(angle), SymmetryElement(angle, mirror=True)):
        with pytest.raises(DomainError, match="symmetry angle"):
            apply_symmetry_preimage(M, s, p, 1.3)


def test_reflection_that_passes_through_endpoint_fixes_geodesic():
    # the mirror whose axis contains the endpoint maps the arc to itself
    p = covector_from_pbar3(M, 1.9, 0.37, CausalType.TIME_LIKE)
    t = 1.3
    q = exp_map(M, p, t)
    axis = math.atan2(q.q2, q.q1)
    s = SymmetryElement(angle=2.0 * axis, mirror=True)
    pre, _ = apply_symmetry_preimage(M, s, p, t)
    assert abs(pre.p1 - p.p1) < 1e-12
    assert abs(pre.p2 - p.p2) < 1e-12
    assert pre.p3 == p.p3
