"""Closed-form geodesics against the integrator, symmetries, Jacobian."""

import functools
import math
import random
import re

import pytest

from helpers import (
    exp_map_ode_oracle,
    exp_map_ode_oracle_batch,
    gap,
    mul4,
    random_covector,
    rk4_reference,
)
from hypgeo import (
    CausalType,
    DomainError,
    GroupTag,
    LightLikeInput,
    NegativeTime,
    SplitQuaternion,
    SymmetryElement,
    apply_symmetry_image,
    apply_symmetry_preimage,
    covector_from_components,
    covector_from_pbar3,
    cut_time,
    exp_map,
    jacobian,
    light_covector,
    make_metric,
    metric_from_eta,
    sample_geodesic,
    sq_exp,
    sq_mul,
    tau_of_t,
    vertical_flow,
    wavefront_sample,
)
from hypgeo.geodesic_engine import orbit_factors, orbit_pass

M = make_metric(1.0, 4.0)


# frozen output of the reference RK4 in helpers.rk4_reference with 200k
# steps (converged to ~1e-13); guards both the closed form and the
# batch integrator in helpers against simultaneous drift
FROZEN_POINT = {
    "pbar3": 2.0,
    "phase": 0.3,
    "t": 0.7,
    "q": (1.0395097415415575, 0.2232032922520430, 0.2027836804498350,
          -0.1017861875164601),
}


def test_exp_map_matches_frozen_reference_point():
    p = covector_from_pbar3(M, FROZEN_POINT["pbar3"], FROZEN_POINT["phase"],
                            CausalType.TIME_LIKE)
    q = exp_map(M, p, FROZEN_POINT["t"])
    err = max(abs(a - b) for a, b in zip(q.components(), FROZEN_POINT["q"]))
    assert err < 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_exp_map_matches_independent_rk4(seed):
    rnd = random.Random(2024_00 + seed)
    m = metric_from_eta(rnd.uniform(-3.0, -1.05), rnd.uniform(0.5, 2.0))
    p = random_covector(rnd, m)
    t = rnd.uniform(0.05, 6.0)
    closed = exp_map(m, p, t).components()
    reference = rk4_reference(m, p, t, 2500)
    assert max(abs(a - b) for a, b in zip(closed, reference)) < 1e-8


@functools.cache
def _packaged_oracle_cases():
    """(metric, covector, t, oracle endpoint) for seeds 0-7, integrated as one batch."""
    cases = []
    for seed in range(8):
        rnd = random.Random(31_000 + seed)
        m = metric_from_eta(rnd.uniform(-3.0, -1.05))
        p = random_covector(rnd, m)
        cases.append((m, p, rnd.uniform(0.1, 5.0)))
    return [(*case, q) for case, q in zip(cases, exp_map_ode_oracle_batch(*zip(*cases), 2000))]


@pytest.mark.parametrize("seed", range(8))
def test_packaged_oracle_agrees_with_closed_form(seed):
    m, p, t, oracle = _packaged_oracle_cases()[seed]
    assert gap(exp_map(m, p, t), oracle) < 1e-7


def test_batch_oracle_equals_scalar_oracle():
    rnd = random.Random(5150)
    ps, ts = [], []
    for _ in range(7):
        ps.append(random_covector(rnd, M))
        ts.append(rnd.uniform(0.2, 4.0))
    batch = exp_map_ode_oracle_batch(M, ps, ts, 800)
    for p, t, q in zip(ps, ts, batch):
        assert gap(q, exp_map_ode_oracle(M, p, t, 800)) < 1e-13


def test_batch_oracle_takes_one_metric_per_trajectory():
    # a mixed batch gives each endpoint bit for bit as its metric's own batch
    rnd = random.Random(5151)
    metrics = [metric_from_eta(-1.3), metric_from_eta(-2.4, 1.7), M]
    cases = []
    for m in metrics:
        for _ in range(3):
            cases.append((m, random_covector(rnd, m), rnd.uniform(0.2, 4.0)))
    rnd.shuffle(cases)
    mixed = exp_map_ode_oracle_batch(*zip(*cases), 100)
    for m in metrics:
        own = [(p, t) for mm, p, t in cases if mm is m]
        alone = exp_map_ode_oracle_batch(m, *zip(*own), 100)
        assert alone == [q for (mm, _, _), q in zip(cases, mixed) if mm is m]
    with pytest.raises(ValueError):
        exp_map_ode_oracle_batch(metrics[:2], [c[1] for c in cases[:3]], [1.0] * 3, 100)


def test_batch_oracle_empty_input():
    assert exp_map_ode_oracle_batch(M, [], [], 500) == []


def test_oracle_input_validation():
    p = covector_from_pbar3(M, 2.0, 0.0, CausalType.TIME_LIKE)
    with pytest.raises(ValueError):
        exp_map_ode_oracle(M, p, 1.0, 10)
    with pytest.raises(ValueError):
        exp_map_ode_oracle(M, p, -1.0, 500)
    with pytest.raises(NegativeTime):
        exp_map(M, p, -0.1)


@pytest.mark.parametrize("ctype", list(CausalType))
def test_exp_map_preserves_pseudo_norm(ctype):
    rnd = random.Random(hash(ctype.value) % 10_000)
    for _ in range(20):
        p = random_covector(rnd, M, ctype)
        t = rnd.uniform(0.0, 12.0)
        q = exp_map(M, p, t)
        assert abs(q.pseudo_norm() - 1.0) < 1e-9 * (1.0 + abs(q.q0))


def test_exp_map_at_zero_time_is_identity():
    p = light_covector(M, 0.4)
    assert exp_map(M, p, 0.0).components() == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", range(30))
def test_product_form(seed):
    # Exp(p, t) = exp(t p / I1) * exp(t eta p3 e3 / I1) as group elements
    rnd = random.Random(888 + seed)
    m = metric_from_eta(rnd.uniform(-2.8, -1.1))
    p = random_covector(rnd, m)
    t = rnd.uniform(0.0, 7.0)
    left = sq_exp(t * p.p1 / m.i1, t * p.p2 / m.i1, t * p.p3 / m.i1)
    right = sq_exp(0.0, 0.0, t * m.eta * p.p3 / m.i1)
    assert gap(exp_map(m, p, t), sq_mul(left, right)) < 1e-10


@pytest.mark.parametrize("seed", range(20))
def test_vertical_flow_precession(seed):
    rnd = random.Random(640 + seed)
    p = random_covector(rnd, M)
    t = rnd.uniform(0.0, 5.0)
    moved = vertical_flow(M, p, t)
    # p3 is conserved, the horizontal pair rotates by -t eta p3 / I1
    assert moved.p3 == p.p3
    ang = -t * M.eta * p.p3 / M.i1
    c, s = math.cos(ang), math.sin(ang)
    assert abs(moved.p1 - (p.p1 * c - p.p2 * s)) < 1e-12
    assert abs(moved.p2 - (p.p1 * s + p.p2 * c)) < 1e-12
    # flow is a loop of period 2 pi I1 / |eta p3|
    period = 2.0 * math.pi * M.i1 / abs(M.eta * p.p3)
    back = vertical_flow(M, p, period)
    assert abs(back.p1 - p.p1) < 1e-10 and abs(back.p2 - p.p2) < 1e-10


@pytest.mark.parametrize("ctype", list(CausalType))
def test_exp_map_rejects_a_time_that_is_negative_or_not_finite(ctype):
    if ctype is CausalType.LIGHT_LIKE:
        p = light_covector(M, 0.4)
    else:
        p = covector_from_pbar3(M, 1.5 if ctype is CausalType.TIME_LIKE else 0.5, 0.4, ctype)
    for t in (-1.0, -math.inf):
        with pytest.raises(NegativeTime):
            exp_map(M, p, t)
    # nan used to come back as a NaN point, inf as a bare ValueError
    for t in (math.nan, math.inf):
        with pytest.raises(DomainError):
            exp_map(M, p, t)
    with pytest.raises(DomainError):
        sample_geodesic(M, p, math.nan, 4)
    # vertical_flow at inf used to leak a bare ValueError (math domain error)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            vertical_flow(M, p, t)
    if ctype is CausalType.SPACE_LIKE:
        # cosh tau used to leak a bare OverflowError at a long finite time
        m = metric_from_eta(-1.3)
        with pytest.raises(DomainError):
            exp_map(m, covector_from_pbar3(m, 0.5, 0.4, ctype), 1e5)
        with pytest.raises(DomainError):
            wavefront_sample(m, 1e300, 8)


def test_sample_geodesic_endpoints_and_count():
    p = covector_from_pbar3(M, 1.5, 0.2, CausalType.TIME_LIKE)
    samples = sample_geodesic(M, p, 2.0, 9)
    assert len(samples) == 9
    assert samples[0].t == 0.0 and samples[-1].t == 2.0
    assert samples[0].point.components() == (1.0, 0.0, 0.0, 0.0)
    for s in samples:
        assert gap(s.point, exp_map(M, p, s.t)) == 0.0


def test_sample_geodesic_rejects_an_end_time_that_is_not_finite():
    # inf used to reach exp_map as inf * 0 = nan, reported as "got nan"
    p = covector_from_pbar3(M, 1.5, 0.2, CausalType.TIME_LIKE)
    for t_end in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="t_end") as err:
            sample_geodesic(M, p, t_end, 4)
        assert repr(t_end) in str(err.value)


def test_sample_geodesic_rejects_a_count_that_is_not_an_integer():
    # range() used to leak a bare TypeError for a float count
    p = covector_from_pbar3(M, 1.5, 0.2, CausalType.TIME_LIKE)
    for n in (2.5, 4.0, math.nan):
        with pytest.raises(DomainError, match="integer"):
            sample_geodesic(M, p, 1.0, n)
    with pytest.raises(DomainError, match="n >= 2"):
        sample_geodesic(M, p, 1.0, 1)


_M6 = metric_from_eta(-1e6)

# (metric, covector, t): finite times at which the turn overflows.  The
# time-like pole (theta = -inf) and the light cone with a = +-inf used to
# leak a bare ValueError (math domain error), the space-like equator
# (tau = inf, theta = inf * 0 = nan) came back as a NaN point, and the light
# cone of a small I1 (b = inf, a finite) as an infinite one
_OVERFLOWING_TURNS = {
    "time-like pole": (_M6, covector_from_pbar3(_M6, 1.0, 0.0, CausalType.TIME_LIKE), 1e308),
    "light cone, a = +inf": (_M6, light_covector(_M6, 0.3, 1), 1e305),
    "light cone, a = -inf": (_M6, light_covector(_M6, 0.3, -1), 1e305),
    "space-like equator": (
        make_metric(4.0, 10.0),
        covector_from_pbar3(make_metric(4.0, 10.0), 0.0, 0.0, CausalType.SPACE_LIKE),
        1e308,
    ),
    "light cone, b = inf": (
        make_metric(0.1, 1.0), light_covector(make_metric(0.1, 1.0), 0.3), 1e308
    ),
}


@pytest.mark.parametrize("case", list(_OVERFLOWING_TURNS))
def test_exp_map_names_a_time_whose_turn_overflows(case):
    m, p, t = _OVERFLOWING_TURNS[case]
    with pytest.raises(DomainError, match=re.escape(f"geodesic time {t!r} overflows the turn")):
        exp_map(m, p, t)
    with pytest.raises(DomainError, match="overflows the turn"):
        sample_geodesic(m, p, t, 2)


def test_vertical_flow_names_a_time_whose_turn_overflows():
    # the turn -t eta p3 / I1 is -inf: math.cos used to leak a bare ValueError
    m = metric_from_eta(-1.25)
    p = covector_from_pbar3(m, 1.0, 0.0, CausalType.TIME_LIKE)
    msg = re.escape("flow time 1e+308 overflows the turn")
    with pytest.raises(DomainError, match=msg):
        vertical_flow(m, p, 1e308)
    # a reversing element pushes p through the flow first
    with pytest.raises(DomainError, match=msg):
        apply_symmetry_preimage(m, SymmetryElement.sigma1(), p, 1e308)


def test_wavefront_names_a_time_whose_turn_overflows():
    # used to leak a bare ValueError from the time-like rows
    with pytest.raises(DomainError, match="overflows the turn"):
        wavefront_sample(_M6, 1e308, 8)


def _finite_or_domain_error(call):
    try:
        points = call()
    except DomainError:
        return
    for q in points:
        assert all(math.isfinite(c) for c in q.components()), q


@pytest.mark.parametrize("pbar3", [0.5, 1.8, 1e3])
@pytest.mark.parametrize("tau", [709.0, 709.7, 710.4])
def test_space_like_endpoint_near_cosh_overflow_is_finite_or_rejected(pbar3, tau):
    # cosh tau is finite here, but pbar3 sinh tau (in q0, q3) or
    # sinh tau hypot(1, pbar3) (the length of (q1, q2)) may not be: pbar3
    # 1e3 at tau 709 came back all inf, and 0.5 at 710.4 with q1 = -inf
    # but q0 and q3 finite
    m = metric_from_eta(-1.3)
    p = covector_from_pbar3(m, pbar3, 0.0, CausalType.SPACE_LIKE)
    t = tau * 2.0 * m.i1 / p.norm
    _finite_or_domain_error(lambda: [exp_map(m, p, t)])
    _finite_or_domain_error(lambda: [s.point for s in sample_geodesic(m, p, t, 3)])
    _finite_or_domain_error(lambda: [w.point for w in wavefront_sample(m, t, 8)])
    if pbar3 == 1e3 or tau == 710.4:
        with pytest.raises(DomainError, match=re.escape(f"geodesic time {t!r} overflows")):
            exp_map(m, p, t)


# --- the orbit factors, to the bit ----------------------------------------

_T, _S, _L = CausalType.TIME_LIKE, CausalType.SPACE_LIKE, CausalType.LIGHT_LIKE

# (eta, causal type, pbar3 or the light cone's p3 sign, t): orbit_factors
# as float.hex (q0, q3, radial, cos and sin of the turn, norm), frozen.
# Poles, the equator, t = 0 (turns of either zero) and turns up to about
# 1e6 in size, both signs.
ORBIT_FROZEN = [
    (-1.25, _T, 1.0, 0.7,
     ("0x1.f82e13b0332e2p-1", "-0x1.6492cea774a94p-3", "0x1.49d6e694619b8p-1",
      "0x1.4830bd7d4ceb3p-1", "0x1.88fb7640b8da2p-1", "0x1.0000000000000p+1")),
    (-1.25, _T, -1.0, 0.7,
     ("0x1.f82e13b0332e2p-1", "0x1.6492cea774a94p-3", "0x1.49d6e694619b8p-1",
      "0x1.4830bd7d4ceb3p-1", "-0x1.88fb7640b8da2p-1", "0x1.0000000000000p+1")),
    (-1.25, _T, 1.5, 0.0,
     ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
      "0x1.0000000000000p+0", "0x0.0p+0", "0x1.7c4dd663ebb88p-1")),
    (-1.25, _T, 1.5, 2.3,
     ("0x1.1c3bb055d8c39p+0", "-0x1.61fb792e24d9ep-1", "0x1.821227546117cp-1",
      "-0x1.f8f8fe1880f99p-6", "0x1.ffc1bae0f1b66p-1", "0x1.7c4dd663ebb88p-1")),
    (-1.25, _T, -1.5, 2.3,
     ("0x1.1c3bb055d8c39p+0", "0x1.61fb792e24d9ep-1", "0x1.821227546117cp-1",
      "-0x1.f8f8fe1880f99p-6", "-0x1.ffc1bae0f1b66p-1", "0x1.7c4dd663ebb88p-1")),
    (-3.0, _T, 4.0, 11.0,
     ("-0x1.423c9a13d85fap+0", "-0x1.56b4bec5fe847p+1", "0x1.701734a0e21fep-1",
      "-0x1.f58ec0a49a734p-1", "-0x1.9b8363dd158b2p-3", "0x1.2abb43c0eb0f4p-3")),
    (-3.0, _T, -40.0, 0.05,
     ("0x1.ffd7043b9b749p-1", "0x1.d903ba3d00d17p-6", "0x1.7a696421be67ap-12",
      "0x1.ff851d14fc5b0p-1", "-0x1.62a66c0a89e47p-5", "0x1.d903bdd66f59bp-7")),
    (-1.001, _T, 1.000000001, 3.0,
     ("0x1.ff6c92584e328p-1", "-0x1.846f5a887f1a8p-5", "-0x1.389a1d082a23ep-2",
      "-0x1.df997f0a639c8p-1", "-0x1.667caababa0b3p-2", "0x1.f9f6c367e862cp+4")),
    (-30.0, _T, 2.0, 10000.0,
     ("0x1.23ec04d70f989p+0", "-0x1.938c93ed9a848p-5", "-0x1.454d342b13340p-2",
      "0x1.b53eefdb23447p-1", "-0x1.0a6220bc7e2e4p-1", "0x1.777acde80baeap-4")),
    (-1.25, _T, -7.0, 1800000.0,
     ("-0x1.368338b8ee34dp+2", "0x1.3d1c79a20d89ep+2", "-0x1.fb1fec7e2a537p-1",
      "0x1.74dd38a707cc9p-1", "-0x1.5ee11e12395bfp-1", "0x1.07d8b7c63aadcp-3")),
    (-1.25, _S, 0.0, 1.0,
     ("0x1.20ac1862ae8d0p+0", "0x0.0p+0", "0x1.0acd00fe63b97p-1",
      "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0")),
    (-1.25, _S, 0.0, 0.0,
     ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
      "0x1.0000000000000p+0", "0x0.0p+0", "0x1.0000000000000p+0")),
    (-1.25, _S, 0.5, 2.0,
     ("0x1.7542257696230p+0", "-0x1.3a7ffd39ad3d2p-2", "0x1.f9dcc01b25597p-1",
      "0x1.b5ae36a639c29p-1", "0x1.09ab23f6de581p-1", "0x1.bee9056fb9c38p-1")),
    (-1.25, _S, -0.5, 2.0,
     ("0x1.7542257696230p+0", "0x1.3a7ffd39ad3d2p-2", "0x1.f9dcc01b25597p-1",
      "0x1.b5ae36a639c29p-1", "-0x1.09ab23f6de581p-1", "0x1.bee9056fb9c38p-1")),
    (-3.0, _S, 1.0, 1.7,
     ("0x1.79679bec7344dp-1", "-0x1.d54ed8f942e9cp-1", "0x1.c06b8fecf78b7p-2",
      "0x1.2a7f6aeff0628p-2", "0x1.e9c39596d9d4cp-1", "0x1.0000000000000p-1")),
    (-3.0, _S, -1.0, 1.7,
     ("0x1.79679bec7344dp-1", "0x1.d54ed8f942e9cp-1", "0x1.c06b8fecf78b7p-2",
      "0x1.2a7f6aeff0628p-2", "-0x1.e9c39596d9d4cp-1", "0x1.0000000000000p-1")),
    (-1.8, _S, 3e-13, 40.0,
     ("0x1.ceb088b68e804p+27", "-0x1.4ddb12cc534fcp-9", "0x1.ceb088b68e804p+27",
      "0x1.0000000000000p+0", "0x1.7bfdc07fdfbfdp-37", "0x1.0000000000000p+0")),
    (-30.0, _S, -50.0, 300000.0,
     ("0x1.c7e44b9a7c9b8p+794", "0x1.d2adcabe62f05p+790", "0x1.244f0f183d72ep+789",
      "-0x1.6777bc5116a88p-5", "-0x1.ff81c02cbc050p-1", "0x1.de9aa52f8359fp-9")),
    (-1.1, _S, -12.0, 0.0,
     ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
      "0x1.0000000000000p+0", "-0x0.0p+0", "0x1.446d1510f762cp-4")),
    (-1.25, _L, 1, 0.0,
     ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0",
      "0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")),
    (-1.25, _L, 1, 1.3,
     ("0x1.22360da7d3cd6p+0", "-0x1.d6e40cc320eeep-3", "0x1.4cccccccccccdp-1",
      "0x1.7ea57d387000fp-1", "0x1.542f4f464a4eap-1", "0x0.0p+0")),
    (-1.25, _L, -1, 1.3,
     ("0x1.22360da7d3cd6p+0", "0x1.d6e40cc320eeep-3", "0x1.4cccccccccccdp-1",
      "0x1.7ea57d387000fp-1", "-0x1.542f4f464a4eap-1", "0x0.0p+0")),
    (-3.0, _L, -1, 1000000.0,
     ("0x1.161d468b21367p+18", "-0x1.70cdfe88aae64p+15", "0x1.e848000000000p+18",
      "0x1.4eea859a24493p-3", "-0x1.f91b7c4845240p-1", "0x0.0p+0")),
    (-30.0, _L, 1, 400000.0,
     ("-0x1.1b8949c39459ep+10", "-0x1.1d227082812c0p+15", "0x1.86a0000000000p+17",
      "-0x1.ffc0df691ee63p-1", "-0x1.fc6f9d868ca65p-6", "0x0.0p+0")),
]


@pytest.mark.parametrize("eta, ctype, b, t, want", ORBIT_FROZEN)
def test_orbit_factors_are_frozen_to_the_bit(eta, ctype, b, t, want):
    m = metric_from_eta(eta)
    p = light_covector(m, 0.3, b) if ctype is _L else covector_from_pbar3(m, b, 0.3, ctype)
    assert tuple(x.hex() for x in orbit_factors(m, p, t)) == want


def test_orbit_turn_is_cos_and_sin_of_minus_theta_to_the_bit():
    # the kernel returns (cos theta, -sin theta) for the turn -theta: this
    # holds on a libm whose cos is even and whose sin is odd bit for bit
    rnd = random.Random(2417)
    checked = 0
    for _ in range(3000):
        m = metric_from_eta(-1.0 - 10.0 ** rnd.uniform(-3.0, 1.5))
        p = random_covector(rnd, m)
        t = 10.0 ** rnd.uniform(-3.0, 6.0)
        try:
            f = orbit_factors(m, p, t)
        except DomainError:  # a space-like cosh tau past overflow
            continue
        if p.ctype is _L:
            theta = t * m.eta * p.p3 / (2.0 * m.i1)
        else:
            theta = t * p.norm / (2.0 * m.i1) * m.eta * p.pbar3
        assert (f[3].hex(), f[4].hex()) == (math.cos(-theta).hex(), math.sin(-theta).hex())
        checked += 1
    assert checked > 2000


def _hexes(factors):
    return [tuple(x.hex() for x in f) for f in factors]


def _one_at_a_time(m, p, times):
    """orbit_factors per time up to the first error: (factors, the error)."""
    out = []
    for t in times:
        try:
            out.append(orbit_factors(m, p, t))
        except DomainError as exc:
            return out, exc
    return out, None


def _assert_pass_matches_one_at_a_time(m, p, times):
    want, error = _one_at_a_time(m, p, times)
    got = []
    if error is None:
        assert orbit_pass(m, p, times, got) is got
    else:
        with pytest.raises(type(error)) as exc:
            orbit_pass(m, p, times, got)
        assert type(exc.value) is type(error) and str(exc.value) == str(error)
    assert _hexes(got) == _hexes(want)
    return len(got)


@pytest.mark.parametrize("ctype", [_T, _S, _L])
def test_orbit_pass_is_orbit_factors_per_time_to_the_bit(ctype):
    rnd = random.Random(4093)
    for _ in range(60):
        m = metric_from_eta(-1.0 - 10.0 ** rnd.uniform(-3.0, 1.5))
        if ctype is _L:
            p = light_covector(m, rnd.uniform(0.0, 6.3), rnd.choice((1, -1)))
        else:
            b = rnd.uniform(1.0, 6.0) if ctype is _T else rnd.uniform(-3.0, 3.0)
            p = covector_from_pbar3(m, rnd.choice((1.0, -1.0)) * b, rnd.uniform(0.0, 6.3), ctype)
        times = sorted([0.0] + [10.0 ** rnd.uniform(-3.0, 2.5) for _ in range(23)])
        assert _assert_pass_matches_one_at_a_time(m, p, times) == 24


def test_orbit_pass_stops_where_cosh_tau_overflows_with_the_same_error():
    # tau runs from 100 to 1000 in steps of 100: cosh overflows past 710.5,
    # so the column keeps 7 factors and raises orbit_factors' own error
    m = metric_from_eta(-1.3)
    p = covector_from_pbar3(m, 0.5, 0.4, _S)
    times = [100.0 * k * 2.0 * m.i1 / p.norm for k in range(1, 11)]
    assert _assert_pass_matches_one_at_a_time(m, p, times) == 7
    with pytest.raises(DomainError, match="overflows cosh tau"):
        orbit_pass(m, p, times, [])
    # every later time fails too: the scan of riemannian_log relies on it
    for t in times[7:]:
        with pytest.raises(DomainError):
            orbit_factors(m, p, t)
    # past the endpoint bound but not past cosh: pbar3 sinh tau overflows
    p = covector_from_pbar3(m, 1e3, 0.0, _S)
    times = [700.0 * 2.0 * m.i1 / p.norm, 709.0 * 2.0 * m.i1 / p.norm]
    assert _assert_pass_matches_one_at_a_time(m, p, times) == 1
    with pytest.raises(DomainError, match="overflows the endpoint"):
        orbit_pass(m, p, times, [])


@pytest.mark.parametrize("ctype", [_T, _S, _L])
@pytest.mark.parametrize("bad, error", [(math.nan, DomainError), (-1.0, NegativeTime),
                                        (-math.inf, NegativeTime), (math.inf, DomainError)])
def test_orbit_pass_raises_at_a_rejected_time_with_the_prefix_kept(ctype, bad, error):
    m = metric_from_eta(-1.25)
    p = light_covector(m, 0.3, 1) if ctype is _L else covector_from_pbar3(
        m, 1.5 if ctype is _T else 0.5, 0.3, ctype)
    times = [0.0, 0.5, 1.0, bad, 2.0]
    assert _assert_pass_matches_one_at_a_time(m, p, times) == 3
    out = []
    with pytest.raises(error, match=re.escape(repr(bad))):
        orbit_pass(m, p, times, out)
    assert len(out) == 3


def _times_past_the_guards(rnd):
    """0 < t_1 < t_2 < ...: geometric steps from 1e-3 until t overflows,
    then inf, so every pass stops at a guard or at the infinite time."""
    times, t = [], 1e-3
    while t < math.inf:
        times.append(t)
        t *= rnd.uniform(1.5, 8.0)
    return times + [math.inf]


def _mirror_cases(ctype):
    """(metric, covector, times) of one causal type: random records of
    either sign of p3, and records classified from components the way the
    logarithm's scan builds its covectors."""
    rnd = random.Random(7129)
    for _ in range(40):
        m = metric_from_eta(-1.0 - 10.0 ** rnd.uniform(-3.0, 1.5))
        yield m, random_covector(rnd, m, ctype), _times_past_the_guards(rnd)
        x = rnd.uniform(-1.0, 1.0) * math.sqrt(m.i3)
        if ctype is _L:  # |p3| = |p| on the cone
            x = math.copysign(math.sqrt(m.i1 * m.i3 / (m.i1 + m.i3)), x)
        p = covector_from_components(m, math.sqrt(max(m.i1 * (1.0 - x * x / m.i3), 0.0)), 0.0, x)
        if p.ctype is ctype:
            yield m, p, _times_past_the_guards(rnd)
    if ctype is _S:  # pbar3 sinh tau overflows before cosh tau does
        m = metric_from_eta(-1.3)
        p = covector_from_pbar3(m, -1e3, 0.4, _S)
        yield m, p, [tau * 2.0 * m.i1 / p.norm for tau in (1.0, 700.0, 705.0, 709.0)]


def _pass_until_error(m, p, times):
    out = []
    try:
        orbit_pass(m, p, times, out)
    except DomainError as exc:
        return out, exc
    return out, None


@pytest.mark.parametrize("ctype", [_T, _S, _L])
def test_sigma2_twin_runs_the_mirrored_orbit_pass_to_the_bit(ctype):
    # sigma2 (p3 -> -p3) maps Exp(p, t) to Exp(sigma2 p, t): the twin's
    # record differs only in the signs of p3 and pbar3, IEEE products and
    # sums are sign-symmetric, and libm's cos is even and its sin odd, so
    # its factors are (q0, -q3, radial, c, -s, norm) bit for bit, and its
    # pass stops at the same time with the same error.  riemannian_log's
    # scan reuses a column for its twin on this rule.
    sigma2 = SymmetryElement.sigma2()
    guards = set()
    for m, p, times in _mirror_cases(ctype):
        twin, _ = apply_symmetry_preimage(m, sigma2, p, 0.0)
        assert twin.p3 == -p.p3 and twin[3:6] == p[3:6]
        assert twin.pbar3 == (None if ctype is _L else -p.pbar3)
        for group in GroupTag:
            assert cut_time(m, twin, group).hex() == cut_time(m, p, group).hex()
        want, error = _pass_until_error(m, p, times)
        got, twin_error = _pass_until_error(m, twin, times)
        assert len(got) == len(want) < len(times)
        assert type(twin_error) is type(error) and str(twin_error) == str(error)
        guards.add(re.search(r"overflows [a-z ]+|must be finite", str(error)).group())
        mirrored = [(q0, -q3, radial, c, -s, norm) for q0, q3, radial, c, s, norm in want]
        assert _hexes(got) == _hexes(mirrored)
        # at t = 0 the rule holds up to the sign of a zero: q3 is 0 + (-0) = +0
        # on both sides (the scan's times are all positive)
        assert orbit_factors(m, twin, 0.0) == orbit_factors(m, p, 0.0)
    # every guard of the type is reached, not only the infinite time
    turn = {"overflows the turn", "must be finite"}
    assert guards == {_S: {"overflows cosh tau", "overflows the endpoint"}}.get(ctype, turn)


@pytest.mark.parametrize("ctype", [_T, _S, _L])
def test_sample_geodesic_is_exp_map_per_sample_to_the_bit(ctype):
    m = metric_from_eta(-1.3)
    p = light_covector(m, 0.3, -1) if ctype is _L else covector_from_pbar3(
        m, -2.5 if ctype is _T else 0.7, 0.3, ctype)
    samples = sample_geodesic(m, p, 7.5, 16)
    assert [s.t for s in samples] == [7.5 * i / 15 for i in range(16)]
    for s in samples:
        assert [x.hex() for x in s.point] == [x.hex() for x in exp_map(m, p, s.t)]


def test_sample_geodesic_raises_exp_maps_error_at_its_first_failing_sample():
    m = metric_from_eta(-1.3)
    p = covector_from_pbar3(m, 0.5, 0.4, _S)
    t_end = 1000.0 * 2.0 * m.i1 / p.norm  # tau 0..1000: cosh overflows from tau 800 on
    times = [t_end * i / 5 for i in range(6)]
    with pytest.raises(DomainError) as want:
        exp_map(m, p, times[4])
    exp_map(m, p, times[3])
    with pytest.raises(DomainError) as got:
        sample_geodesic(m, p, t_end, 6)
    assert str(got.value) == str(want.value)
    # a negative end time fails at the first sample past t = 0
    with pytest.raises(NegativeTime, match=re.escape(repr(-2.0 / 3))):
        sample_geodesic(m, p, -2.0, 4)


# --- Jacobian ---------------------------------------------------------------


def test_jacobian_rejects_light_like():
    with pytest.raises(LightLikeInput):
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


# --- symmetry machinery ------------------------------------------------------


def _sym_cases():
    return [
        SymmetryElement.rotation(0.9),
        SymmetryElement.sigma1(),
        SymmetryElement.sigma2(),
        SymmetryElement(angle=1.2, mirror=True),
        SymmetryElement(angle=-0.4, flip3=True),
        SymmetryElement(angle=2.2, mirror=True, flip3=True),
    ]


@pytest.mark.parametrize("s", _sym_cases())
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symmetry_intertwines_exponential(s, seed):
    rnd = random.Random(7000 + seed)
    p = random_covector(rnd, M)
    t = rnd.uniform(0.2, 5.0)
    pre, t2 = apply_symmetry_preimage(M, s, p, t)
    assert t2 == t
    lhs = exp_map(M, pre, t)
    rhs = apply_symmetry_image(s, exp_map(M, p, t))
    assert gap(lhs, rhs) < 1e-10


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
