"""First-root machinery: brackets, poles, degeneracies and oracles."""

import math
import random
from functools import partial

import mpmath
import pytest

from helpers import bisect
from hypgeo import (
    CausalType,
    DegenerateIdenticallyZero,
    DomainError,
    GroupTag,
    NoRootFound,
    NotTimeLike,
    UndefinedAtEquator,
    conjugate_roots,
    covector_from_pbar3,
    cut_locus_sample,
    cut_time,
    exp_map,
    light_covector,
    make_metric,
    maxwell_root_q0,
    maxwell_root_q3,
    metric_from_eta,
)
from hypgeo import root_solver

M = make_metric(1.0, 4.0)


# --- first zeros of q0 and q3 ------------------------------------------------


def _tau_of(m, p, t):
    return t * p.norm / (2.0 * m.i1)


@pytest.mark.parametrize("pbar3", [1.3, 1.7, 2.5, 8.0, 40.0])
def test_time_like_q0_root_kills_q0(pbar3):
    p = covector_from_pbar3(M, pbar3, 0.45, CausalType.TIME_LIKE)
    t0 = maxwell_root_q0(M, p)
    assert abs(exp_map(M, p, t0).q0) < 1e-9
    # first root: strictly positive q0 before it
    for frac in (0.15, 0.5, 0.85):
        assert exp_map(M, p, frac * t0).q0 > 0.0


@pytest.mark.parametrize("pbar3", [1.3, 1.7, 2.5, 8.0])
def test_time_like_q3_root_kills_q3(pbar3):
    p = covector_from_pbar3(M, pbar3, 0.45, CausalType.TIME_LIKE)
    t3 = maxwell_root_q3(M, p)
    assert abs(exp_map(M, p, t3).q3) < 1e-9


@pytest.mark.parametrize("seed", range(50))
def test_q0_root_precedes_q3_root(seed):
    rnd = random.Random(1234 + seed)
    m = metric_from_eta(rnd.uniform(-2.6, -1.1))
    kind = rnd.choice([CausalType.TIME_LIKE, CausalType.SPACE_LIKE, None])
    if kind is CausalType.TIME_LIKE:
        p = covector_from_pbar3(m, rnd.uniform(1.05, 20.0), rnd.uniform(0, 6), kind)
    elif kind is CausalType.SPACE_LIKE:
        p = covector_from_pbar3(m, rnd.uniform(0.05, 0.95), rnd.uniform(0, 6), kind)
    else:
        p = light_covector(m, rnd.uniform(0, 6))
    assert maxwell_root_q0(m, p) < maxwell_root_q3(m, p)


def test_pole_roots_are_closed_form():
    # pbar3 = +-1: tau0 = -pi/(2(1+eta)), tau3 = -pi/(1+eta)
    for sign in (1.0, -1.0):
        p = covector_from_pbar3(M, sign, 0.2, CausalType.TIME_LIKE)
        t0 = maxwell_root_q0(M, p)
        t3 = maxwell_root_q3(M, p)
        assert abs(_tau_of(M, p, t0) - (-math.pi / (2.0 * (1.0 + M.eta)))) < 1e-12
        assert abs(_tau_of(M, p, t3) - (-math.pi / (1.0 + M.eta))) < 1e-12


@pytest.mark.parametrize("seed", range(40))
def test_space_like_q0_bracket(seed):
    # stated window: tau0 in (-pi/(2 eta b), -pi/(eta b))
    rnd = random.Random(86 + seed)
    m = metric_from_eta(rnd.uniform(-2.6, -1.1))
    b = 10.0 ** rnd.uniform(-2.0, 1.2)
    p = covector_from_pbar3(m, b, rnd.uniform(0, 6), CausalType.SPACE_LIKE)
    tau0 = _tau_of(m, p, maxwell_root_q0(m, p))
    assert -math.pi / (2.0 * m.eta * b) < tau0 < -math.pi / (m.eta * b)


@pytest.mark.parametrize("seed", range(40))
def test_light_like_root_brackets(seed):
    # in u = -eta * tau_p units: q0 root in (pi/2, pi), q3 root in (pi, 3pi/2)
    rnd = random.Random(99 + seed)
    m = metric_from_eta(rnd.uniform(-2.6, -1.1))
    p = light_covector(m, rnd.uniform(0, 6), 1 if rnd.random() < 0.5 else -1)
    scale = abs(p.p3) / (2.0 * m.i1) * (-m.eta)
    u0 = scale * maxwell_root_q0(m, p)
    u3 = scale * maxwell_root_q3(m, p)
    assert math.pi / 2 < u0 < math.pi
    assert math.pi < u3 < 1.5 * math.pi


def test_space_like_equator_degeneracies():
    p = covector_from_pbar3(M, 0.0, 0.3, CausalType.SPACE_LIKE)
    with pytest.raises(UndefinedAtEquator):
        maxwell_root_q0(M, p)
    with pytest.raises(DegenerateIdenticallyZero):
        maxwell_root_q3(M, p)


def test_light_roots_match_independent_bisection():
    # frozen: first zero of q0 along the light geodesic at eta = -1.25
    p = light_covector(M, 0.0)
    t0 = maxwell_root_q0(M, p)
    assert abs(t0 - 4.846586135977827) < 1e-9

    # cross-check with a fresh bisection of the closed form
    p3 = p.p3

    def q0(t):
        a = t * M.eta * p3 / (2.0 * M.i1)
        return math.cos(a) - (t / (2.0 * M.i1)) * p3 * math.sin(a)

    assert abs(q0(t0)) < 1e-12
    lo, hi = 0.9 * t0, 1.1 * t0
    assert abs(bisect(q0, lo, hi) - t0) < 1e-9


@pytest.mark.parametrize("eta", [-1.05, -2.7495939198049655, -8.939520238029953])
@pytest.mark.parametrize("pbar3", [30.0, 300.0, 3000.0])
def test_space_like_q0_root_is_relatively_accurate_near_the_light_cone(pbar3, eta):
    # the root shrinks like 1/pbar3 here, so only a relative tolerance
    # keeps its digits: bisect cos u + b tanh(u/k) sin u, u = k tau, with
    # the covector's own b (rounding moves it off pbar3 by ~pbar3^2 ulps)
    m = metric_from_eta(eta)
    p = covector_from_pbar3(m, pbar3, 0.0, CausalType.SPACE_LIKE)
    b = p.pbar3
    k = -eta * b
    u = bisect(lambda u: math.cos(u) + b * math.tanh(u / k) * math.sin(u),
               0.5 * math.pi, math.pi)
    tau0 = _tau_of(m, p, maxwell_root_q0(m, p))
    assert abs(tau0 - u / k) <= 1e-12 * (u / k)


# --- conjugate roots ----------------------------------------------------------


def test_conjugate_roots_reject_non_time_like():
    with pytest.raises(NotTimeLike):
        conjugate_roots(M, 0.5, 2)


def test_conjugate_roots_reject_a_count_that_is_not_an_integer():
    # range() used to leak a bare TypeError for a float k_max
    for k_max in (2.5, 2.0, math.nan):
        with pytest.raises(DomainError, match="k_max must be an integer"):
            conjugate_roots(M, 1.5, k_max)
    with pytest.raises(DomainError, match="k_max >= 1"):
        conjugate_roots(M, 1.5, 0)
    # what operator.index takes is a count: bool is an int
    assert conjugate_roots(M, 1.5, True) == conjugate_roots(M, 1.5, 1)


def test_conjugate_roots_at_pole_collapse_to_pi_grid():
    # sigma = 0: the phase root's lower endpoint already meets the target
    for eta in (-1.0001, -1.25, -1.5, -2.0, -30.0):
        for pbar3 in (1.0, -1.0):
            taus = conjugate_roots(metric_from_eta(eta), pbar3, 3)
            assert taus == [v for k in (1, 2, 3) for v in (math.pi * k, math.pi * k)]


def test_conjugate_roots_frozen_values():
    # sigma = -eta (1 - b^2)/(1 + eta b^2) = 0.9375 at b = 2, eta = -1.25
    taus = conjugate_roots(M, 2.0, 2)
    assert abs(taus[0] - math.pi) < 1e-12
    assert abs(taus[1] - 4.478574060171509) < 1e-9
    assert abs(taus[2] - 2.0 * math.pi) < 1e-12
    assert abs(taus[3] - 7.716622347102412) < 1e-9


@pytest.mark.parametrize("seed", range(40))
def test_conjugate_root_windows(seed):
    rnd = random.Random(17 + seed)
    m = metric_from_eta(rnd.uniform(-2.6, -1.1))
    b = rnd.uniform(1.001, 15.0)
    k_max = rnd.randint(1, 4)
    taus = conjugate_roots(m, b, k_max)
    assert len(taus) == 2 * k_max
    assert taus == sorted(taus)
    # the tangent-equation roots interlace the pi grid inside half windows
    sigma = -m.eta * (1.0 - b * b) / (1.0 + m.eta * b * b)
    assert 0.0 <= sigma < 1.0
    grid = [v for k in range(1, k_max + 1) for v in (k * math.pi,)]
    extras = [tau for tau in taus if min(abs(tau - g) for g in grid) > 1e-9]
    for tau in extras:
        k = int(tau / math.pi)
        assert k * math.pi < tau < k * math.pi + math.pi / 2
        assert abs(math.tan(tau) - sigma * tau) < 1e-6 * (1.0 + tau)


@pytest.mark.parametrize("pbar3", [math.nan, math.inf, -math.inf, 1e300])
def test_conjugate_roots_reject_sigma_that_is_not_finite(pbar3):
    with pytest.raises(DomainError):
        conjugate_roots(M, pbar3, 2)


def _mp_conjugate_root(eta, b, k):
    """The root of sin tau - sigma tau cos tau on (pi k, pi k + pi/2) at 40
    digits, with sigma = -eta (1 - b^2) / (1 + eta b^2), rounded to a float."""
    with mpmath.workdps(40):
        eta, b = mpmath.mpf(eta), mpmath.mpf(b)
        sigma = -eta * (1 - b * b) / (1 + eta * b * b)
        lo = mpmath.pi * k
        return float(mpmath.findroot(lambda t: mpmath.sin(t) - sigma * t * mpmath.cos(t),
                                     (lo, lo + mpmath.pi / 2), solver="anderson"))


@pytest.mark.parametrize("seed", range(20))
def test_conjugate_roots_match_a_40_digit_oracle(seed):
    rnd = random.Random(4242 + seed)
    for _ in range(25):
        m = metric_from_eta(-1.0 - 10.0 ** rnd.uniform(-4.0, 1.5))
        b = 1.0 + 10.0 ** rnd.uniform(-8.0, 3.0)
        k_max = rnd.randint(1, 4)
        taus = conjugate_roots(m, b, k_max)
        for k in range(1, k_max + 1):
            ref = _mp_conjugate_root(m.eta, b, k)
            assert taus[2 * k - 2] == math.pi * k
            assert abs(taus[2 * k - 1] - ref) <= 1e-15 * ref


# --- evaluation counts ----------------------------------------------------------


def _recorded(phase):
    """phase plus the list of points it was evaluated at."""
    xs = []

    def f(x):
        xs.append(x)
        return phase(x)

    return f, xs


@pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_interior_phase_root_evaluates_no_bracket_end(sigma, k):
    # the iterates never read the ends' phases; a search that leaves both
    # ends does not evaluate them
    lo, hi = math.pi * k, math.pi * k + 0.5 * math.pi
    phase, xs = _recorded(partial(root_solver._conjugate_phase, sigma))
    root = root_solver._phase_root(phase, -lo, lo, hi)
    assert lo < root < hi
    assert lo not in xs and hi not in xs
    assert len(xs) <= 4


def test_phase_root_at_its_lower_end_returns_that_end_exactly():
    # the pole's conjugate phase -tau meets -pi k at tau = pi k itself
    for k in (1, 2, 3):
        lo = math.pi * k
        phase, xs = _recorded(partial(root_solver._conjugate_phase, 0.0))
        assert root_solver._phase_root(phase, -lo, lo, lo + 0.5 * math.pi) == lo
        assert len(xs) <= 3
    # an end already past the target (a bracket sharp in exact arithmetic,
    # lost to rounding) is the root, and the other end is never evaluated;
    # it is tested once the first Newton step points past it (it took 50
    # and 51 evaluations when the search bisected towards it instead)
    phase, xs = _recorded(lambda x: (-x - 1e-3, -1.0))
    assert root_solver._phase_root(phase, -1.0, 1.0, 2.0) == 1.0
    assert 2.0 not in xs
    assert len(xs) <= 4
    phase, xs = _recorded(lambda x: (-x + 1e-3, -1.0))
    assert root_solver._phase_root(phase, -2.0, 1.0, 2.0) == 2.0
    assert 1.0 not in xs
    assert len(xs) <= 4


def test_phase_root_rejects_a_nan_bracket():
    phase, xs = _recorded(lambda x: (-x, -1.0))
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(NoRootFound, match="empty phase bracket"):
            root_solver._phase_root(phase, -0.5, lo, hi)
    assert xs == []


def test_phase_root_of_a_one_point_bracket_is_its_point():
    # rounding merges a bracket's sharp ends: for eta <= -1e16, 1 + eta
    # rounds to eta and the crossing bracket is one float
    def phase(x):
        return -x, -1.0

    assert root_solver._phase_root(phase, -0.5, 0.75, 0.75) == 0.75
    with pytest.raises(NoRootFound, match="empty phase bracket"):
        root_solver._phase_root(phase, -0.5, 0.75, 0.5)


def test_level_root_keeps_the_space_like_bracket_where_eta_rho_overflows():
    # eta rho overflows, so the light-cone phase is -inf; the gap |k - rho|
    # read inf and the upper bracket 0, and DomainError was raised although
    # the witness, pbar3 about 2.3e-13, exists
    m = metric_from_eta(-1e10)
    p, t = root_solver.radius_level_root(m, 1e300, -0.5 * math.pi)
    assert p.ctype is CausalType.SPACE_LIKE and 0.0 < p.pbar3 < 1e-12
    q = exp_map(m, p, t)
    assert abs(math.hypot(q.q1, q.q2) - 1e300) <= 1e-13 * 1e300
    assert abs(q.q0) <= 1e-13 * 1e300
    assert t == cut_time(m, p)


def test_level_curve_rows_take_few_phase_evaluations(monkeypatch):
    # a fixed sweep of cut-locus planes: 9 etas in [-30, -1.001], both
    # groups, n in {8, 12, 16}; 7.97 evaluations per row when both bracket
    # ends were evaluated up front, 6.10 when they are evaluated only for
    # an end the search never left
    count = [0]
    for name in ("_spacelike_level_phase", "_timelike_level_phase"):
        def counted(*args, phase=getattr(root_solver, name)):
            count[0] += 1
            return phase(*args)

        monkeypatch.setattr(root_solver, name, counted)
    rows = 0
    for j in range(9):
        eta = -1.0 - 10.0 ** (-3.0 + j * math.log10(29.0 / 0.001) / 8)
        for group in GroupTag:
            for n in (8, 12, 16):
                cut_locus_sample(metric_from_eta(eta), group, n)
                rows += n
    assert count[0] / rows <= 6.5
