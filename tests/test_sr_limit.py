"""The I3 -> infinity limit: geodesics, cut times, and convergence."""

import math
import random

import pytest

from helpers import (
    CUBE_ROOT_GAP_COEFF, bisect, gap, q0_phase_cut_time, sr_cut_time_oracle, sr_exp_mp,
)
from hypgeo import (
    CausalType,
    DomainError,
    GroupTag,
    SrMomentum,
    beta_from_pbar3,
    covector_from_pbar3,
    cut_time,
    exp_map,
    limit_comparison,
    metric_from_eta,
    NegativeTime,
    sr_cut_time,
    sr_exp_map,
)


# frozen dictionary values: beta = pbar3/sqrt(pbar3^2 -+ 1)
BETA_CASES = [
    (1.2, CausalType.TIME_LIKE, 1.8090680674665818),
    (1.5, CausalType.TIME_LIKE, 1.3416407864998738),
    (3.0, CausalType.TIME_LIKE, 1.0606601717798212),
    (0.5, CausalType.SPACE_LIKE, 0.4472135954999579),
]


@pytest.mark.parametrize("pbar3,ctype,want", BETA_CASES)
def test_beta_dictionary_frozen_values(pbar3, ctype, want):
    assert abs(beta_from_pbar3(pbar3, ctype) - want) < 1e-15
    assert abs(beta_from_pbar3(-pbar3, ctype) + want) < 1e-15


def test_beta_dictionary_rejects_bad_input():
    with pytest.raises(DomainError):
        beta_from_pbar3(1.0, CausalType.LIGHT_LIKE)
    with pytest.raises(DomainError):
        beta_from_pbar3(0.9, CausalType.TIME_LIKE)
    # a time-like pbar3 of inf or nan used to come back as nan
    for pbar3 in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            beta_from_pbar3(pbar3, CausalType.TIME_LIKE)
    # sr_cut_time(nan) used to raise NoRootFound; |beta| = inf is the cap 0
    with pytest.raises(DomainError):
        sr_cut_time(math.nan)
    assert sr_cut_time(math.inf) == 0.0


def test_beta_round_trip():
    # the dictionary inverts: pbar3 = beta / sqrt(|beta^2 - 1|)
    for pbar3, ctype, beta in BETA_CASES:
        back = beta / math.sqrt(abs(beta * beta - 1.0))
        assert abs(back - pbar3) < 1e-12


def test_sr_exp_map_rejects_negative_time():
    with pytest.raises(NegativeTime):
        sr_exp_map(SrMomentum(1.2, 0.0), -0.5)
    # a phase or time of inf used to leak a bare ValueError, nan gave NaNs
    for sp, t in ((SrMomentum(0.5, math.inf), 1.0), (SrMomentum(math.inf, 0.0), 1.0),
                  (SrMomentum(0.5, math.nan), 1.0), (SrMomentum(0.5, 0.0), math.inf),
                  (SrMomentum(0.5, 0.0), math.nan),
                  # the closed form overflows: a bare ValueError, an OverflowError
                  (SrMomentum(0.5, 0.3), 1e300), (SrMomentum(0.5, 0.3), 1e5)):
        with pytest.raises(DomainError):
            sr_exp_map(sp, t)


def test_sr_exp_map_is_unit_pseudo_norm_curve():
    sp = SrMomentum(1.3, 0.7)
    for t in (0.0, 0.4, 1.1, 3.0):
        q = sr_exp_map(sp, t)
        assert abs(q.pseudo_norm() - 1.0) < 1e-12
    assert sr_exp_map(sp, 0.0).components() == (1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("seed", range(25))
def test_sr_exp_map_is_the_limit_of_exp_map(seed):
    # Riemannian geodesics with the dictionary momentum converge to the
    # sub-Riemannian curve as eta -> -1
    rnd = random.Random(85_000 + seed)
    ctype = CausalType.TIME_LIKE if rnd.random() < 0.6 else CausalType.SPACE_LIKE
    if ctype is CausalType.TIME_LIKE:
        pbar3 = rnd.uniform(1.05, 4.0)
    else:
        pbar3 = rnd.uniform(0.1, 3.0)
    phi0 = rnd.uniform(0, 2 * math.pi)
    t = rnd.uniform(0.1, 2.5)
    beta = beta_from_pbar3(pbar3, ctype)
    sr_point = sr_exp_map(SrMomentum(beta, phi0), t)

    prev = None
    for k in (3, 5, 7):
        m = metric_from_eta(-1.0 - 10.0 ** -k, 1.0)
        p = covector_from_pbar3(m, pbar3, phi0, ctype)
        # the sub-Riemannian momentum scale: |p| -> sqrt(beta^2 - 1)
        err = gap(exp_map(m, p, t), sr_point)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-4


# frozen cut times: the first two sit in the conjugate-cap branch (closed
# form 2 pi / sqrt(beta^2 - 1)), the last two are first roots verified by
# plain bisection of the raw oscillation equations
SR_CUT_FROZEN = [
    (1.8090680674665818, 4.167793630437725),
    (1.3416407864998738, 7.024814731040727),
    (1.0606601717798212, 5.502791972208142),
    (0.4472135954999579, 9.097263361827071),
]


@pytest.mark.parametrize("beta,want", SR_CUT_FROZEN)
def test_sr_cut_time_frozen_values(beta, want):
    assert abs(sr_cut_time(beta) - want) < 1e-9
    assert abs(sr_cut_time(-beta) - want) < 1e-9


def test_sr_cut_time_branches():
    # above 3/sqrt(5) the conjugate circle wins: exactly 2 pi / sqrt(b^2-1)
    b = 1.7
    assert abs(sr_cut_time(b) - 2.0 * math.pi / math.sqrt(b * b - 1.0)) < 1e-12
    # at the boundary the root degenerates onto the cap; approaching from
    # below the gap closes with a cube-root modulus, not linearly
    split = 3.0 / math.sqrt(5.0)
    cap = 2.0 * math.pi / math.sqrt(split * split - 1.0)
    assert sr_cut_time(split) == cap
    gaps = [abs(sr_cut_time(split * (1.0 - 10.0 ** -m)) - cap) for m in (3, 5, 7, 9)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2
    # horizontal momenta never stop minimizing
    assert math.isinf(sr_cut_time(0.0))


def test_sr_cut_time_parabolic_branch():
    got = sr_cut_time(1.0)
    f = lambda t: math.cos(t / 2) + (t / 2) * math.sin(t / 2)
    want = bisect(f, math.pi, 2.0 * math.pi)
    assert abs(got - want) < 1e-9
    assert math.pi < got < 2.0 * math.pi


def test_sr_conjugate_identity_is_exact():
    # 2 pi / sqrt(beta^2 - 1) = 2 pi sqrt(pbar3^2 - 1) under the dictionary
    for pbar3 in (1.2, 2.0, 3.0):
        beta = beta_from_pbar3(pbar3, CausalType.TIME_LIKE)
        lhs = 2.0 * math.pi / math.sqrt(beta * beta - 1.0)
        rhs = 2.0 * math.pi * math.sqrt(pbar3 * pbar3 - 1.0)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_limit_comparison_converges_monotonically():
    etas = [-1.0 - 10.0 ** -k for k in range(1, 7)]
    for pbar3, ctype, _ in BETA_CASES:
        rows = limit_comparison(pbar3, ctype, etas)
        assert len(rows) == 6
        diffs = [r[3] for r in rows]
        assert all(b < a for a, b in zip(diffs, diffs[1:]))
        # each row records the dictionary cut time it is converging to
        beta = beta_from_pbar3(pbar3, ctype)
        want = sr_cut_time(beta)
        for eta, riem, sr, diff in rows:
            assert sr == want
            assert abs(diff - abs(riem - sr)) < 1e-15


def test_limit_comparison_rate_is_linear_off_the_threshold():
    # away from the regime threshold the gap shrinks like |eta + 1|
    etas = [-1.0 - 10.0 ** -k for k in range(1, 7)]
    for pbar3, ctype in ((1.2, CausalType.TIME_LIKE),
                         (3.0, CausalType.TIME_LIKE),
                         (0.5, CausalType.SPACE_LIKE)):
        rows = limit_comparison(pbar3, ctype, etas)
        assert rows[-1][3] < 1e-3
        # consecutive decades shrink the gap by roughly 10x
        ratio = rows[-1][3] / rows[-2][3]
        assert 0.05 < ratio < 0.2


def test_limit_comparison_rate_is_cube_root_at_the_threshold():
    # pbar3 = 1.5 is the image of the regime threshold -3/(2 eta) at
    # eta = -1; there the first root detaches from the conjugate cap with
    # a cube-root modulus, so convergence is |eta + 1|^(1/3), not linear
    etas = [-1.0 - 10.0 ** -k for k in range(1, 7)]
    rows = limit_comparison(1.5, CausalType.TIME_LIKE, etas)
    for eta, riem, _, _ in rows:
        assert abs(riem - q0_phase_cut_time(eta, 1.5)) < 1e-9
    # leading term C |eta + 1|^(1/3); the next order contributes ~2e-3
    eps = -1.0 - etas[-1]
    assert abs(rows[-1][3] / (CUBE_ROOT_GAP_COEFF * eps ** (1.0 / 3.0)) - 1.0) <= 1e-2
    third = 10.0 ** (-1.0 / 3.0)
    for a, b in zip(rows, rows[1:]):
        assert abs(b[3] / a[3] - third) < 0.08


def test_limit_comparison_gap_is_zero_where_both_cut_times_are_infinite():
    # at the space-like equator both cut times are +inf, and inf - inf
    # used to put a NaN in the gap column
    rows = limit_comparison(0.0, CausalType.SPACE_LIKE, [-1.5, -1.1])
    for eta, riem, sr, diff in rows:
        assert riem == sr == math.inf
        assert diff == 0.0


def test_limit_comparison_validates_eta_list():
    with pytest.raises(DomainError):
        limit_comparison(1.2, CausalType.TIME_LIKE, [])
    with pytest.raises(DomainError):
        limit_comparison(1.2, CausalType.TIME_LIKE, [-1.2, -1.2])
    with pytest.raises(DomainError):
        limit_comparison(1.2, CausalType.TIME_LIKE, [-0.9])


def test_sr_exp_map_matches_a_40_digit_closed_form():
    # the limit metric's Exp is exact to rounding: each component within
    # 8 eps (1 + t |beta|) of the closed form, relative to max(1, |q|_inf);
    # the product of two sq_exp was up to 1.2e-10 off at small t |beta|
    rnd = random.Random(17_001)
    eps = 2.0 ** -52
    for i in range(300):
        beta = 1.0 if i % 10 == 0 else 10.0 ** rnd.uniform(-4.0, 6.0)
        beta = math.copysign(beta, rnd.uniform(-1.0, 1.0))
        t = 10.0 ** rnd.uniform(-4.0, math.log10(12.0))
        phi0 = rnd.uniform(0.0, 2.0 * math.pi)
        got = sr_exp_map(SrMomentum(beta, phi0), t)
        want = sr_exp_mp(beta, phi0, t)
        err = max(abs(float(x - y)) for x, y in zip(got, want))
        bound = 8.0 * eps * (1.0 + t * abs(beta)) * max(1.0, *map(abs, got))
        assert err <= bound, (beta, phi0, t, err, bound)


def test_sr_cut_time_matches_the_per_regime_oracles():
    # a third of the draws fall in the root regime 1 < |beta| < 3/sqrt(5);
    # closer than about 1e-7 below 3/sqrt(5) the root is a near-triple zero
    # of the phase, and two solvers agree only to about 1e-11 there
    split = 3.0 / math.sqrt(5.0)
    rnd = random.Random(17_002)
    betas = [1.0, -1.0, split, -split, 1.0 + 2.0 ** -40, 1.0 - 2.0 ** -40,
             split * (1.0 - 1e-6), split * (1.0 + 1e-12)]
    for i in range(600):
        if i % 3 == 0:
            b = 1.0 + (split * (1.0 - 1e-6) - 1.0) * rnd.random()
        else:
            b = 10.0 ** rnd.uniform(-4.0, 6.0)
        betas.append(math.copysign(b, rnd.uniform(-1.0, 1.0)))
    for beta in betas:
        got, want = sr_cut_time(beta), sr_cut_time_oracle(beta)
        assert abs(got - want) <= 1e-12 * want, (beta, got, want)

