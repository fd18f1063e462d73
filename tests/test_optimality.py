"""Maxwell/conjugate/cut times, strata, injectivity radius, logarithm."""

import gc
import hashlib
import heapq
import math
import random

import mpmath
import pytest

from helpers import gap, projective_gap, random_covector
from hypgeo import (
    ETA_POLE_SPLIT_PSL2,
    ETA_POLE_SPLIT_SL2,
    CausalType,
    DomainError,
    GroupTag,
    IdentityTarget,
    Metric,
    NoConvergence,
    OnCutLocus,
    SplitQuaternion,
    SymmetryElement,
    apply_symmetry_preimage,
    covector_from_components,
    covector_from_pbar3,
    cut_locus_sample,
    cut_time,
    describe_cut,
    exp_map,
    first_conjugate_time,
    injectivity_radius,
    light_covector,
    make_metric,
    maxwell_root_q0,
    maxwell_time,
    metric_from_eta,
    psl2_canonicalize,
    riemannian_log,
    vertical_flow,
    wavefront_sample,
)
from hypgeo.metric_space import LIGHT_TOLERANCE
from hypgeo import optimality
from hypgeo.optimality import _GROUPS, _minimizing
from hypgeo.root_solver import radius_level_root

M = make_metric(1.0, 4.0)


# --- characteristic times -----------------------------------------------------


def test_first_conjugate_time_formula():
    p = covector_from_pbar3(M, 2.0, 0.1, CausalType.TIME_LIKE)
    assert abs(first_conjugate_time(M, p) - 2.0 * math.pi * M.i1 / p.norm) == 0.0
    assert math.isinf(first_conjugate_time(M, light_covector(M, 0.0)))
    sl = covector_from_pbar3(M, 0.5, 0.0, CausalType.SPACE_LIKE)
    assert math.isinf(first_conjugate_time(M, sl))


def test_maxwell_time_below_threshold_is_conjugate_capped():
    # psl2 threshold at eta = -1.25 is 1.2
    p = covector_from_pbar3(M, 1.15, 0.3, CausalType.TIME_LIKE)
    assert maxwell_time(M, p) == first_conjugate_time(M, p)
    d = describe_cut(M, p, GroupTag.PSL2)
    assert d.active_stratum == "M12"
    assert d.t_cut == d.t_max == d.t_conj


def test_maxwell_time_above_threshold_is_q0_root():
    p = covector_from_pbar3(M, 7.0, 0.3, CausalType.TIME_LIKE)
    tm = maxwell_time(M, p)
    assert tm < first_conjugate_time(M, p)
    assert abs(exp_map(M, p, tm).q0) < 1e-9
    assert describe_cut(M, p, GroupTag.PSL2).active_stratum == "M0"


def test_space_like_equator_never_cuts():
    p = covector_from_pbar3(M, 0.0, 0.1, CausalType.SPACE_LIKE)
    assert math.isinf(maxwell_time(M, p))
    d = describe_cut(M, p, GroupTag.PSL2)
    assert d.active_stratum is None
    assert math.isinf(d.t_cut)


def test_light_like_cut_is_finite_for_both_groups():
    p = light_covector(M, 0.7, -1)
    t_psl2 = cut_time(M, p, GroupTag.PSL2)
    t_sl2 = cut_time(M, p, GroupTag.SL2)
    assert 0.0 < t_psl2 < t_sl2 < math.inf
    assert abs(exp_map(M, p, t_psl2).q0) < 1e-9
    assert abs(exp_map(M, p, t_sl2).q3) < 1e-9


def test_sl2_threshold_regime():
    # sl2 threshold at eta = -1.25 is 1.6
    p = covector_from_pbar3(M, 1.5, 0.0, CausalType.TIME_LIKE)
    assert cut_time(M, p, GroupTag.SL2) == first_conjugate_time(M, p)
    assert describe_cut(M, p, GroupTag.SL2).active_stratum == "M12"
    q = covector_from_pbar3(M, 2.2, 0.0, CausalType.TIME_LIKE)
    t = cut_time(M, q, GroupTag.SL2)
    assert t < first_conjugate_time(M, q)
    assert describe_cut(M, q, GroupTag.SL2).active_stratum == "M3"


_T, _S, _L = CausalType.TIME_LIKE, CausalType.SPACE_LIKE, CausalType.LIGHT_LIKE

# (eta, causal type, pbar3 (the sign for light-like), (maxwell_time,
# first_conjugate_time, PSL(2,R) cut time, stratum, SL(2,R) cut time,
# stratum)), the times as float.hex, frozen from the code before the cut
# rule moved into one function.  The poles, the equator, each group's
# threshold -c/eta (time-like at -1.25 and -1.8, space-like below 1) and
# all three causal types of both groups.
CUT_FROZEN = [
    (-1.25, _T, 1.0,
     ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p+1",
      "0x1.921fb54442d18p+1", "M12", "0x1.921fb54442d18p+1", "M12")),
    (-1.25, _T, -1.0,
     ("0x1.921fb54442d18p+1", "0x1.921fb54442d18p+1",
      "0x1.921fb54442d18p+1", "M12", "0x1.921fb54442d18p+1", "M12")),
    (-1.25, _T, 1.2,
     ("0x1.67aba6d20e485p+2", "0x1.67aba6d20e485p+2",
      "0x1.67aba6d20e485p+2", "M12", "0x1.67aba6d20e485p+2", "M12")),
    (-1.25, _T, 1.6,
     ("0x1.2a3918e287b12p+2", "0x1.2a3918e287b12p+3",
      "0x1.2a3918e287b12p+2", "M0", "0x1.2a3918e287b12p+3", "M12")),
    (-1.25, _T, 1.4,
     ("0x1.2d8f78e53cd86p+2", "0x1.e438a3c3b5eb1p+2",
      "0x1.2d8f78e53cd86p+2", "M0", "0x1.e438a3c3b5eb1p+2", "M12")),
    (-1.25, _T, -3.0,
     ("0x1.316ff7d3f0480p+2", "0x1.41db2b45a6b94p+4",
      "0x1.316ff7d3f0480p+2", "M0", "0x1.f5e5f64eb453dp+2", "M3")),
    (-1.25, _S, 0.0,
     ("inf", "inf",
      "inf", None, "inf", None)),
    (-1.25, _S, 0.5,
     ("0x1.dd0e9ed5ac318p+2", "inf",
      "0x1.dd0e9ed5ac318p+2", "M0", "0x1.a6f1aaff73b52p+3", "M3")),
    (-1.25, _S, -0.001,
     ("0x1.3a5c05afb488dp+11", "inf",
      "0x1.3a5c05afb488dp+11", "M0", "0x1.3a426c159daa2p+12", "M3")),
    (-1.25, _L, 1,
     ("0x1.362e779dd164cp+2", "inf",
      "0x1.362e779dd164cp+2", "M0", "0x1.fc12a335ab330p+2", "M3")),
    (-1.25, _L, -1,
     ("0x1.362e779dd164cp+2", "inf",
      "0x1.362e779dd164cp+2", "M0", "0x1.fc12a335ab330p+2", "M3")),
    (-1.8, _T, 1.0,
     ("0x1.c196908691da6p+1", "0x1.67aba6d20e485p+2",
      "0x1.c196908691da6p+1", "M0", "0x1.67aba6d20e485p+2", "M12")),
    (-1.8, _T, 1.1111111111111112,
     ("0x1.bc908d28ab6d7p+1", "0x1.bc908d28ab6d9p+2",
      "0x1.bc908d28ab6d7p+1", "M0", "0x1.bc908d28ab6d9p+2", "M12")),
    (-1.8, _T, -2.5,
     ("0x1.d78636e9d4ae2p+1", "0x1.41db2b45a6b94p+4",
      "0x1.d78636e9d4ae2p+1", "M0", "0x1.95c524e07977ep+2", "M3")),
    (-1.8, _S, 0.8333333333333333,
     ("0x1.1b7c343c277f5p+2", "inf",
      "0x1.1b7c343c277f5p+2", "M0", "0x1.ea4a025f18974p+2", "M3")),
    (-1.8, _S, 0.3,
     ("0x1.dbb1c6f7f9696p+2", "inf",
      "0x1.dbb1c6f7f9696p+2", "M0", "0x1.b699bab803a90p+3", "M3")),
    (-1.8, _L, 1,
     ("0x1.e128d7426419ap+1", "inf",
      "0x1.e128d7426419ap+1", "M0", "0x1.9be6ffbbfcb01p+2", "M3")),
    (-3.0, _T, -1.0,
     ("0x1.1c5831add62e4p+1", "0x1.1c5831add62e4p+3",
      "0x1.1c5831add62e4p+1", "M0", "0x1.1c5831add62e4p+2", "M3")),
    (-3.0, _T, 1.5,
     ("0x1.34463467daa68p+1", "0x1.e2212b8a13005p+3",
      "0x1.34463467daa68p+1", "M0", "0x1.22f66626d5aabp+2", "M3")),
    (-3.0, _S, 0.5,
     ("0x1.bef7608f6c495p+1", "inf",
      "0x1.bef7608f6c495p+1", "M0", "0x1.963cf4163f962p+2", "M3")),
    (-3.0, _S, 0.6666666666666666,
     ("0x1.8ff56db65c6d8p+1", "inf",
      "0x1.8ff56db65c6d8p+1", "M0", "0x1.6a6aca9610a57p+2", "M3")),
    (-3.0, _L, -1,
     ("0x1.45d520d8e8c47p+1", "inf",
      "0x1.45d520d8e8c47p+1", "M0", "0x1.2d60f08f755e7p+2", "M3")),
    (-1.001, _T, 1.2,
     ("0x1.0b2cc7642d5cbp+2", "0x1.0b2cc7642d5cbp+2",
      "0x1.0b2cc7642d5cbp+2", "M12", "0x1.0b2cc7642d5cbp+2", "M12")),
    (-1.001, _S, 0.5,
     ("0x1.22d9b4b11d3a3p+3", "inf",
      "0x1.22d9b4b11d3a3p+3", "M0", "0x1.01bceedb51a8ep+4", "M3")),
    (-10.0, _T, 4.0,
     ("0x1.19684e3ae49c3p+0", "0x1.3ce96c48a6bbdp+6",
      "0x1.19684e3ae49c3p+0", "M0", "0x1.1898e02f960bep+1", "M3")),
]


@pytest.mark.parametrize("eta, ctype, b, want", CUT_FROZEN)
def test_cut_times_are_frozen_to_the_bit(eta, ctype, b, want):
    m = metric_from_eta(eta)
    p = light_covector(m, 0.0, b) if ctype is _L else covector_from_pbar3(m, b, 0.0, ctype)
    t_max, t_conj, *per_group = want
    assert maxwell_time(m, p).hex() == t_max
    for group, t_cut, stratum in zip(GroupTag, per_group[::2], per_group[1::2]):
        assert cut_time(m, p, group).hex() == t_cut
        d = describe_cut(m, p, group)
        assert (d.t_max.hex(), d.t_conj.hex(), d.t_cut.hex()) == (t_cut, t_conj, t_cut)
        assert d.active_stratum == stratum


@pytest.mark.parametrize("eta", [-1.25, -1.8, -3.0])
def test_rotational_stratum_is_named_exactly_when_the_cap_sets_the_cut(eta):
    # at each threshold -c/eta and one ulp to either side; below 1 the
    # threshold lies on the space-like side, which has no cap
    m = metric_from_eta(eta)
    for c in (1.5, 2.0):
        top = -c / eta
        for b in (math.nextafter(top, 0.0), top, math.nextafter(top, 2.0 * top)):
            ctype = _T if b >= 1.0 else _S
            for sign in (1.0, -1.0):
                p = covector_from_pbar3(m, sign * b, 0.0, ctype)
                for group in GroupTag:
                    d = describe_cut(m, p, group)
                    capped = d.t_cut == d.t_conj < math.inf
                    assert (d.active_stratum == "M12") == capped, (c, b, group, d)
                    assert d.active_stratum is not None


@pytest.mark.parametrize("seed", range(60))
def test_cut_time_laws(seed):
    rnd = random.Random(52_000 + seed)
    m = metric_from_eta(rnd.uniform(-2.8, -1.05), rnd.uniform(0.5, 2.0))
    p = random_covector(rnd, m)
    t_psl2 = cut_time(m, p, GroupTag.PSL2)
    t_sl2 = cut_time(m, p, GroupTag.SL2)
    t_conj = first_conjugate_time(m, p)
    assert t_psl2 <= t_sl2 * (1.0 + 1e-12)
    assert t_psl2 <= t_conj * (1.0 + 1e-12)
    assert t_sl2 <= t_conj * (1.0 + 1e-12)
    d = describe_cut(m, p, GroupTag.PSL2)
    assert d.t_cut == d.t_max == t_psl2 and d.t_conj == t_conj
    assert d.active_stratum in ("M0", "M12", None)
    assert describe_cut(m, p, GroupTag.SL2).active_stratum in ("M3", "M12", None)


def _mp_cut_time(m, p, group):
    """p's cut time at 40 digits from its definition, not from the phase of
    `root_solver`: the first positive zero of q0 (PSL(2,R)) or q3 (SL(2,R))
    of the closed-form Exp, bracketed by a sign scan and refined by
    findroot, capped at the conjugate time tau = pi on the time-like cone.
    In tau = t |p| / (2 I1) (|p3| on the light cone), with theta = tau eta b,
    b = pbar3 (the sign of p3 on the cone) and (C, S) = (cos, sin) time-like,
    (cosh, sinh) space-like, (1, tau) light-like:
        q0 = C cos theta - b S sin theta,  q3 = C sin theta + b S cos theta.
    +inf at the space-like equator, where q0 = cosh tau never vanishes and
    q3 vanishes identically."""
    with mpmath.workdps(40):
        eta, i1 = mpmath.mpf(m.eta), mpmath.mpf(m.i1)
        p1, p2, p3 = map(mpmath.mpf, p.components())
        if p.ctype is CausalType.LIGHT_LIKE:
            norm, b = abs(p3), mpmath.sign(p3)
            cs = lambda tau: (1, tau)
        elif p3 == 0:
            return mpmath.inf
        else:
            norm = mpmath.sqrt(abs(p1 * p1 + p2 * p2 - p3 * p3))
            b = p3 / norm
            time_like = p.ctype is CausalType.TIME_LIKE
            cs = lambda tau: ((mpmath.cos(tau), mpmath.sin(tau)) if time_like
                              else (mpmath.cosh(tau), mpmath.sinh(tau)))

        def q(tau):
            c, s = cs(tau)
            theta = tau * eta * b
            if group is GroupTag.PSL2:
                return c * mpmath.cos(theta) - b * s * mpmath.sin(theta)
            return c * mpmath.sin(theta) + b * s * mpmath.cos(theta)

        cap = mpmath.pi if p.ctype is CausalType.TIME_LIKE else mpmath.inf
        h = mpmath.pi / (8 * (abs(eta * b) + 1))  # at most pi/8 in tau and in theta
        lo, q_lo, root = h, q(h), cap  # q3 starts at 0, and q0 at 1
        while lo < cap:
            hi = min(lo + h, cap)
            q_hi = q(hi)
            if (q_hi < 0) != (q_lo < 0):
                root = mpmath.findroot(q, (lo, hi), solver="anderson")
                break
            lo, q_lo = hi, q_hi
        return 2 * i1 * root / norm


# the worst relative gap over 3,000 such covectors (random.Random(7)) was 5.9e-16
CUT_ORACLE_TOLERANCE = 1e-15


def test_cut_time_matches_a_40_digit_oracle_from_the_closed_form_exp():
    rnd = random.Random(6_100)
    worst = 0.0
    for k in range(60):
        m = metric_from_eta(rnd.uniform(-4.0, -1.05), rnd.uniform(0.5, 2.0))
        ctype = (_T, _S, _L)[k % 3]
        phase, sign = rnd.uniform(-math.pi, math.pi), rnd.choice((1.0, -1.0))
        if ctype is _L:
            p = light_covector(m, phase, int(sign))
        elif ctype is _T:  # from the poles out past both thresholds -c/eta
            p = covector_from_pbar3(m, sign * (1.0 + 10.0 ** rnd.uniform(-3.0, 1.0)), phase, ctype)
        else:
            p = covector_from_pbar3(m, sign * 10.0 ** rnd.uniform(-1.0, 1.0), phase, ctype)
        for group in GroupTag:
            want = _mp_cut_time(m, p, group)
            worst = max(worst, float(abs(cut_time(m, p, group) - want) / want))
    assert worst <= CUT_ORACLE_TOLERANCE, worst
    m = metric_from_eta(-1.6)
    p = covector_from_pbar3(m, 0.0, 0.4, _S)
    for group in GroupTag:
        assert cut_time(m, p, group) == _mp_cut_time(m, p, group) == math.inf


# --- Maxwell coincidence: two symmetric momenta meet at t_max ------------------


def _antipodal_partner(m, p, t):
    s = SymmetryElement(angle=math.pi, flip3=True)
    return apply_symmetry_preimage(m, s, p, t)[0]


def _mirror_partner(m, p, t):
    return apply_symmetry_preimage(m, SymmetryElement.sigma2(), p, t)[0]


@pytest.mark.parametrize("seed", range(25))
def test_psl2_maxwell_coincidence(seed):
    rnd = random.Random(402 + seed)
    m = metric_from_eta(rnd.uniform(-2.5, -1.1))
    kind = rnd.choice([CausalType.TIME_LIKE, CausalType.SPACE_LIKE])
    if kind is CausalType.TIME_LIKE:
        p = covector_from_pbar3(m, rnd.uniform(1.02, 10.0), rnd.uniform(0, 6), kind)
    else:
        p = covector_from_pbar3(m, rnd.uniform(0.1, 0.95), rnd.uniform(0, 6), kind)
    t = cut_time(m, p, GroupTag.PSL2)
    q = exp_map(m, p, t)
    stratum = describe_cut(m, p, GroupTag.PSL2).active_stratum
    if stratum == "M0":
        partner = _antipodal_partner(m, p, t)
        assert abs(q.q0) < 1e-8
        assert abs(partner.p3 + p.p3) < 1e-12
        assert projective_gap(exp_map(m, partner, t), q) < 1e-9
    else:
        # rotational collapse: the whole rotated circle of momenta arrives
        assert stratum == "M12"
        assert math.hypot(q.q1, q.q2) < 1e-8
        rot = SymmetryElement.rotation(rnd.uniform(0.5, 5.0))
        partner, _ = apply_symmetry_preimage(m, rot, p, t)
        assert gap(exp_map(m, partner, t), q) < 1e-9


@pytest.mark.parametrize("seed", range(15))
def test_sl2_maxwell_coincidence(seed):
    rnd = random.Random(73 + seed)
    m = metric_from_eta(rnd.uniform(-2.5, -1.1))
    p = covector_from_pbar3(m, rnd.uniform(1.02, 10.0), rnd.uniform(0, 6),
                            CausalType.TIME_LIKE)
    t = cut_time(m, p, GroupTag.SL2)
    q = exp_map(m, p, t)
    if describe_cut(m, p, GroupTag.SL2).active_stratum == "M3":
        partner = _mirror_partner(m, p, t)
        assert abs(q.q3) < 1e-8
        assert gap(exp_map(m, partner, t), q) < 1e-9


# --- injectivity radius ---------------------------------------------------------


INJRAD_FROZEN = [
    (-2.5, 2.565099660323728),
    (-2.0, 3.141592653589793),
    (-1.8, 3.4731613586981043),
    (-1.6, 3.847649490485592),
    (-1.443, 4.1819778811861665),
    (-1.2, 2.80992589241629),
]


@pytest.mark.parametrize("eta,want", INJRAD_FROZEN)
def test_injectivity_radius_frozen_values(eta, want):
    assert abs(injectivity_radius(metric_from_eta(eta)) - want) < 1e-12


def test_injectivity_radius_scales_with_sqrt_i1():
    r1 = injectivity_radius(metric_from_eta(-1.7, 1.0))
    r9 = injectivity_radius(metric_from_eta(-1.7, 9.0))
    assert abs(r9 - 3.0 * r1) < 1e-12


def test_injectivity_radius_continuity_at_junctions():
    from hypgeo import ETA_INJ_SPLIT

    for junction in (-2.0, ETA_INJ_SPLIT):
        lo = injectivity_radius(metric_from_eta(junction - 1e-11))
        hi = injectivity_radius(metric_from_eta(junction + 1e-11))
        assert abs(lo - hi) < 1e-9


def test_injectivity_radius_is_a_lower_bound_for_cut_times():
    rnd = random.Random(2718)
    for eta in (-2.5, -1.8, -1.443, -1.2):
        m = metric_from_eta(eta)
        radius = injectivity_radius(m)
        for _ in range(40):
            p = random_covector(rnd, m)
            assert cut_time(m, p, GroupTag.PSL2) >= radius * (1.0 - 1e-9)



@pytest.mark.parametrize("i1, i3", [(1.0, math.nan), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0),
                                    (0.0, 1.0), (-1.0, 2.0), (math.inf, 1.0)])
def test_injectivity_radius_rejects_a_raw_metric_off_the_family(i1, i3):
    # (1, nan) came back NaN, (1, 0) leaked a bare ZeroDivisionError from
    # eta and (1, -2) a bare ValueError from sqrt
    with pytest.raises(DomainError, match="I1 > 0 and I3 > 0"):
        injectivity_radius(Metric(i1, i3))


def test_injectivity_radius_of_the_limit_metric_keeps_its_value():
    # I3 = inf (the sub-Riemannian limit, eta = -1): the case-3 closed form
    # at 1 + eta = 0 gives 2 pi sqrt(I1) sqrt(-0.0) = -0.0
    r = injectivity_radius(Metric(1.0, math.inf))
    assert r == 0.0 and math.copysign(1.0, r) == -1.0

# --- cut locus sampling ---------------------------------------------------------


def test_locus_strata_by_regime():
    def names(eta, group):
        return [s.stratum for s in cut_locus_sample(metric_from_eta(eta), group, 4)]

    assert names(-1.25, GroupTag.PSL2) == ["Z", "R_eta", "ConjugateCircle"]
    assert names(-1.25, GroupTag.SL2) == ["H", "T_eta", "ConjugateCircle"]
    assert names(-1.6, GroupTag.PSL2) == ["Z"]
    assert names(-1.6, GroupTag.SL2) == ["H", "T_eta", "ConjugateCircle"]
    assert names(-2.4, GroupTag.PSL2) == ["Z"]
    assert names(-2.4, GroupTag.SL2) == ["H"]


def test_sl2_symmetric_sheet_near_the_light_cone_stays_on_q3_zero():
    # the witnesses run close to the light cone, where the q3-root time is
    # small: a root good to 1e-12 absolute in tau puts |q3| near 1.7e-9
    strata = cut_locus_sample(metric_from_eta(-2.7495939198049655), GroupTag.SL2, 8)
    sheet = strata[0]
    assert sheet.stratum == "H"
    assert max(abs(pt.q3) for pt in sheet.points) <= 1e-9


def test_locus_rejects_tiny_grid():
    with pytest.raises(DomainError):
        cut_locus_sample(M, GroupTag.PSL2, 1)


@pytest.mark.parametrize("rho_max", [math.nan, math.inf, -math.inf, -1.0, 0.0, -0.0])
def test_locus_rejects_a_radius_that_is_not_finite_and_positive(rho_max):
    with pytest.raises(DomainError):
        cut_locus_sample(M, GroupTag.PSL2, 4, rho_max)


@pytest.mark.parametrize(
    "rho, target", [(0.0, -1.0), (-1.0, -1.0), (math.nan, -1.0), (math.inf, -1.0),
                    (1.0, 0.0), (1.0, 0.5), (1.0, math.nan), (1.0, -math.inf)]
)
def test_radius_level_root_rejects_bad_input(rho, target):
    with pytest.raises(DomainError):
        radius_level_root(M, rho, target)


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("eta, rho_max", [(-1e200, 1e-200), (-1e300, 1e-300)])
def test_locus_names_an_underflowing_time_like_bracket(group, eta, rho_max):
    # the lower bracket w of the time-like level root underflows to 0 here,
    # where 0.5 log(w) used to leak a bare ValueError
    with pytest.raises(DomainError, match="lower bracket underflows"):
        cut_locus_sample(metric_from_eta(eta), group, 2, rho_max)


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("rho_max", [1e160, 1e300])
def test_locus_validation_error_stays_finite_at_a_huge_radius(group, rho_max):
    # the sheet height sqrt(1 + rho^2) overflowed past rho = 1.34e154, and
    # the plane's validation_error read inf while its points stayed finite
    for eta in (-1.3, -3.0):
        for stratum in cut_locus_sample(metric_from_eta(eta), group, 4, rho_max):
            assert stratum.validation_error <= 1e-12 * rho_max


@pytest.mark.parametrize("eta, group", [(-1.3, GroupTag.PSL2), (-3.0, GroupTag.SL2)])
def test_locus_answers_at_the_float_maximum(eta, group):
    # rho_max * i overflowed to inf before the division by n, and so did
    # eta rho and k hypot(1, rho) in the space-like level root's bracket
    rho_max = 1.7e308
    for stratum in cut_locus_sample(metric_from_eta(eta), group, 4, rho_max):
        assert stratum.validation_error <= 1e-12 * rho_max
        for point in stratum.points:
            assert all(math.isfinite(x) for x in point.components())


@pytest.mark.parametrize("group", list(GroupTag))
@pytest.mark.parametrize("eta, rho_max", [(-1.3, 1e-308), (-3.0, 1e-308), (-1.3, 2.2e-308)])
def test_locus_names_rho_max_where_a_subnormal_row_has_no_witness(group, eta, rho_max):
    # the first row radius rho_max/4 is subnormal: cosh of its time-like
    # witness's level parameter overflows, and the message named an
    # infinite pbar3 instead of the input
    with pytest.raises(DomainError, match=f"rho_max {rho_max!r}"):
        cut_locus_sample(metric_from_eta(eta), group, 4, rho_max)


def test_locus_names_rho_max_where_a_row_radius_rounds_to_zero():
    with pytest.raises(DomainError, match="rho_max 5e-324: no representable witness at row radius 0.0"):
        cut_locus_sample(M, GroupTag.PSL2, 4, 5e-324)


# (ns, rho_maxes, etas, whether pbar3 and the causal type are hashed too, digest)
_LOCUS_SWEEPS = {
    # both groups, etas on both sides of both pole splits; frozen before
    # the plane rows read their lift and base angle from the row factors
    "n8": ((8,), (3.0,), (-1.05, -1.3, -1.6, -1.9, -2.5, -4.0), False,
           "8d2c15e493528ca3a307e39809bb5140b7ac3970632d569958dfd15a961bac5c"),
    # odd and even n, tiny to far radii, the sub-Riemannian end to deep in
    # the pole regime; frozen while every point still stored its own witness
    "wide": ((3, 12, 13, 16), (1e-3, 3.0, 30.0),
             (-1.001, -1.05, -1.3, -1.6, -1.9, -2.5, -4.0, -30.0), True,
             "af89913e95e920da671dfd46c519dac20dedb690aa27569e28663acb5cdc8e9b"),
}


@pytest.mark.parametrize("sweep", list(_LOCUS_SWEEPS))
def test_locus_sweep_is_pinned_bit_for_bit(sweep):
    # one SHA-256 over float.hex of every point component, witness field
    # (as `parameters` gives it, one per point), t and validation_error
    ns, rho_maxes, etas, full, want = _LOCUS_SWEEPS[sweep]
    digest = hashlib.sha256()
    for n in ns:
        for rho_max in rho_maxes:
            for group in GroupTag:
                for eta in etas:
                    for stratum in cut_locus_sample(metric_from_eta(eta), group, n, rho_max):
                        digest.update(stratum.stratum.encode())
                        for point, (p, t) in zip(stratum.points, stratum.parameters, strict=True):
                            extra = (p.pbar3,) if full else ()
                            # p[:4] is p1, p2, p3 and kil
                            for x in (*point.components(), *p[:4], p.norm, *extra, t):
                                digest.update(x.hex().encode())
                            if full:
                                digest.update(p.ctype.name.encode())
                        digest.update(stratum.validation_error.hex().encode())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("group, limit", [(GroupTag.PSL2, math.pi), (GroupTag.SL2, 2.0 * math.pi)])
@pytest.mark.parametrize("ctype", list(CausalType))
def test_cut_time_where_one_plus_eta_rounds_to_eta(group, limit, ctype):
    # from eta = -1e16 on, 1 + eta rounds to eta, the crossing bracket
    # [|target|/a, |target|/slow] is one float, and NoRootFound was raised;
    # at I1 = 1, cut_time sqrt(-eta) tends to pi (PSL2) and 2 pi (SL2)
    def scaled(eta):
        m = metric_from_eta(eta)
        if ctype is CausalType.LIGHT_LIKE:
            p = light_covector(m, 0.0)
        else:
            p = covector_from_pbar3(m, 1.5 if ctype is CausalType.TIME_LIKE else 0.5, 0.0, ctype)
        assert describe_cut(m, p, group).t_cut == cut_time(m, p, group)
        return cut_time(m, p, group) * math.sqrt(-eta)

    ref = scaled(-1e15)
    assert abs(ref - limit) <= 1e-12 * limit
    for eta in (-1e16, -1e17, -1e18, -1e300):
        assert abs(scaled(eta) - ref) <= 1e-12 * ref


# the plane strata's extremes: eta from the sub-Riemannian end to deep in
# the pole regime, radii from the conjugate end (tau -> pi) to far out
_PLANE_ETAS = (-1.001, -1.05, -1.25, -1.45, -1.5, -1.6, -2.0, -2.5, -4.0, -8.0, -30.0)
_PLANE_RHO_MAX = (1e-6, 1e-3, 0.1, 3.0, 30.0)


@pytest.mark.parametrize("group", list(GroupTag))
def test_plane_stratum_is_accurate_over_eta_and_radius(group):
    for eta in _PLANE_ETAS:
        m = metric_from_eta(eta)
        for rho_max in _PLANE_RHO_MAX:
            plane = cut_locus_sample(m, group, 4, rho_max)[0]
            assert plane.validation_error <= 1e-9, (eta, rho_max, plane.validation_error)


_SEAM_ETAS = (-1.001, -1.05, -1.25, -1.6, -2.0, -2.75, -4.0, -9.0, -30.0)


def _seam(m, group):
    light = light_covector(m, 0.0, 1)
    e = exp_map(m, light, cut_time(m, light, group))
    return math.hypot(e.q1, e.q2)


@pytest.mark.parametrize("group", list(GroupTag))
def test_radius_level_root_across_the_light_cone(group):
    # the radius at which the light-like geodesic is cut is the seam of the
    # time-like and space-like branches of the radius level curve
    target = -0.5 * math.pi if group is GroupTag.PSL2 else -math.pi
    for eta in _SEAM_ETAS:
        m = metric_from_eta(eta)
        seam = _seam(m, group)
        for scale, ctype in (
            (1.0 - 1e-6, CausalType.TIME_LIKE),
            (1.0 - 4e-16, None),
            (1.0, None),
            (1.0 + 4e-16, None),
            (1.0 + 1e-6, CausalType.SPACE_LIKE),
        ):
            rho = seam * scale
            p, _ = radius_level_root(m, rho, target)
            assert p.p2 == 0.0 and p.p1 > 0.0 and p.p3 > 0.0
            if ctype is not None:
                assert p.ctype is ctype
            w = exp_map(m, p, cut_time(m, p, group))
            assert abs(math.hypot(w.q1, w.q2) - rho) <= 1e-12 * rho, (eta, scale)
            if group is GroupTag.PSL2:
                assert abs(w.q0) <= 1e-12
            else:
                assert abs(w.q3) <= 1e-12 and w.q0 < -1.0


@pytest.mark.parametrize("group", list(GroupTag))
def test_plane_rows_next_to_the_light_cone_keep_their_radius(group):
    # a witness within 1e-9 of the light cone keeps its exact causal record,
    # so its points are not run as light-like and land on their radius
    for eta in _SEAM_ETAS:
        m = metric_from_eta(eta)
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            rho = _seam(m, group) * scale
            # n = 2: the last row's radius is rho_max * 2 / 2 = rho exactly
            plane = cut_locus_sample(m, group, 2, rho)[0]
            for point in plane.points[2:]:
                q = point.rep if group is GroupTag.PSL2 else point
                assert abs(math.hypot(q.q1, q.q2) - rho) <= 1e-12 * rho, (eta, scale)


def _seam_witnesses():
    """The plane witnesses of the rows at seam x (1 -+ 1e-9): time-like
    and space-like with |Kil| inside the LIGHT_TOLERANCE band."""
    for group in GroupTag:
        for eta in _SEAM_ETAS:
            m = metric_from_eta(eta)
            for scale in (1.0 - 1e-9, 1.0 + 1e-9):
                plane = cut_locus_sample(m, group, 2, _seam(m, group) * scale)[0]
                for p, t in plane.parameters[2:]:
                    yield m, p, t


_MOTIONS = (
    SymmetryElement(),
    SymmetryElement(angle=0.9),
    SymmetryElement(mirror=True),
    SymmetryElement(flip3=True),
    SymmetryElement(angle=1.2, mirror=True),
    SymmetryElement(angle=-0.4, flip3=True),
    SymmetryElement(angle=2.2, mirror=True, flip3=True),
)


def test_motions_carry_a_near_seam_witness_record():
    # the vertical flow and the symmetries keep Kil, so they carry the
    # exact record; re-deriving it from the components would tag these
    # witnesses light-like
    count = 0
    for m, p, t in _seam_witnesses():
        assert p.ctype is not CausalType.LIGHT_LIKE
        assert vertical_flow(m, p, 0.0) == p
        flowed = vertical_flow(m, p, t)
        assert (flowed.kil, flowed.ctype, flowed.norm, flowed.pbar3) == p[3:]
        for s in _MOTIONS:
            q, t_q = apply_symmetry_preimage(m, s, p, t)
            assert t_q == t
            assert (q.kil, q.ctype, q.norm) == (p.kil, p.ctype, p.norm)
            assert q.pbar3 == (-p.pbar3 if s.flip3 else p.pbar3)
            assert q.p3 == (-p.p3 if s.flip3 else p.p3)
        count += 1
    assert count == 2 * len(_SEAM_ETAS) * 2 * 2


def test_rebuilding_a_near_seam_witness_from_components_is_light_like():
    # the light-cone rule for caller-supplied components: they carry no
    # type, and |Kil| below LIGHT_TOLERANCE * I1 is light-like; a witness
    # keeps its exact record only as long as it is not rebuilt
    for m, p, _ in _seam_witnesses():
        assert abs(p.kil) < LIGHT_TOLERANCE * m.i1
        rebuilt = covector_from_components(m, *p.components())
        assert rebuilt.ctype is CausalType.LIGHT_LIKE
        assert rebuilt.components() == p.components()


_TINY_ETAS = (-1.001, -1.01, -1.25, -2.0, -30.0)
_TINY_RHO_MAX = (1e-6, 1e-4)


@pytest.mark.parametrize("group", list(GroupTag))
def test_plane_stratum_is_exact_at_tiny_radii(group):
    # the witness's p1 is |p| rho cosh(lambda), not |p| sqrt(b^2 - 1) from
    # a b that has rounded next to the pole
    for eta in _TINY_ETAS:
        m = metric_from_eta(eta)
        for n in (4, 8, 12, 16):
            for rho_max in _TINY_RHO_MAX:
                plane = cut_locus_sample(m, group, n, rho_max)[0]
                assert plane.validation_error <= 1e-13, (eta, n, rho_max)


@pytest.mark.parametrize("group", list(GroupTag))
def test_radius_level_root_time_is_the_cut_time(group):
    target = -0.5 * math.pi if group is GroupTag.PSL2 else -math.pi
    radii = {0.1, 1.0, 3.0, 30.0}
    for n in (4, 8, 12, 16):
        for rho_max in _TINY_RHO_MAX:
            radii.update(rho_max * i / n for i in range(1, n + 1))
    for eta in _TINY_ETAS:
        m = metric_from_eta(eta)
        for rho in sorted(radii):
            p, t = radius_level_root(m, rho, target)
            want = cut_time(m, p, group)
            assert abs(t - want) <= 1e-11 * want, (eta, rho, t, want)


def test_cut_locus_makes_no_maxwell_root_calls(monkeypatch):
    # each plane row's cut time comes with its level-curve root, and the
    # axis strata are cut at tau = pi
    import hypgeo.optimality as optimality

    calls = []
    real = optimality.crossing_time
    monkeypatch.setattr(
        optimality, "crossing_time",
        lambda m, p, target: calls.append(p) or real(m, p, target),
    )
    assert cut_time(M, covector_from_pbar3(M, 2.0, 0.0, CausalType.TIME_LIKE), GroupTag.SL2)
    assert len(calls) == 1  # the counter sees the cut rule's crossing solves
    calls.clear()
    # eta -1.25: both groups have axis strata; -1.8: SL(2,R) only; -4: neither
    counts = {len(cut_locus_sample(metric_from_eta(eta), group, 6))
              for group in GroupTag for eta in (-1.25, -1.8, -4.0)}
    assert counts == {1, 3}
    assert calls == []


@pytest.mark.parametrize("group", list(GroupTag))
def test_plane_stratum_extent_and_witnesses(group):
    n = 5
    strata = cut_locus_sample(M, group, n, rho_max=2.0)
    plane = strata[0]
    assert len(plane.points) == n * n
    assert plane.validation_error < 1e-8
    # every emitted point is genuinely reached at its witness's cut time
    for pt, (p, t) in list(zip(plane.points, plane.parameters))[:: n + 1]:
        assert abs(t - cut_time(M, p, group)) < 1e-9 * t
        got = exp_map(M, p, t)
        if group is GroupTag.PSL2:
            assert projective_gap(got, pt.rep) < 1e-9
            assert abs(pt.rep.q0) < 1e-8
        else:
            assert gap(got, pt) < 1e-9
            assert abs(pt.q3) < 1e-8
            assert pt.q0 <= -1.0 + 1e-12


def test_rotation_stratum_angles_fill_the_band():
    strata = cut_locus_sample(M, GroupTag.PSL2, 8)
    reta = strata[1]
    assert reta.stratum == "R_eta"
    phi_left = -2.0 * math.pi * (1.0 + M.eta)
    for pt in reta.points:
        q = pt.rep
        assert math.hypot(q.q1, q.q2) < 1e-10
        phi = 2.0 * math.atan2(q.q3, q.q0)
        assert phi_left < phi <= math.pi + 1e-12
    assert reta.validation_error < 1e-9


def test_rotation_stratum_endpoint_lies_on_the_upper_sheet():
    # at phi = pi the point k lies on q0 = 0, where the usual
    # representative would take its sign from the rounding of q0
    reta = cut_locus_sample(metric_from_eta(-1.0826695491949396), GroupTag.PSL2, 8)[1]
    assert reta.points[-1].rep.q3 > 0.0
    assert reta.validation_error < 1e-9
    rnd = random.Random(2024)
    for _ in range(200):
        m = metric_from_eta(rnd.uniform(-1.5, -1.0))
        for n in (8, 12, 16):
            reta = cut_locus_sample(m, GroupTag.PSL2, n, 0.5)[1]
            assert reta.validation_error < 1e-9, (m.eta, n, reta.validation_error)


def _q0_rule(q):
    """Psl2Element's representative: q0 > 0, or q0 == 0 and q3 > 0."""
    return q.q0 > 0.0 or (q.q0 == 0.0 and q.q3 > 0.0)


def test_psl2_strata_are_lifted_as_documented():
    # Z, where q0 is rounding noise, takes the lift q3 > 0; so does R_eta,
    # whose last point lies on Z; the rest of R_eta and the conjugate
    # circle keep the record's q0 rule
    z = cut_locus_sample(M, GroupTag.PSL2, 6)[0]
    assert sum(q.rep.q0 < 0.0 for q in z.points) == 18
    assert all(q.rep.q3 > 0.0 for q in z.points)
    rnd = random.Random(2106)
    for eta in [-1.25, -1.4706074418967543] + [rnd.uniform(-1.5, -1.0) for _ in range(100)]:
        m = metric_from_eta(eta)
        for n in (2, 3, 8, 12):
            z, reta, circle = cut_locus_sample(m, GroupTag.PSL2, n, 0.5)
            assert all(q.rep.q3 > 0.0 for q in z.points + reta.points), (eta, n)
            assert all(_q0_rule(q.rep) for q in reta.points[:-1] + circle.points), (eta, n)


# per group: axis stratum name, pole side of its witnesses, pbar3 threshold -c/eta;
# test_axis_stratum_parameters runs the same checks on both groups
AXIS_DATA = {
    GroupTag.PSL2: ("R_eta", -1.0, ETA_POLE_SPLIT_PSL2 / M.eta),
    GroupTag.SL2: ("T_eta", 1.0, ETA_POLE_SPLIT_SL2 / M.eta),
}


def test_axis_stratum_parameters():
    for group, (name, pole, top) in AXIS_DATA.items():
        axis, circle = cut_locus_sample(M, group, 8)[1:]
        assert (axis.stratum, circle.stratum) == (name, "ConjugateCircle")
        # PSL(2,R) points are classes {q, -q}
        close = projective_gap if group is GroupTag.PSL2 else gap
        for sample in (axis, circle):
            for q, (p, t) in zip(sample.points, sample.parameters):
                s = pole * p.pbar3
                if sample is axis:
                    assert 1.0 < s <= top * (1.0 + 1e-12)
                else:
                    assert abs(abs(s) - 1.0) < 1e-12
                # witnesses are cut exactly at tau = pi, on the axis law
                assert abs(t - first_conjugate_time(M, p)) < 1e-12 * t
                turn = math.pi * M.eta * p.pbar3
                ideal = SplitQuaternion(-math.cos(turn), 0.0, 0.0, -math.sin(turn))
                assert close(q, ideal) < 1e-12, (group, sample.stratum, p.pbar3)
        assert [pole * p.pbar3 for p, _ in circle.parameters] == [1.0, -1.0]


# (eta, group, n) of `locus` benchmark ops (seeds 1-3) whose last T_eta witness,
# 1 + (-2/eta - 1) n/n, rounded one ulp past -2/eta
ROUNDED_PAST_TOP = [
    (-1.0551838136718699, GroupTag.SL2, 12), (-1.1249917749915324, GroupTag.SL2, 12),
    (-1.1424323548418465, GroupTag.SL2, 12), (-1.0909986943214238, GroupTag.SL2, 12),
]


def test_axis_witnesses_are_cut_at_their_conjugate_time():
    # no witness lies past the threshold -c/eta, so every axis witness is
    # capped (M12) and its point is emitted at its own cut time; the sweep
    # holds n = 3k, where the unclamped SL(2,R) witness rounds past -2/eta
    rnd = random.Random(2105)
    splits = {GroupTag.PSL2: ETA_POLE_SPLIT_PSL2, GroupTag.SL2: ETA_POLE_SPLIT_SL2}
    cases = ROUNDED_PAST_TOP + [
        (rnd.uniform(split, -1.0), group, rnd.choice((3, 6, 8, 12)))
        for group, split in splits.items() for _ in range(150)
    ]
    for eta, group, n in cases:
        m = metric_from_eta(eta)
        axis = cut_locus_sample(m, group, n)[1]
        assert abs(axis.parameters[-1][0].pbar3) <= splits[group] / eta
        for p, t in axis.parameters:
            d = describe_cut(m, p, group)
            assert (d.active_stratum, d.t_cut) == ("M12", t), (eta, group, n, p.pbar3)


def test_conjugate_circles_have_two_points():
    for group in GroupTag:
        circle = cut_locus_sample(M, group, 4)[2]
        assert circle.stratum == "ConjugateCircle"
        assert len(circle.points) == 2
        assert circle.validation_error < 1e-9


# --- wavefront -------------------------------------------------------------------


def test_wavefront_grid_shape_and_flags():
    # injectivity radius here is pi, so 3.5 splits the front in two
    t = 3.5
    n = 10
    front = wavefront_sample(M, t, n, GroupTag.PSL2)
    assert len(front) == n * n
    for w in front:
        want = t < cut_time(M, w.covector, GroupTag.PSL2)
        assert w.optimal == want
        assert gap(w.point, exp_map(M, w.covector, t)) == 0.0
    # both optimal and non-optimal points appear at this time
    flags = {w.optimal for w in front}
    assert flags == {True, False}


def flag_covectors(rnd, m):
    """Seeded covectors of all three causal types: time-like with |pbar3|
    from 1 (the poles) to 100, light-like, and space-like from pbar3 = 0
    (the equator) through 1e-16 .. 3e-13 (around its tolerance) to 10."""
    out = [covector_from_pbar3(m, s, rnd.uniform(0.0, 6.3), CausalType.TIME_LIKE)
           for s in (1.0, -1.0)]
    out += [covector_from_pbar3(m, rnd.choice((1, -1)) * (1.0 + 10.0 ** rnd.uniform(-8, 2)),
                                rnd.uniform(0.0, 6.3), CausalType.TIME_LIKE) for _ in range(4)]
    out += [light_covector(m, rnd.uniform(0.0, 6.3), s) for s in (1, -1)]
    out += [covector_from_pbar3(m, b, rnd.uniform(0.0, 6.3), CausalType.SPACE_LIKE)
            for b in (0.0, 1e-16, -1e-15, 1e-13, -3e-13)]
    out += [covector_from_pbar3(m, rnd.choice((1, -1)) * 10.0 ** rnd.uniform(-3, 1),
                                rnd.uniform(0.0, 6.3), CausalType.SPACE_LIKE) for _ in range(4)]
    return out


@pytest.mark.parametrize("seed", range(30))
def test_optimality_flag_is_t_below_the_cut_time(seed):
    # one phase comparison gives the flag; outside the root's rounding it
    # is t < cut_time, and at the conjugate time the cap makes it false
    rnd = random.Random(16_000 + seed)
    m = metric_from_eta(-1.0 - 10.0 ** rnd.uniform(-3.0, math.log10(29.0)))
    for p in flag_covectors(rnd, m):
        for group in GroupTag:
            tc = cut_time(m, p, group)
            if math.isinf(tc):
                times = [10.0 ** rnd.uniform(-3, 3) for _ in range(3)]
            else:
                times = [tc * (1.0 - 1e-12), tc * (1.0 + 1e-12), tc * rnd.uniform(0.01, 3.0)]
            times.append(first_conjugate_time(m, p))
            for t in filter(math.isfinite, times):
                assert _minimizing(m, p, t, _GROUPS[group]) == (t < tc), (m.eta, p, group, t, tc)


@pytest.mark.parametrize("eta,n", [(-4.0 / 3.0, 9), (-1.001, 8), (-1.25, 16), (-30.0, 11)])
def test_wavefront_flags_are_t_below_each_rows_cut_time(eta, n):
    # rows with the light-like u = +-1/2 at eta = -4/3, the poles and, at
    # odd n, the equator; each row's flag just below and above its cut time
    m = metric_from_eta(eta)
    for group in GroupTag:
        front = wavefront_sample(m, 1.0, n, group)
        for i in range(n):
            row = front[i * n:(i + 1) * n]
            tc = cut_time(m, row[0].covector, group)
            if math.isinf(tc):
                assert all(w.optimal for w in row)
                continue
            for t in (tc * (1.0 - 1e-12), tc * (1.0 + 1e-12)):
                flags = {w.optimal for w in wavefront_sample(m, t, n, group)[i * n:(i + 1) * n]}
                assert flags == {t < tc}, (eta, group, i, t, tc)


def test_wavefront_validates_arguments():
    with pytest.raises(DomainError):
        wavefront_sample(M, 0.0, 16)
    with pytest.raises(DomainError):
        wavefront_sample(M, 1.0, 4)
    # a time that is not finite is refused before any row is built
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="wavefront time"):
            wavefront_sample(M, t, 8)
    # range() used to leak a bare TypeError for a count that is not an integer
    for n in (8.5, 8.0, math.nan):
        with pytest.raises(DomainError, match="integer"):
            wavefront_sample(M, 3.3, n)
        with pytest.raises(DomainError, match="integer"):
            cut_locus_sample(M, GroupTag.PSL2, n)


_GROUP_CALLS = {
    "cut_time": lambda g: cut_time(M, covector_from_pbar3(M, 2.0, 0.1, CausalType.TIME_LIKE), g),
    "describe_cut": lambda g: describe_cut(M, light_covector(M, 0.3), g),
    "cut_locus_sample": lambda g: cut_locus_sample(M, g, 4),
    "wavefront_sample": lambda g: wavefront_sample(M, 1.0, 8, g),
}


@pytest.mark.parametrize("group", ["psl2", None, 2, CausalType.TIME_LIKE, []],
                         ids=["str", "None", "int", "CausalType", "list"])
@pytest.mark.parametrize("call", _GROUP_CALLS)
def test_a_group_that_is_not_a_group_tag_is_a_domain_error(call, group):
    # a bare KeyError (TypeError for a list) used to escape the group lookup
    with pytest.raises(DomainError, match="GroupTag"):
        _GROUP_CALLS[call](group)


# --- the grids pause the cyclic collector ------------------------------------


def _collections_during(call):
    """(call(), the number of cyclic collections that start while it runs),
    counted from an empty young generation, so the count repeats exactly."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        out = call()
    finally:
        gc.callbacks.remove(count)
    return out, len(starts)


def test_grids_run_no_collection():
    # unpaused, the 4,096-point wavefront alone allocates about 12,000 tracked
    # records, 17 times the young generation's threshold of 700
    m = metric_from_eta(-1.4)
    points, collections = _collections_during(lambda: wavefront_sample(m, 3.3, 64))
    assert len(points) == 64 * 64 and collections == 0
    strata, collections = _collections_during(lambda: cut_locus_sample(m, GroupTag.PSL2, 32))
    assert [len(s.points) for s in strata] == [32 * 32, 32, 2] and collections == 0


def test_locus_parameters_run_no_collection():
    # reading parameters builds the n^2 turned (Covector, t) pairs, about
    # 2,000 tracked records here, that the sample used to build paused
    plane = cut_locus_sample(metric_from_eta(-1.4), GroupTag.PSL2, 32)[0]
    pairs, collections = _collections_during(lambda: plane.parameters)
    assert len(pairs) == 32 * 32 and collections == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_grids_restore_the_callers_collector_state(enabled):
    m = metric_from_eta(-1.4)
    calls = [
        lambda: wavefront_sample(m, 3.3, 16),
        lambda: cut_locus_sample(m, GroupTag.SL2, 8),
    ]
    # DomainErrors raised inside the paused build: cosh overflows on a
    # space-like row, and the limit metric's conjugate circle sits at its poles
    failing = [
        lambda: wavefront_sample(m, 1e300, 8),
        lambda: cut_locus_sample(Metric(1.0, math.inf), GroupTag.PSL2, 8),
    ]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for call in calls:
            call()
            assert gc.isenabled() is enabled
        for call in failing:
            with pytest.raises(DomainError):
                call()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# --- riemannian logarithm ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_log_inverts_exp_inside_cut_domain(seed):
    rnd = random.Random(640_000 + seed)
    m = metric_from_eta(rnd.uniform(-2.6, -1.1))
    p = random_covector(rnd, m)
    # near the space-like equator the cut time grows without bound while
    # the endpoint leaves the representable range; cap the metric ball
    # (light-like endpoints only grow linearly, no cap needed there)
    cap = cut_time(m, p, GroupTag.PSL2)
    if p.ctype is not CausalType.LIGHT_LIKE:
        cap = min(cap, 16.0 * m.i1 / p.norm)
    t = rnd.uniform(0.05, 0.93) * cap
    got_p, got_t = riemannian_log(m, exp_map(m, p, t))
    assert abs(got_t - t) < 1e-9 * max(1.0, t)
    assert max(abs(a - b) for a, b in zip(got_p.components(), p.components())) < 1e-8


def test_log_of_identity_raises():
    with pytest.raises(IdentityTarget):
        riemannian_log(M, SplitQuaternion(1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "components",
    [
        (math.nan, 0.0, 0.0, 0.0),
        (math.inf, 0.0, 0.0, 0.0),
        (1.0, math.inf, math.inf, 1.0),
        (1.2, 0.3, 0.0, 0.0),        # pseudo norm 1.35
        (1.0, 0.0, 0.0, 1e-3),       # 1 + 1e-6, on no sheet of the group
        (0.0, 1.0, 0.0, 0.0),        # q0 = q3 = 0
        (1e200, 1e200, 0.0, 0.0),    # the squares overflow
    ],
)
def test_log_rejects_targets_off_the_group(components):
    with pytest.raises(DomainError):
        riemannian_log(M, SplitQuaternion(*components))


# Exp(p, 20) for eta = -1.25 and the space-like pbar3 0.05 at phase 0.4
_FAR_EXP_TARGET = (9116.134930384735, 5644.598382481931, 9273.649504729208, -5895.604376745552)


def test_log_accepts_far_targets_within_their_rounding():
    # |q|_inf = 9.3e3 misses the unit pseudo norm by 8.2e-8 in rounding:
    # inside the relative band 1e-8 |q|^2, so the exact time comes back.
    # q is frozen: Exp of p's exact record misses by only 2.98e-8, which
    # would not test the band
    m = metric_from_eta(-1.25)
    p = covector_from_pbar3(m, 0.05, 0.4, CausalType.SPACE_LIKE)
    q = SplitQuaternion(*_FAR_EXP_TARGET)
    assert 5e-8 < q.pseudo_norm() - 1.0 < 1e-7
    got_p, got_t = riemannian_log(m, q)
    assert abs(got_t - 20.0) <= 1e-12
    assert max(abs(a - b) for a, b in zip(got_p.components(), p.components())) < 1e-12


# a far space-like target on the group (the `log` workload's seed 2, op 341)
# where a Newton trial step reaches a time at which cosh tau overflows
_FAR_LOG_ETA = -1.4347758888779447
_FAR_LOG_TARGET = (107203458684.24858, -152655396560.0727, 59555350881.29433,
                   123927109074.81767)


def test_log_counts_an_overflowing_trial_as_a_failed_step():
    m = metric_from_eta(_FAR_LOG_ETA)
    q = SplitQuaternion(*_FAR_LOG_TARGET)
    try:
        p, t = riemannian_log(m, q)
    except NoConvergence as exc:
        assert math.isfinite(exc.best_residual)
        return
    # the documented gap, 1e-9 max(1, |q|_inf): one ulp of q is 3e-5 here
    size = max(map(abs, _FAR_LOG_TARGET))
    assert gap(psl2_canonicalize(exp_map(m, p, t)).rep, psl2_canonicalize(q).rep) <= 1e-9 * size


def test_log_seed_scan_runs_one_orbit_pass_per_momentum(monkeypatch):
    # the 49 x 24 scan runs one cut time and one 24-time column pass per
    # momentum x >= 0: the twin -x of each x > 0 reads x's column against
    # the target's (q0, -q3), and the equator x = 0 is its own twin.
    # orbit_factors runs only in the Newton iteration after the scan
    m = metric_from_eta(_FAR_LOG_ETA)
    x_cap = math.sqrt(m.i3) * (1.0 - 1e-12)
    scanned = [x_cap * f for f in optimality._SCAN_X]
    events, seeded = [], []

    def counted_cut(m, p, run=optimality.cut_time):
        events.append(("cut", p.p3))
        return run(m, p)

    def counted_pass(m, p, times, out, run=optimality.orbit_pass):
        events.append(("pass", p.p3, len(times)))
        return run(m, p, times, out)

    def counted_factors(m, p, t, run=optimality.orbit_factors):
        events.append(("factors",))
        return run(m, p, t)

    def recorded_nsmallest(n, seeds, key, run=heapq.nsmallest):
        seeded.extend(x for _, x, _ in seeds)
        return run(n, seeds, key=key)

    monkeypatch.setattr(optimality, "cut_time", counted_cut)
    monkeypatch.setattr(optimality, "orbit_pass", counted_pass)
    monkeypatch.setattr(optimality, "orbit_factors", counted_factors)
    monkeypatch.setattr(heapq, "nsmallest", recorded_nsmallest)
    riemannian_log(m, SplitQuaternion(*_FAR_LOG_TARGET))
    momenta = set(seeded)
    assert {-x for x in momenta} == momenta and len(momenta) == 49
    assert seeded.count(0.0) == 24 and len(seeded) == 49 * 24
    assert scanned[0] == 0.0 and all(x > 0.0 for x in scanned[1:])
    scan = [event for x in scanned for event in (("cut", x), ("pass", x, 24))]
    assert len(scan) == 50 and events[:50] == scan
    after = [kind for kind, *_ in events[50:]]
    assert after[0] == "factors" and "pass" not in after
    assert after.count("factors") < 49 * 24


# (seed, op, eta, t, target) of far space-like `log` workload ops: those of
# seeds 1-3 (|q|_inf from 1.5e3 to 2.6e11) that an absolute 1e-12 Newton
# stop and 1e-9 final check failed (Exp's rounding at that size is larger),
# and one of seed 7
_FAR_LOG_OPS = [
    (1, 8, -1.3462513869279462, 28.887311567108128,
     (892891.9574688647, 875728.5249680728, -326960.81723044027, -276672.69062047504)),
    (1, 29, -2.307990804596878, 39.88300704949524,
     (51421037.628549434, -210712957.35780343, -76832007.28567477, 218309378.24844074)),
    (1, 77, -2.585756981037986, 28.299984913611766,
     (422907.34907399165, -685008.5227377599, 86874.12204590565, 545832.5415407403)),
    (1, 104, -1.5710239551348144, 38.07098251778011,
     (76280148.95706221, -91871051.14492004, 2564975.779246849, 51266051.28453953)),
    (1, 108, -1.201634896276364, 44.99026640734701,
     (2579248705.316516, -1602793827.2037036, -2449443759.427315, 1384268362.4365587)),
    (1, 127, -1.8931588620093571, 34.578447046393414,
     (15232609.516546883, -16029723.913386967, 1508178.9419159146, -5214811.5763328355)),
    (1, 241, -1.689792690187284, 50.68140188663152,
     (44165082224.25963, 22790891207.13552, -45023149784.32777, -24412174230.123104)),
    (1, 288, -1.3037026723620118, 41.563517989167195,
     (257577235.4500328, -497550491.0747146, -147664516.80837923, -450572156.7860803)),
    (1, 336, -1.402262033455676, 54.173937358018605,
     (183110629017.62286, 125098800898.81126, -258497333515.24017, -221226307119.1584)),
    (1, 389, -2.7812390962451845, 47.83583414698908,
     (6642195014.170808, 6649009508.166375, 10121235641.20765, -10125709048.667324)),
    (1, 405, -1.641244104790878, 32.176251968285726,
     (1782287.4052184783, 3096914.72385743, -3562339.4228290706, 4370880.297547358)),
    (2, 2, -2.9729225270235395, 29.162231813079195,
     (159984.7526401831, -1044378.2668792282, 107627.33613634978, -1037648.5371922067)),
    (2, 32, -1.4390352417518102, 35.33034382441685,
     (14696414.617160078, -16125569.807781987, -16564398.098787304, -17844570.137755714)),
    (2, 80, -1.937055004144116, 33.455227682390586,
     (8723415.745683992, -5997903.949443094, -6953545.503545969, 2868564.899838086)),
    (2, 116, -3.7205187294550672, 35.54965436538216,
     (13239464.542385688, -12086471.162319507, -23014783.90522061, 22371402.32512249)),
    (2, 135, -3.1882095007204367, 30.60965994274814,
     (1816211.4685734983, -1742829.7785304766, 1356564.6438918984, -1256622.1275360542)),
    (2, 208, -3.320854619704344, 48.245139093481086,
     (1602403401.883951, 5469512854.734529, -13720645315.615187, -14683459472.57151)),
    (2, 210, -2.361505538324385, 39.15252673540284,
     (40230121.96898514, 91965871.027622, -125773401.23490047, 150526433.48736143)),
    (2, 253, -1.0658928443920945, 34.4615790348586,
     (1998517.4053679863, -9025617.37186666, -11143574.608443653, -14200244.79288063)),
    (2, 282, -1.7543589035781488, 16.147605938180877,
     (328.05304578010816, -931.2622455815986, -1171.8745027857904, 1460.4524708046883)),
    (2, 299, -1.6074508457754202, 36.94776315377777,
     (44093201.16102098, 51527312.237570025, 9700743.591162262, -28371780.769335736)),
    (2, 341, -1.4347758888779447, 53.05071799401598,
     (107203458684.24858, -152655396560.0727, 59555350881.29433, 123927109074.81767)),
    (2, 342, -2.8457269050230996, 46.712614782986634,
     (3945646268.6191106, -6457188571.702471, -2457167817.948788, 5671404892.883269)),
    (2, 351, -2.260469213605417, 42.63889863306267,
     (746206264.5347347, -668237883.4979252, -609028083.3777294, -510522561.74791604)),
    (2, 387, -1.2294968666896797, 43.86704704334419,
     (1482466586.0124283, -1496423205.3395543, 740920324.7315085, -768464806.2439852)),
    (2, 427, -2.0236356650171663, 41.02147930370174,
     (237934957.37979752, -386093408.5917679, -104333373.89968683, 321466217.7025381)),
    (3, 20, -1.8844118491745991, 42.79502877451493,
     (510943906.40999913, -67499128.82224415, -966147156.5931946, 822759250.9886272)),
    (3, 210, -1.6100220459456185, 51.33173199344228,
     (60217151448.796875, 7046499650.827528, -69466264055.71434, -35342745657.06522)),
    (3, 242, -2.649944153506999, 48.48616425379983,
     (8448810561.741938, 16739747601.291681, 409286485.69248754, 14456979811.638357)),
    (3, 248, -2.2708062345453928, 39.30249330312785,
     (143381211.86373708, 83953422.34176823, 148418758.29279777, -92293732.29292105)),
    (3, 256, -3.726469890210974, 54.17729973308473,
     (143655639078.63028, 152831052488.09433, -245380353447.70502, -250862324440.41806)),
    (3, 264, -1.8037878385984687, 35.22877715320378,
     (20940458.010448176, 19211086.008194145, -11287058.336893475, -7613194.456161429)),
    (3, 293, -3.46455130242114, 35.647885790351836,
     (12785204.225248713, 22431871.452336803, -15499555.455728287, -24082434.03599483)),
    (3, 343, -2.1990366622008013, 38.95437926543259,
     (29923569.18002669, -140161340.22287452, -12131323.889864495, 137466178.8219973)),
    (3, 369, -1.3796698677028243, 42.14806104277068,
     (678554262.8208398, -276163872.3095224, 652986809.0039973, -205480825.16351637)),
    (3, 385, -2.768388862406083, 28.953266252638574,
     (99518.07643947541, 439540.80150590045, -833420.2346982132, -936953.3372882883)),
    (3, 400, -1.1960829502292638, 51.0771967119405,
     (10876580978.79922, -59461903682.445366, 5489132089.201445, -58715828758.902245)),
    (3, 433, -1.56376531087889, 31.50816653468478,
     (1220570.9041063138, -1452295.0133339027, -3041044.5726190754, -3141228.9898160174)),
    # near the equator (pbar3 0.034): the seeds off its branch all led
    # Newton past their cut times until the scan got its equator column
    (7, 416, -1.070141719925123, 52.92393745978914,
     (92552194585.95049, 152932206974.97745, 1311252541.1821074, -121754139932.85178)),
]


@pytest.mark.parametrize(
    "eta, t, target", [op[2:] for op in _FAR_LOG_OPS],
    ids=[f"seed{seed}-op{op}" for seed, op, *_ in _FAR_LOG_OPS],
)
def test_log_inverts_far_space_like_targets_to_their_size(eta, t, target):
    m = metric_from_eta(eta)
    q = SplitQuaternion(*target)
    got_p, got_t = riemannian_log(m, q)
    assert abs(got_t - t) <= 1e-12 * t
    size = max(1.0, *map(abs, target))
    assert projective_gap(exp_map(m, got_p, got_t), q) <= 1e-9 * size


_NEAR_EQUATOR_PBAR3 = (0.0, *(s * 10.0 ** -k for k in (12, 10, 8, 6, 4, 2) for s in (1.0, -1.0)))


def test_log_inverts_equatorial_and_near_equatorial_space_like_targets():
    # the equator pbar3 = 0 never cuts, so its seed column runs to the
    # search's time cap and long geodesics near it get a seed on their
    # branch; eta -1.05, pbar3 0, t 40 is the first case
    rnd = random.Random(1_930_000)
    cases = [(-1.05, 0.0, 0.0, 40.0)]
    for _ in range(200):
        cases.append((rnd.uniform(-4.0, -1.01), rnd.choice(_NEAR_EQUATOR_PBAR3),
                      rnd.uniform(0.0, 2.0 * math.pi), rnd.uniform(1.0, 60.0)))
    for eta, pbar3, phase, t in cases:
        m = metric_from_eta(eta)
        p = covector_from_pbar3(m, pbar3, phase, CausalType.SPACE_LIKE)
        t = min(t, 0.999 * cut_time(m, p))
        _, got_t = riemannian_log(m, exp_map(m, p, t))
        assert abs(got_t - t) <= 1e-9 * t, (eta, pbar3, t)


def test_log_on_reflection_plane_raises():
    p = covector_from_pbar3(M, 7.0, 0.4, CausalType.TIME_LIKE)
    t = cut_time(M, p, GroupTag.PSL2)
    target = exp_map(M, p, t)
    assert abs(target.q0) < 1e-9
    with pytest.raises(OnCutLocus):
        riemannian_log(M, target)


def test_log_of_axis_rotations():
    # below the cut band the pole geodesic is recovered in closed form
    band = -2.0 * math.pi * (1.0 + M.eta)
    phi = 0.45 * band
    target = SplitQuaternion(math.cos(phi / 2), 0.0, 0.0, math.sin(phi / 2))
    p, t = riemannian_log(M, target)
    assert gap(exp_map(M, p, t), target) < 1e-10
    # inside the band the rotation is a cut point
    phi_cut = 1.01 * band
    on_cut = SplitQuaternion(math.cos(phi_cut / 2), 0.0, 0.0, math.sin(phi_cut / 2))
    with pytest.raises(OnCutLocus):
        riemannian_log(M, on_cut)


def test_log_returns_minimizer_for_past_cut_targets():
    # a target generated past the cut time must come back with a shorter arc
    p = covector_from_pbar3(M, 7.0, 0.4, CausalType.TIME_LIKE)
    t_cut = cut_time(M, p, GroupTag.PSL2)
    t_past = 1.06 * t_cut
    target = exp_map(M, p, t_past)
    got_p, got_t = riemannian_log(M, target)
    assert got_t < t_past
    assert projective_gap(exp_map(M, got_p, got_t), target) < 1e-8
    assert got_t <= cut_time(M, got_p, GroupTag.PSL2) * (1.0 + 1e-9)


def test_log_accepts_canonicalized_elements():
    p = covector_from_pbar3(M, 2.0, 1.0, CausalType.TIME_LIKE)
    q = exp_map(M, p, 0.9)
    for target in (q, -q, psl2_canonicalize(q)):
        got_p, got_t = riemannian_log(M, target)
        assert abs(got_t - 0.9) < 1e-9


# (eta, target, float.hex of p1, p2, p3 and t) of riemannian_log, frozen:
# the tolerance tests above pass for a search that drifts in the last bit,
# these do not.  Time-, space- and light-like, near and far, the target
# whose Newton trials overflow cosh tau, and one generated past its cut time
_FROZEN_LOGS = [
    # time-like near
    (-1.25, (1.094254004377774, 0.07767235455438296, 0.537047401721832, -0.3115462730661355),
     ('0x1.7fb74f2ad72d1p-1', '0x1.44771015fe1e2p-2', '0x1.29a28f58bbc48p+0', '0x1.69df5ddfe0387p+0')),
    # time-like near its cut time
    (-1.8, (0.1560326872350022, -0.29801409872520257, -1.152978749066011, -1.5471994698005305),
     ('-0x1.30f99b213cacap-2', '0x1.4d30f87d5eba2p-1', '0x1.8fce095e0c825p-1', '0x1.bff2b42af075ep+1')),
    # time-like near the pole
    (-1.1, (0.9899485898957733, 0.1287643266916215, 0.14128655795236614, -0.23778968154599184),
     ('0x1.333d8bacdc97dp-3', '-0x1.03a85f701955ep-1', '0x1.578807dfa0f59p+1', '0x1.6ec9aa0e1bf3cp+0')),
    # time-like past its cut time
    (-1.25, (-0.34472940389479967, -2.221038049525576, -0.32560342074414644, -2.433143901032366),
     ('-0x1.920bd1dc03ee3p-1', '0x1.c98e77d5aeb87p-2', '-0x1.b6ec5435b5876p-1', '0x1.2813893810d1bp+2')),
    # time-like, flat metric
    (-3.5, (0.3542742552991486, -0.3654170756952035, 0.27157474813999355, 1.0400828020254775),
     ('-0x1.011ca713d2b15p-2', '-0x1.c916a00146001p-2', '-0x1.16203534757d4p-1', '0x1.c923f8f59ed14p+0')),
    # space-like near
    (-1.25, (1.0305338670741933, 0.09309299108054796, 0.23178657246106202, -0.019780520081104966),
     ('0x1.cbc2ec9b6dfb2p-2', '0x1.c3a90c8d46cb7p-1', '0x1.2340e7826878ep-2', '0x1.0000000000007p-1')),
    # space-like, negative pbar3
    (-2.2, (0.8331890120127963, -0.2553105280970994, 0.6984849472185759, 0.9267474076086196),
     ('-0x1.6f9d687f8dcfbp-1', '-0x1.d5cc9f480f91fp-4', '-0x1.40e096898055bp-1', '0x1.fffffffffffeep+0')),
    # space-like far
    (-1.25, (9116.134930384735, 5644.598382481931, 9273.649504729208, -5895.604376745552),
     ('0x1.d76fb10dc2a88p-1', '0x1.8ea3e00d2c2fbp-2', '0x1.98f6249bd3a28p-5', '0x1.4000000000000p+4')),
    # space-like far, overflowing trials
    (-1.4347758888779447, (107203458684.24858, -152655396560.0727, 59555350881.29433, 123927109074.81767),
     ('-0x1.bf174194e4ccdp-1', '-0x1.f2c4f86953023p-2', '-0x1.7b2ce060e3e01p-6', '0x1.a867ded5ecf5ap+5')),
    # space-like far, eta -2.78
    (-2.7812390962451845, (6642195014.170808, 6649009508.166375, 10121235641.20765, -10125709048.667324),
     ('0x1.ffd4ff7fdef1cp-1', '-0x1.02a3ae79cbf0ep-6', '0x1.ef3a7ed3f0d9cp-7', '0x1.7eafc9d03195dp+5')),
    # light-like near
    (-1.4, (1.034496970358002, 0.04615447254827644, 0.2921810477491488, -0.13159034280719484),
     ('0x1.d3991ea1c3debp-2', '0x1.6c1ed6c9c6e71p-1', '0x1.b0b80ef8bb2cep-1', '0x1.66666666044b6p-1')),
    # light-like far
    (-1.6, (1.6499502555255416, 5.122380454699021, -6.021728861159181, -7.796003088396722),
     ('-0x1.a7c8945660a0cp-1', '-0x1.f259e1774cdc3p-2', '0x1.7159fc118592bp-2', '0x1.82d6b767cbaa2p+2')),
]


@pytest.mark.parametrize("eta, target, expected", _FROZEN_LOGS)
def test_log_results_are_frozen_bit_for_bit(eta, target, expected):
    p, t = riemannian_log(metric_from_eta(eta), SplitQuaternion(*target))
    assert tuple(x.hex() for x in (p.p1, p.p2, p.p3, t)) == expected
