"""Optimal synthesis on top of the geodesic flow: Maxwell, conjugate and
cut times, injectivity radius, cut-locus and wavefront sampling, and the
inverse of the exponential map on its diffeomorphism domain.

Group conventions.  PSL(2,R) identifies antipodal unit split quaternions;
its cut times come from the first vanishing of q0 (point-reflection
targets) capped by the first conjugate time.  SL(2,R) keeps the full
quaternion and swaps the roles: q3-roots capped by the conjugate time.
Both caps happen at the rescaled time tau = pi, where a whole circle of
rotated geodesics meets again and the Jacobian of the exponential map
vanishes.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .algebra import Psl2Element, SplitQuaternion, psl2_canonicalize
from .errors import DomainError, IdentityTarget, NoConvergence, OnCutLocus
from .geodesic_engine import exp_map, orbit_factors, orbit_point, orbit_points
from .metric_space import (
    ETA_INJ_SPLIT,
    ETA_POLE_SPLIT_PSL2,
    ETA_POLE_SPLIT_SL2,
    CausalType,
    Covector,
    Metric,
    covector_from_components,
    covector_from_pbar3,
)
from .root_solver import EQUATOR_TOLERANCE, maxwell_root_q0, maxwell_root_q3, radius_level_root

# a target is declared to sit on the cut locus when its stratum equation
# (q0 = 0 for PSL2, the rotation band for axis targets) holds this tightly
ON_CUT_TOLERANCE = 1e-8


class GroupTag(Enum):
    PSL2 = "psl2"
    SL2 = "sl2"


class CutDescriptor(NamedTuple):
    """Cut-time summary for one covector: the three times and the stratum
    of the cut locus the geodesic ends on (None when it never stops being
    optimal)."""

    group: GroupTag
    t_max: float
    t_conj: float
    t_cut: float
    active_stratum: str | None


class LocusSample(NamedTuple):
    """One stratum worth of sampled cut-locus points.

    points[i] is reached exactly at its cut time along the witness
    geodesic parameters[i] = (covector, t); validation_error is the worst
    mismatch between an emitted point and its ideal stratum coordinates.
    """

    stratum: str
    points: tuple
    parameters: tuple
    validation_error: float


class WavefrontPoint(NamedTuple):
    covector: Covector
    point: SplitQuaternion
    optimal: bool


def first_conjugate_time(m: Metric, p: Covector) -> float:
    """2 pi I1 / |p| for time-like covectors, +inf otherwise."""
    if p.ctype is CausalType.TIME_LIKE:
        return 2.0 * math.pi * m.i1 / p.norm
    return math.inf


# per group: the first zero that makes a Maxwell point, and the time-like
# |pbar3| at or below which the conjugate cap comes first; the lambdas
# look the root functions up at call time, so a rebinding of the module
# names (as the bench tracer does) reaches every call
_MAXWELL = {
    GroupTag.PSL2: (lambda m, p: maxwell_root_q0(m, p), Metric.pbar3_threshold_psl2),
    GroupTag.SL2: (lambda m, p: maxwell_root_q3(m, p), Metric.pbar3_threshold_sl2),
}


def _maxwell_time(m: Metric, p: Covector, group: GroupTag) -> float:
    root, threshold = _MAXWELL[group]
    if p.ctype is CausalType.LIGHT_LIKE:
        return root(m, p)
    if p.ctype is CausalType.SPACE_LIKE:
        if abs(p.pbar3) < EQUATOR_TOLERANCE:
            return math.inf
        return root(m, p)
    if abs(p.pbar3) <= threshold(m):
        # the root sits at or beyond tau = pi; the rotational cap wins
        return first_conjugate_time(m, p)
    return min(root(m, p), first_conjugate_time(m, p))


def maxwell_time(m: Metric, p: Covector) -> float:
    """First Maxwell time of the geodesic of p under the PSL(2,R)
    identifications.

    Time-like: the first q0-zero capped by the conjugate time (the cap is
    active exactly when |pbar3| <= -3/(2 eta)); light-like: the first
    q0-zero; space-like: the first q0-zero, +inf at pbar3 = 0 where q0
    never vanishes.  Continuous across the light cone and diverging at the
    space-like equator.  SL(2,R) swaps in the q3-zero and the threshold
    -2/eta (see cut_time).
    """
    return _maxwell_time(m, p, GroupTag.PSL2)


def cut_time(m: Metric, p: Covector, group: GroupTag = GroupTag.PSL2) -> float:
    """Time at which the geodesic of p stops being minimizing.

    Equals the first Maxwell time of the respective group on all of C; the
    SL(2,R) value is never smaller than the PSL(2,R) one.
    """
    return _maxwell_time(m, p, group)


def describe_cut(m: Metric, p: Covector, group: GroupTag = GroupTag.PSL2) -> CutDescriptor:
    """Cut summary with the active stratum tag.

    M0: point-reflection plane (q0-root, PSL2); M3: symmetric plane
    (q3-root, SL2); M12: the rotational collapse at tau = pi shared by
    both groups; None: the geodesic is minimizing forever.
    """
    t_conj = first_conjugate_time(m, p)
    t_max = _maxwell_time(m, p, group)
    t_cut = t_max
    if math.isinf(t_cut):
        stratum = None
    elif p.ctype is CausalType.TIME_LIKE and t_conj <= t_cut * (1.0 + 1e-12):
        stratum = "M12"
    else:
        stratum = "M0" if group is GroupTag.PSL2 else "M3"
    return CutDescriptor(group, t_max, t_conj, t_cut, stratum)


def injectivity_radius(m: Metric) -> float:
    """Closed form of the injectivity radius (PSL(2,R)).

    Three regimes in eta, continuous at both junctions: the pole cut time
    for eta <= -2, an interior minimum of the cut time for
    -2 < eta <= (-3-sqrt(73))/8, and the conjugate-capped pole time above.
    """
    eta = m.eta
    root_i1 = math.sqrt(m.i1)
    if eta <= -2.0:
        return math.pi * root_i1 * math.sqrt(-1.0 / (1.0 + eta))
    if eta <= ETA_INJ_SPLIT:
        return math.pi * root_i1 * math.sqrt(-(eta + 4.0) / eta)
    return 2.0 * math.pi * root_i1 * math.sqrt(-(1.0 + eta))


# ---- cut-locus sampling --------------------------------------------------

def _chain_covector(m: Metric, x: float) -> Covector:
    """Phase-0 covector on C with vertical momentum x (the logarithm's search line)."""
    p1 = math.sqrt(max(m.i1 * (1.0 - x * x / m.i3), 0.0))
    return covector_from_components(m, p1, 0.0, x)


def _rotated(m: Metric, p: Covector, delta: float) -> Covector:
    c, s = math.cos(delta), math.sin(delta)
    return covector_from_components(
        m, p.p1 * c - p.p2 * s, p.p1 * s + p.p2 * c, p.p3
    )


def _upper(q: SplitQuaternion) -> Psl2Element:
    """The PSL(2,R) point of q by its lift with q3 > 0: on and near the
    plane q0 = 0 the sign of q0 is rounding noise, that of q3 is not."""
    return Psl2Element(-q if q.q3 < 0.0 else q)


def _stratum(name: str, witnesses, normal) -> LocusSample:
    """The points normal(q) for (p, t, q = Exp(p, t), ideal components) in
    witnesses, and their worst component gap to the ideal."""
    points, params = [], []
    worst = 0.0
    for p, t, q, ideal in witnesses:
        e = normal(q)
        worst = max(worst, max(abs(a - b) for a, b in zip(e.components(), ideal)))
        points.append(e)
        params.append((p, t))
    return LocusSample(name, tuple(points), tuple(params), worst)


def _conjugate_witnesses(m: Metric, pairs):
    """(covector, conjugate time, Exp, ideal) for (time-like pbar3, ideal)
    pairs: the axis points are reached at the rotational collapse tau = pi."""
    for pbar3, ideal in pairs:
        p = covector_from_pbar3(m, pbar3, 0.0, CausalType.TIME_LIKE)
        t = first_conjugate_time(m, p)
        yield p, t, exp_map(m, p, t), ideal


def _phases(n: int) -> list[tuple[float, float, float]]:
    """(phi, cos phi, sin phi) of the column phases phi = 2 pi j/n, which
    every row of a grid shares."""
    out = []
    for j in range(n):
        phi = 2.0 * math.pi * j / n
        out.append((phi, math.cos(phi), math.sin(phi)))
    return out


def _plane_stratum(m: Metric, group: GroupTag, n: int, rho_max: float) -> LocusSample:
    """n x n sample of the planar stratum: Z = {q0 = 0} for PSL(2,R), the
    lower symmetric sheet H = {q3 = 0, q0 <= -1} for SL(2,R).

    Rows are horizontal radii rho_max*i/n, columns are phases; every point
    is produced as Exp(witness covector, cut time), never fabricated.  The
    row's witness is the phase-0 geodesic whose unwrapped q0 + i q3 phase
    reaches -pi/2 (Z) or -pi (H) exactly at radius rho: one root of the
    phase along the radius level curve (`radius_level_root`), monotone and
    so unique because Exp is a diffeomorphism below the cut time.
    A row is a rotation orbit: its factors are computed once, and each
    column turns the witness, so `exp_map` of it gives its point exactly.
    The worst gap is to the ideal point (0, x, y, sqrt(1 + rho^2)) on Z,
    (-sqrt(1 + rho^2), x, y, 0) on H, with (x, y) = rho (cos, sin) phi.
    """
    psl2 = group is GroupTag.PSL2
    new = tuple.__new__  # a record without its generated __new__, as in orbit_points
    table = _phases(n)
    points, params = [], []
    worst = 0.0
    for i in range(1, n + 1):
        rho = rho_max * i / n
        p0 = radius_level_root(m, rho, -0.5 * math.pi if psl2 else -math.pi)
        t = cut_time(m, p0, group)
        orbit = orbit_factors(m, p0, t)
        first = orbit_point(orbit, p0.p1, p0.p2)
        _, x0, y0, _ = _upper(first).rep if psl2 else first
        gamma0 = math.atan2(y0, x0)
        sheet = math.sqrt(1.0 + rho * rho)
        a1, a2 = p0.p1, p0.p2
        turns = []
        for phi, _, _ in table:
            c, s = math.cos(phi - gamma0), math.sin(phi - gamma0)
            turns.append((a1 * c - a2 * s, a1 * s + a2 * c))
        for (_, cos_phi, sin_phi), (p, q) in zip(table, orbit_points(orbit, p0, turns)):
            q0, q1, q2, q3 = q
            x, y = rho * cos_phi, rho * sin_phi
            if psl2:
                if q3 < 0.0:
                    q0, q1, q2, q3 = -q0, -q1, -q2, -q3
                    q = new(SplitQuaternion, (q0, q1, q2, q3))
                points.append(new(Psl2Element, (q,)))
                gap = max(abs(q0), abs(q1 - x), abs(q2 - y), abs(q3 - sheet))
            else:
                points.append(q)
                gap = max(abs(q0 + sheet), abs(q1 - x), abs(q2 - y), abs(q3))
            if gap > worst:
                worst = gap
            params.append((p, t))
    return LocusSample("Z" if psl2 else "H", tuple(points), tuple(params), worst)


def _rotation_stratum_psl2(m: Metric, n: int) -> LocusSample:
    """Axis-rotation stratum of the PSL(2,R) cut locus, eta > -3/2 only.

    n rotation angles sweep the open-left interval (-2 pi (1+eta), pi];
    the mirror arc of negative angles is the flip3 image and is not
    duplicated.  Witnesses run at the conjugate-capped time tau = pi with
    pbar3 = (phi + 2 pi)/(2 pi eta).  Every point cos(phi/2) +
    sin(phi/2) k has q3 > 0, which fixes the sign of the phi = pi end on
    the plane q0 = 0.
    """
    phi_left = -2.0 * math.pi * (1.0 + m.eta)
    phis = [phi_left + (math.pi - phi_left) * k / n for k in range(1, n + 1)]
    pairs = [
        ((phi + 2.0 * math.pi) / (2.0 * math.pi * m.eta),
         (math.cos(0.5 * phi), 0.0, 0.0, math.sin(0.5 * phi)))
        for phi in phis
    ]
    return _stratum("R_eta", _conjugate_witnesses(m, pairs), _upper)


def _conjugate_circle_psl2(m: Metric) -> LocusSample:
    """The two conjugate endpoints of the rotation stratum, angles
    +-2 pi (1+eta), reached by the pole covectors at the conjugate time."""
    half = -math.pi * (1.0 + m.eta)
    pairs = [(-sign, (math.cos(half), 0.0, 0.0, sign * math.sin(half))) for sign in (1.0, -1.0)]
    return _stratum("ConjugateCircle", _conjugate_witnesses(m, pairs), psl2_canonicalize)


def _axis_stratum_sl2(m: Metric, n: int) -> LocusSample:
    """Antipodal axis-rotation stratum of the SL(2,R) cut locus, eta > -2.

    Points -(cos(pi eta s) + sin(pi eta s) k) for s in (1, -2/eta]; the
    q3-mirror arc (witnessed by negative pbar3) is not duplicated.  The
    s = 1 endpoint is conjugate and reported separately.
    """
    s_max = m.pbar3_threshold_sl2()
    ss = [1.0 + (s_max - 1.0) * k / n for k in range(1, n + 1)]
    pairs = [
        (s, (-math.cos(math.pi * m.eta * s), 0.0, 0.0, -math.sin(math.pi * m.eta * s)))
        for s in ss
    ]
    return _stratum("T_eta", _conjugate_witnesses(m, pairs), lambda q: q)


def _conjugate_circle_sl2(m: Metric) -> LocusSample:
    """Conjugate endpoints of the SL(2,R) axis stratum (s = 1, both pole
    signs)."""
    turn = math.pi * m.eta
    pairs = [(sign, (-math.cos(turn), 0.0, 0.0, -sign * math.sin(turn))) for sign in (1.0, -1.0)]
    return _stratum("ConjugateCircle", _conjugate_witnesses(m, pairs), lambda q: q)


def cut_locus_sample(
    m: Metric, group: GroupTag, n: int, rho_max: float = 3.0
) -> list[LocusSample]:
    """Sampled cut locus of the group, one LocusSample per stratum.

    PSL(2,R): the point-reflection plane Z always, plus the axis-rotation
    interval and its conjugate endpoints when eta > -3/2.  SL(2,R): the
    lower symmetric sheet H always, plus the antipodal rotations T_eta and
    their conjugate endpoints when eta > -2.
    """
    if n < 2:
        raise DomainError("need n >= 2")
    if not (0.0 < rho_max < math.inf):
        raise DomainError(f"rho_max must be finite and > 0, got {rho_max!r}")
    out = [_plane_stratum(m, group, n, rho_max)]
    if group is GroupTag.PSL2:
        if m.eta > ETA_POLE_SPLIT_PSL2:
            out.append(_rotation_stratum_psl2(m, n))
            out.append(_conjugate_circle_psl2(m))
    else:
        if m.eta > ETA_POLE_SPLIT_SL2:
            out.append(_axis_stratum_sl2(m, n))
            out.append(_conjugate_circle_sl2(m))
    return out


def _wavefront_row(
    m: Metric, t: float, n: int, i: int, group: GroupTag, table: list
) -> list[WavefrontPoint]:
    """wavefront_row on the column table _phases(n)."""
    u = -1.0 + 2.0 * i / (n - 1)
    radial = math.sqrt(max(m.i1 * (1.0 - u * u), 0.0))
    p3 = u * math.sqrt(m.i3)
    p_row = covector_from_components(m, radial, 0.0, p3)
    orbit = orbit_factors(m, p_row, t)
    optimal = t < cut_time(m, p_row, group)
    horizontals = [(radial * c, radial * s) for _, c, s in table]
    new = tuple.__new__
    return [new(WavefrontPoint, (p, q, optimal))
            for p, q in orbit_points(orbit, p_row, horizontals)]


def wavefront_row(
    m: Metric, t: float, n: int, i: int, group: GroupTag = GroupTag.PSL2
) -> list[WavefrontPoint]:
    """Row i of the wavefront grid: fixed u = -1 + 2i/(n-1), all n phases.

    A row is a rotation orbit, so its cut time, optimality flag and Exp
    factors are computed once; each column turns the row covector, and
    `exp_map` of it reproduces the column's point bit for bit.
    """
    return _wavefront_row(m, t, n, i, group, _phases(n))


def wavefront_sample(
    m: Metric, t: float, n: int, group: GroupTag = GroupTag.PSL2
) -> list[WavefrontPoint]:
    """The geodesic wavefront at time t on an n x n (vertical, phase) grid.

    Rows sweep u = p3/sqrt(I3) over [-1, 1] (poles included), columns the
    horizontal phase; each sample records whether its geodesic is still
    minimizing at t (t < cut time).  The column phases are shared by all
    rows (`wavefront_row` gives row i alone).
    """
    if t <= 0.0:
        raise DomainError("wavefront time must be positive")
    if n < 8:
        raise DomainError("need n >= 8")
    table = _phases(n)
    out = []
    for i in range(n):
        out.extend(_wavefront_row(m, t, n, i, group, table))
    return out


# ---- inverse of the exponential map -------------------------------------

def _axis_log(m: Metric, q: SplitQuaternion) -> tuple[Covector, float]:
    """Logarithm of an axis rotation (q1 = q2 = 0): the pole geodesics."""
    eta = m.eta
    phi = 2.0 * math.atan2(q.q3, q.q0)
    if eta > ETA_POLE_SPLIT_PSL2:
        band = -2.0 * math.pi * (1.0 + eta)
        if abs(phi) >= band * (1.0 - 1e-12):
            raise OnCutLocus(
                "axis rotation angle lies in the cut interval of the rotation stratum"
            )
    pbar3 = -1.0 if phi > 0.0 else 1.0
    tau = abs(phi) / (-2.0 * (1.0 + eta))
    p = covector_from_pbar3(m, pbar3, 0.0, CausalType.TIME_LIKE)
    return p, 2.0 * m.i1 * tau / p.norm


def check_log_target(q: SplitQuaternion) -> SplitQuaternion:
    """q if finite with pseudo norm within 1e-8 * max(1, q0^2 + q1^2 + q2^2
    + q3^2) of 1, a far exp_map endpoint's rounding; else DomainError."""
    size = q.q0 * q.q0 + q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3
    if not (math.isfinite(size) and abs(q.pseudo_norm() - 1.0) <= 1e-8 * max(1.0, size)):
        raise DomainError(f"target must be finite with unit pseudo-norm, got {q!r}")
    return q


def riemannian_log(
    m: Metric, target: Psl2Element | SplitQuaternion, tol: float = 1e-10
) -> tuple[Covector, float]:
    """Inverse of the exponential map on its diffeomorphism domain.

    Returns the unique (covector, t) with t below the cut time and
    Exp(covector, t) = target within tol; t is the Riemannian distance
    from the identity.  Rotational symmetry reduces the search to the
    (q0, q3) slice: a seeded, damped two-dimensional Newton iteration over
    (vertical momentum, time), with the horizontal phase restored exactly
    afterwards.  Axis targets are inverted in closed form along the pole
    geodesics.

    Raises DomainError unless check_log_target passes, IdentityTarget at
    the identity, OnCutLocus when the target sits on a cut stratum (|q0|
    below 1e-8, or an axis rotation inside the cut interval), and
    NoConvergence (carrying the best residual) if every seed fails.
    """
    raw = target.rep if isinstance(target, Psl2Element) else target
    q = psl2_canonicalize(check_log_target(raw)).rep
    rho = math.hypot(q.q1, q.q2)
    if abs(q.q0 - 1.0) < 1e-12 and rho < 1e-12 and abs(q.q3) < 1e-12:
        raise IdentityTarget("the identity has zero distance and no direction")
    if abs(q.q0) < ON_CUT_TOLERANCE:
        raise OnCutLocus("target lies on the point-reflection plane q0 = 0")
    if rho < 1e-10:
        return _axis_log(m, q)

    x_max = math.sqrt(m.i3)
    x_cap = x_max * (1.0 - 1e-12)
    inner_tol = min(1e-12, tol)

    def resid(x: float, t: float) -> tuple[float, float]:
        e = exp_map(m, _chain_covector(m, min(max(x, -x_cap), x_cap)), t)
        return e.q0 - q.q0, e.q3 - q.q3

    # distance-scale cap so near-equatorial seeds don't sweep huge times
    psi = math.atan2(q.q3, q.q0)
    t_scale = (
        2.0 * math.sqrt(m.i1) * math.asinh(rho)
        + 2.0 * math.sqrt(m.i1 + m.i3) * (abs(psi) + 1.0)
    )
    t_cap_global = 3.0 * t_scale + 2.0 * math.sqrt(m.i1 + m.i3)

    seeds = []
    nx, nt = 48, 24
    for i in range(nx):
        x = x_cap * (-1.0 + 2.0 * (i + 0.5) / nx)
        p = _chain_covector(m, x)
        tc = cut_time(m, p, GroupTag.PSL2)
        t_hi = t_cap_global if math.isinf(tc) else min(tc * (1.0 - 1e-9), t_cap_global)
        for j in range(nt):
            t = t_hi * (j + 0.5) / nt
            r0, r3 = resid(x, t)
            seeds.append((r0 * r0 + r3 * r3, x, t))
    seeds.sort(key=lambda s: s[0])

    best_residual = math.inf

    def newton(x: float, t: float):
        nonlocal best_residual
        for _ in range(80):
            r0, r3 = resid(x, t)
            err = max(abs(r0), abs(r3))
            best_residual = min(best_residual, err)
            if err < inner_tol:
                return x, t
            hx = 1e-7 * x_max
            if x + hx > x_cap:
                hx = -hx
            ht = 1e-7 * max(abs(t), 1.0)
            a0, a3 = resid(x + hx, t)
            b0, b3 = resid(x, t + ht)
            j00, j30 = (a0 - r0) / hx, (a3 - r3) / hx
            j03, j33 = (b0 - r0) / ht, (b3 - r3) / ht
            det = j00 * j33 - j03 * j30
            if det == 0.0 or not math.isfinite(det):
                return None
            dx = -(r0 * j33 - r3 * j03) / det
            dt = -(j00 * r3 - j30 * r0) / det
            lam, moved = 1.0, False
            while lam > 1e-4:
                xn = min(max(x + lam * dx, -x_cap), x_cap)
                tn = max(t + lam * dt, 1e-12)
                n0, n3 = resid(xn, tn)
                if max(abs(n0), abs(n3)) < err:
                    x, t, moved = xn, tn, True
                    break
                lam *= 0.5
            if not moved:
                return None
        return None

    for _, x0, t0 in seeds[:8]:
        sol = newton(x0, t0)
        if sol is None:
            continue
        x, t = sol
        p0 = _chain_covector(m, x)
        e = exp_map(m, p0, t)
        delta = math.atan2(q.q2, q.q1) - math.atan2(e.q2, e.q1)
        p = _rotated(m, p0, delta)
        final = psl2_canonicalize(exp_map(m, p, t)).rep
        err = max(abs(a - b) for a, b in zip(final.components(), q.components()))
        if err > max(tol, 1e-9):
            continue
        if t > cut_time(m, p, GroupTag.PSL2) * (1.0 - 1e-12):
            # landed on a non-minimizing preimage; try the next seed
            continue
        return p, t
    raise NoConvergence(
        "no seed converged to a minimizing preimage", best_residual=best_residual
    )
