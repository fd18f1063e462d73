"""Optimal synthesis on top of the geodesic flow: Maxwell, conjugate and
cut times, injectivity radius, cut-locus and wavefront sampling, and the
inverse of the exponential map on its diffeomorphism domain.

Group conventions.  PSL(2,R), whose points are pairs {q, -q}, and
SL(2,R) run the same code and differ only in their `_GROUPS` record; a
group that is not a GroupTag is a DomainError.  A
geodesic is cut where the falling phase of q0 + i q3 first reaches the
record's target, -pi/2 (q0 = 0) or -pi (q3 = 0, q0 < 0), or earlier at
the first conjugate time tau = pi.  The cap comes first for time-like
|pbar3| <= -c/eta, with c = 3/2 or 2 (ETA_POLE_SPLIT_* = -c), a band
beyond the poles only when eta > -c.  There the witnesses with
pole * pbar3 in [1, -c/eta] reach -(cos, 0, 0, sin)(pi eta pbar3) at
tau = pi: pbar3 = +-1 gives the conjugate circle, the rest the axis
stratum.
"""

from __future__ import annotations

import gc
import heapq
import math
from enum import Enum
from operator import itemgetter
from typing import Callable, NamedTuple

from .algebra import SplitQuaternion, psl2_canonicalize
from .errors import DomainError, IdentityTarget, NoConvergence, OnCutLocus
from .geodesic_engine import exp_map, orbit_factors, orbit_pass
from .metric_space import (
    ETA_INJ_SPLIT,
    ETA_POLE_SPLIT_PSL2,
    ETA_POLE_SPLIT_SL2,
    CausalType,
    Covector,
    Metric,
    check_count,
    covector_from_components,
    covector_from_pbar3,
    covector_of_type,
)
from .root_solver import EQUATOR_TOLERANCE, crossing_time, phase_above, radius_level_root

# a target is declared to sit on the point-reflection plane when |q0| is below this
ON_CUT_TOLERANCE = 1e-8


class GroupTag(Enum):
    PSL2 = "psl2"
    SL2 = "sl2"


def _upper(q: SplitQuaternion) -> SplitQuaternion:
    """The lift of q's PSL(2,R) point with q3 > 0: on and near the plane
    q0 = 0 the sign of q0 is rounding noise, that of q3 is not."""
    return -q if q[3] < 0.0 else q


class _Group(NamedTuple):
    """What PSL(2,R) and SL(2,R) differ in (see the module docstring)."""

    target_phase: float     # of q0 + i q3 at the cut: -pi/2 (q0 = 0) or -pi (q3 = 0)
    pole_split: float       # -c: the pbar3 threshold is -c/eta; axis strata exist for eta > -c
    pole: float             # sign of the axis witnesses' pbar3
    ideal: tuple            # the plane's (q0, q3) per unit sheet height
    lift: Callable | None           # lift of a plane or axis point (None: the quaternion)
    circle_lift: Callable | None    # lift of a conjugate-circle point (None: the quaternion)
    maxwell_stratum: str
    plane: str
    axis: str


_GROUPS = {
    GroupTag.PSL2: _Group(
        target_phase=-0.5 * math.pi, pole_split=ETA_POLE_SPLIT_PSL2, pole=-1.0, ideal=(0.0, 1.0),
        lift=_upper, circle_lift=psl2_canonicalize,
        maxwell_stratum="M0", plane="Z", axis="R_eta",
    ),
    GroupTag.SL2: _Group(
        target_phase=-math.pi, pole_split=ETA_POLE_SPLIT_SL2, pole=1.0, ideal=(-1.0, 0.0),
        lift=None, circle_lift=None,
        maxwell_stratum="M3", plane="H", axis="T_eta",
    ),
}


def _group(group: GroupTag) -> _Group:
    """The record of a GroupTag; DomainError names any other value."""
    if not isinstance(group, GroupTag):
        raise DomainError(f"group must be a GroupTag, got {group!r}")
    return _GROUPS[group]


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
    """One stratum worth of sampled cut-locus points, in rows.

    Each row is one rotation orbit (I1 = I2), kept as one witness
    (covector, t, base_angle): its len(points) // len(witnesses) points are
    reached exactly at the cut time t along the covector turned by
    2 pi j/columns - base_angle.  The plane has one row per radius, the
    axis and circle strata one point per row at base angle 0.
    validation_error is the worst mismatch between an emitted point and
    its ideal stratum coordinates.
    """

    stratum: str
    points: tuple
    witnesses: tuple
    validation_error: float

    @property
    def parameters(self) -> tuple:
        """Each point's witness (covector, t), built on access with the collector paused."""
        new, cos, sin = tuple.__new__, math.cos, math.sin
        phis = [phi for phi, _, _ in _phases(len(self.points) // len(self.witnesses))]
        with _GcPaused():
            return tuple([
                (new(Covector, (a * cos(phi - g0), a * sin(phi - g0), p3, kil, ct, norm, pbar3)), t)
                for (a, _, p3, kil, ct, norm, pbar3), t, g0 in self.witnesses for phi in phis])


class WavefrontPoint(NamedTuple):
    """A wavefront sample: its point Exp(covector, t), whether that geodesic
    still minimizes at t, its row's phase-0 covector (one object per row)
    and its column's shared (phi, cos phi, sin phi)."""

    point: SplitQuaternion
    optimal: bool
    row: Covector
    column: tuple

    @property
    def covector(self) -> Covector:
        """The row covector turned by the column's phase, in the floats the
        point was built from; built on access."""
        row, (_, cos_phi, sin_phi) = self.row, self.column
        return tuple.__new__(Covector, (row.p1 * cos_phi, row.p1 * sin_phi, *row[2:]))


def first_conjugate_time(m: Metric, p: Covector) -> float:
    """2 pi I1 / |p| for time-like covectors, +inf otherwise."""
    if p.ctype is CausalType.TIME_LIKE:
        return 2.0 * math.pi * m.i1 / p.norm
    return math.inf


def _cut_rule(m: Metric, p: Covector, g: _Group) -> tuple[float, bool]:
    """(cap, crossing): p's cut time is the cap (the conjugate time, +inf
    off the time-like cone), lowered to the phase's first crossing of the
    group's target if crossing.  There is none at the space-like equator,
    nor for time-like |pbar3| <= -c/eta, where it lies at or past tau = pi."""
    if p.ctype is CausalType.TIME_LIKE:
        return first_conjugate_time(m, p), abs(p.pbar3) > g.pole_split / m.eta
    return math.inf, p.ctype is CausalType.LIGHT_LIKE or abs(p.pbar3) >= EQUATOR_TOLERANCE


def _cut(m: Metric, p: Covector, g: _Group) -> tuple[float, bool]:
    """(p's cut time, whether the cap set it): the phase's first crossing of
    the group's target if _cut_rule allows one and it comes first, else the cap."""
    cap, crossing = _cut_rule(m, p, g)
    if crossing:
        t = crossing_time(m, p, g.target_phase)
        if t < cap:
            return t, False
    return cap, True


def _minimizing(m: Metric, p: Covector, t: float, g: _Group) -> bool:
    """t below p's cut time in g's group, for finite t: the cap and one phase comparison."""
    cap, crossing = _cut_rule(m, p, g)
    return t < cap and (not crossing or phase_above(m, p, t, g.target_phase))


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
    return _cut(m, p, _GROUPS[GroupTag.PSL2])[0]


def cut_time(m: Metric, p: Covector, group: GroupTag = GroupTag.PSL2) -> float:
    """Time at which the geodesic of p stops being minimizing.

    Equals the first Maxwell time of the respective group on all of C; the
    SL(2,R) value is never smaller than the PSL(2,R) one.
    """
    return _cut(m, p, _group(group))[0]


def describe_cut(m: Metric, p: Covector, group: GroupTag = GroupTag.PSL2) -> CutDescriptor:
    """Cut summary with the active stratum tag.

    M0: point-reflection plane (q0-root, PSL2); M3: symmetric plane
    (q3-root, SL2); M12: the rotational collapse at tau = pi shared by
    both groups; None: the geodesic is minimizing forever.
    """
    g = _group(group)
    t_cut, capped = _cut(m, p, g)
    stratum = None if math.isinf(t_cut) else "M12" if capped else g.maxwell_stratum
    return CutDescriptor(group, t_cut, first_conjugate_time(m, p), t_cut, stratum)


def injectivity_case(eta: float) -> int:
    """Regime of the injectivity radius: 1 for eta <= -2, 2 up to
    ETA_INJ_SPLIT, 3 above."""
    return 1 if eta <= -2.0 else (2 if eta <= ETA_INJ_SPLIT else 3)


def injectivity_radius(m: Metric) -> float:
    """Closed form of the injectivity radius (PSL(2,R)).

    Three regimes in eta, continuous at both junctions: the pole cut time
    for eta <= -2, an interior minimum of the cut time for
    -2 < eta <= (-3-sqrt(73))/8, and the conjugate-capped pole time above.
    DomainError unless I1 is finite and > 0 and I3 > 0; I3 = +inf, the
    sub-Riemannian limit metric, has eta = -1.
    """
    if not (0.0 < m.i1 < math.inf and 0.0 < m.i3):  # NaN fails too
        raise DomainError(f"need finite I1 > 0 and I3 > 0, got {m.i1!r}, {m.i3!r}")
    eta = m.eta
    root_i1 = math.sqrt(m.i1)
    case = injectivity_case(eta)
    if case == 1:
        return math.pi * root_i1 * math.sqrt(-1.0 / (1.0 + eta))
    if case == 2:
        return math.pi * root_i1 * math.sqrt(-(eta + 4.0) / eta)
    return 2.0 * math.pi * root_i1 * math.sqrt(-1.0 - eta)


# ---- cut-locus sampling --------------------------------------------------

class _GcPaused:
    """Pauses CPython's cyclic collector while a grid's records are built,
    and re-enables it on exit only if it was enabled on entry.  Records are
    tuple subclasses, which the collector never untracks, so unpaused it
    walks the growing grid 6 times per 64 x 64 cut-locus plane and 11
    times per 64 x 64 wavefront, and frees nothing.  __exit__ allocates
    nothing after re-enabling: the collection the build has earned waits
    for the caller's next allocation, and never runs if the caller first
    frees a grid as large (notes/decisions.md, "Grids pause the cyclic
    collector")."""

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


def _chain_covector(m: Metric, x: float) -> Covector:
    """Phase-0 covector on C with vertical momentum x (the logarithm's search line)."""
    p1 = math.sqrt(max(m.i1 * (1.0 - x * x / m.i3), 0.0))
    return covector_from_components(m, p1, 0.0, x)


def _phases(n: int) -> list[tuple[float, float, float]]:
    """(phi, cos phi, sin phi) of the column phases phi = 2 pi j/n, which
    every row of a grid shares."""
    out = []
    for j in range(n):
        phi = 2.0 * math.pi * j / n
        out.append((phi, math.cos(phi), math.sin(phi)))
    return out


def _plane_stratum(m: Metric, g: _Group, n: int, rho_max: float) -> LocusSample:
    """n x n sample of the planar stratum: Z = {q0 = 0} for PSL(2,R), the
    lower symmetric sheet H = {q3 = 0, q0 <= -1} for SL(2,R).

    Rows are horizontal radii rho_max*i/n, columns are phases; every point
    is produced as Exp(witness covector, cut time), never fabricated.  The
    row's witness and its cut time are one root of the unwrapped
    q0 + i q3 phase along the radius level curve (`radius_level_root`),
    monotone and so unique because Exp is a diffeomorphism below the cut
    time.  A row is a rotation orbit: its factors, lift, gap terms of q0
    and q3 and witness (p0, t, gamma0) are kept once, and each column turns
    p0, so `exp_map` of it gives its point exactly.  The worst gap is to the
    ideal point with horizontal part (x, y) = rho (cos, sin) phi and
    (q0, q3) = the group's ideal times the sheet height sqrt(1 + rho^2).
    """
    table = _phases(n)
    new, cos, sin = tuple.__new__, math.cos, math.sin
    points, witnesses = [], []
    worst = 0.0
    for i in range(1, n + 1):
        # rho_max * i overflows only for rho_max near the float maximum
        rho = rho_max * i / n if rho_max * i < math.inf else rho_max * (i / n)
        try:
            p0, t = radius_level_root(m, rho, g.target_phase)
        except DomainError as e:
            msg = f"rho_max {rho_max!r}: no representable witness at row radius {rho!r} ({e})"
            raise DomainError(msg) from None
        q0, q3, radial, c, s, _ = orbit_factors(m, p0, t)
        if g.lift is _upper and q3 < 0.0:
            # _upper's rule; the row shares q0 and q3: negate every point via its factors
            q0, q3, radial = -q0, -q3, -radial
        a1, d = p0.p1, p0.norm or 1.0
        # the base angle of the lifted orbit_point(factors, a1, 0.0), in its floats
        x, y = a1 / d, 0.0 / d
        gamma0 = math.atan2(radial * (x * s + y * c), radial * (x * c - y * s))
        # from 1e16 on 1 + rho^2 rounds to rho^2, whose root is rho: the same bits, no overflow
        sheet = math.sqrt(1.0 + rho * rho) if rho < 1e16 else rho
        worst = max(worst, abs(q0 - g.ideal[0] * sheet), abs(q3 - g.ideal[1] * sheet))
        witnesses.append((p0, t, gamma0))
        for phi, cos_phi, sin_phi in table:
            p1, p2 = a1 * cos(phi - gamma0), a1 * sin(phi - gamma0)
            x, y = p1 / d, p2 / d
            q1, q2 = radial * (x * c - y * s), radial * (x * s + y * c)
            gap = abs(q1 - rho * cos_phi)
            if gap > worst:
                worst = gap
            gap = abs(q2 - rho * sin_phi)
            if gap > worst:
                worst = gap
            points.append(new(SplitQuaternion, (q0, q1, q2, q3)))
    return LocusSample(g.plane, tuple(points), tuple(witnesses), worst)


def _axis_stratum(m: Metric, name: str, pbar3s, lift) -> LocusSample:
    """The points lift(Exp(p, t)), Exp(p, t) if lift is None, of the
    phase-0 time-like witnesses p with these pbar3, at their conjugate time
    t (tau = pi), where they reach -(cos, 0, 0, sin)(pi eta pbar3); the
    worst gap is to that law."""
    points, witnesses = [], []
    worst = 0.0
    for pbar3 in pbar3s:
        # pbar3 is in [1, -c/eta] in size by construction: the record needs no checks
        p = covector_of_type(m, CausalType.TIME_LIKE, pbar3, math.sqrt(pbar3 * pbar3 - 1.0), 0.0)
        t = first_conjugate_time(m, p)
        e = exp_map(m, p, t)
        e = lift(e) if lift else e
        q0, q1, q2, q3 = e
        turn = math.pi * m.eta * pbar3
        worst = max(worst, abs(q0 + math.cos(turn)), abs(q1), abs(q2), abs(q3 + math.sin(turn)))
        points.append(e)
        witnesses.append((p, t, 0.0))
    return LocusSample(name, tuple(points), tuple(witnesses), worst)


def cut_locus_sample(
    m: Metric, group: GroupTag, n: int, rho_max: float = 3.0
) -> list[LocusSample]:
    """Sampled cut locus of the group, one LocusSample per stratum.

    The plane stratum (Z for PSL(2,R), H for SL(2,R)) always; when
    eta > -c, also the axis stratum (R_eta, T_eta: the witnesses
    pole * (1 + (-c/eta - 1) k/n), k = 1..n, clamped to -c/eta in size;
    the mirror arc of the other pole is not duplicated) and its conjugate
    endpoints (pbar3 = +-1).  Each point is a SplitQuaternion; for
    PSL(2,R) the lift with q3 > 0 on Z and R_eta, whose q0 is rounding
    noise on Z and at R_eta's last point, and psl2_canonicalize's on the
    conjugate circle.  DomainError unless n is an integer >= 2 and
    rho_max is finite and positive.  A row radius rho_max i/n is
    formed without overflow up to the float maximum; DomainError names
    rho_max where a row's witness cannot be represented in floats: a
    radius that rounds to 0, one so small (subnormal, as for rho_max
    1e-308 with n = 4) that cosh of the time-like level parameter
    overflows, or an eta so extreme that a bracket underflows.  Each
    stratum keeps one witness per row (see LocusSample), and its points
    are built with the process-wide cyclic collector paused; the
    caller's state (enabled or not) is restored on return and on error.
    """
    n = check_count(n, 2)
    if not (0.0 < rho_max < math.inf):
        raise DomainError(f"rho_max must be finite and > 0, got {rho_max!r}")
    g = _group(group)
    with _GcPaused():
        out = [_plane_stratum(m, g, n, rho_max)]
        if m.eta > g.pole_split:
            top = g.pole_split / m.eta
            # clamped, since 1 + (top - 1) n/n can round past top
            witnesses = [g.pole * min(1.0 + (top - 1.0) * k / n, top) for k in range(1, n + 1)]
            out.append(_axis_stratum(m, g.axis, witnesses, g.lift))
            out.append(_axis_stratum(m, "ConjugateCircle", (g.pole, -g.pole), g.circle_lift))
    return out


def wavefront_sample(
    m: Metric, t: float, n: int, group: GroupTag = GroupTag.PSL2
) -> list[WavefrontPoint]:
    """The geodesic wavefront at time t on an n x n (vertical, phase) grid.

    Row-major: row i, u = p3/sqrt(I3) = -1 + 2i/(n-1) (poles included), is
    the slice [i*n:(i+1)*n], and its column j has the horizontal phase
    2 pi j/n.  Each sample records whether its geodesic is still minimizing
    at t (t < cut time, up to its root's rounding).  A row is a rotation
    orbit, so its optimality flag (the conjugate cap and one phase
    comparison, no root solve) and Exp factors are computed once; each
    column turns the row covector, and `exp_map` of it gives the column's
    point bit for bit; each point keeps the row covector and the column
    (see WavefrontPoint).  DomainError unless t is finite and positive, n
    is an integer >= 8 and I3 is finite: on the limit metric I3 = inf no
    row p3 = u sqrt(I3) is finite.  The grid is built with the
    process-wide cyclic collector paused; the caller's state (enabled or
    not) is restored on return and on error.
    """
    if not 0.0 < t < math.inf:  # NaN fails too
        raise DomainError(f"wavefront time must be finite and positive, got {t!r}")
    if not m.i3 < math.inf:  # NaN fails too
        raise DomainError(f"wavefront rows need a finite I3, got I3 = {m.i3!r}")
    n = check_count(n, 8)
    g, new = _group(group), tuple.__new__
    with _GcPaused():
        table, out = _phases(n), []
        for i in range(n):
            u = -1.0 + 2.0 * i / (n - 1)
            horizontal = math.sqrt(max(m.i1 * (1.0 - u * u), 0.0))
            p_row = covector_from_components(m, horizontal, 0.0, u * math.sqrt(m.i3))
            q0, q3, radial, c, s, _ = orbit_factors(m, p_row, t)
            optimal = _minimizing(m, p_row, t, g)
            d = p_row.norm or 1.0
            for column in table:
                _, cos_phi, sin_phi = column
                x, y = horizontal * cos_phi / d, horizontal * sin_phi / d
                q1, q2 = radial * (x * c - y * s), radial * (x * s + y * c)
                out.append(new(WavefrontPoint, (
                    new(SplitQuaternion, (q0, q1, q2, q3)), optimal, p_row, column)))
    return out


# ---- inverse of the exponential map -------------------------------------

# the logarithm's seed momenta are x_cap f for the equator f = 0 and the
# upper half of 48 midpoints; each f > 0 also scans -f (notes/decisions.md,
# "Mirrored momenta share a column")
_SCAN_X = (0.0, *(-1.0 + 2.0 * (i + 0.5) / 48 for i in range(24, 48)))


def _axis_log(m: Metric, q: SplitQuaternion) -> tuple[Covector, float]:
    """Logarithm of an axis rotation (q1 = q2 = 0): the pole geodesics,
    cut by the same rule as every other preimage."""
    phi = 2.0 * math.atan2(q.q3, q.q0)
    tau = abs(phi) / (-2.0 * (1.0 + m.eta))
    p = covector_from_pbar3(m, -1.0 if phi > 0.0 else 1.0, 0.0, CausalType.TIME_LIKE)
    t = 2.0 * m.i1 * tau / p.norm
    if t >= cut_time(m, p) * (1.0 - 1e-12):
        raise OnCutLocus("axis rotation angle lies in the cut interval of the rotation stratum")
    return p, t


def check_log_target(q: SplitQuaternion) -> SplitQuaternion:
    """q if finite with pseudo norm within 1e-8 * max(1, q0^2 + q1^2 + q2^2
    + q3^2) of 1, a far exp_map endpoint's rounding; else DomainError."""
    size = q.q0 * q.q0 + q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3
    if not (math.isfinite(size) and abs(q.pseudo_norm() - 1.0) <= 1e-8 * max(1.0, size)):
        raise DomainError(f"target must be finite with unit pseudo-norm, got {q!r}")
    return q


def riemannian_log(m: Metric, target: SplitQuaternion) -> tuple[Covector, float]:
    """Inverse of the exponential map on its diffeomorphism domain.

    Returns the unique (covector, t) with t below the cut time and
    Exp(covector, t) = target, up to sign, within 1e-9 s in every
    component, s = max(1, |q|_inf) of the target; t is the Riemannian
    distance from the identity.  Both stops scale with s (the Newton
    iteration's is 1e-12 s), so a far space-like target is held to its
    own rounding, not to an absolute gap below its ulp.  Rotational
    symmetry reduces the search to the (q0, q3) slice: a seeded, damped
    two-dimensional Newton iteration over (vertical momentum, time),
    with the horizontal phase restored exactly afterwards.  The seeds are
    a scan of 49 vertical momenta, the equator x = 0 and 24 pairs +-x, by
    24 increasing trial times below each one's cut time; the equator never
    cuts, so its times run to the search's time cap.  One cut time and one
    `orbit_pass` serve each x >= 0, where a rejected time (an overflow) and
    every later one get an infinite residual: sigma2, p3 -> -p3, keeps the
    cut time and maps (q0, q3) to (q0, -q3) bit for bit, so -x reads x's
    column against (q0, -q3).  The seeds and the Newton
    residuals read q0 and q3 from the orbit factors, the floats `exp_map`
    would return; only the final check builds an endpoint.  Axis targets
    are inverted in closed form along the pole geodesics.

    Raises DomainError unless check_log_target passes, IdentityTarget at
    the identity, OnCutLocus when the target sits on a cut stratum (|q0|
    below 1e-8, or an axis rotation inside the cut interval), and
    NoConvergence (carrying the best residual) if every seed fails.
    """
    q = psl2_canonicalize(check_log_target(target))
    rho = math.hypot(q.q1, q.q2)
    if abs(q.q0 - 1.0) < 1e-12 and rho < 1e-12 and abs(q.q3) < 1e-12:
        raise IdentityTarget("the identity has zero distance and no direction")
    if abs(q.q0) < ON_CUT_TOLERANCE:
        raise OnCutLocus("target lies on the point-reflection plane q0 = 0")
    if rho < 1e-10:
        return _axis_log(m, q)

    x_max = math.sqrt(m.i3)
    x_cap = x_max * (1.0 - 1e-12)
    scale = max(1.0, *map(abs, q))
    q0, q3 = q.q0, q.q3

    def resid(x: float, t: float) -> tuple[float, float]:
        try:
            f = orbit_factors(m, _chain_covector(m, min(max(x, -x_cap), x_cap)), t)
        except DomainError:  # cosh tau or the turn overflows: a failed trial, not a bad target
            return math.inf, math.inf
        return f[0] - q0, f[1] - q3

    # distance-scale cap so near-equatorial seeds don't sweep huge times
    psi = math.atan2(q.q3, q.q0)
    t_scale = (
        2.0 * math.sqrt(m.i1) * math.asinh(rho)
        + 2.0 * math.sqrt(m.i1 + m.i3) * (abs(psi) + 1.0)
    )
    t_cap_global = 3.0 * t_scale + 2.0 * math.sqrt(m.i1 + m.i3)

    seeds = []
    for f in _SCAN_X:
        x = x_cap * f
        p = _chain_covector(m, x)
        tc = cut_time(m, p)
        t_hi = min(tc * (1.0 - 1e-9), t_cap_global)  # the equator's cut time is inf
        times = [t_hi * (j + 0.5) / 24 for j in range(24)]
        column = []
        try:
            orbit_pass(m, p, times, column)
        except DomainError:
            pass  # the times grow, and so do the overflow guards: every later time fails too
        # the sigma2 twin -x has the same cut time and times and the factors
        # (q0, -q3); the equator x = 0 is its own twin
        for y, z in ((x, q3), (-x, -q3)) if x else ((x, q3),):
            for t, a in zip(times, column):
                r0, r3 = a[0] - q0, a[1] - z
                seeds.append((r0 * r0 + r3 * r3, y, t))
            seeds += [(math.inf, y, t) for t in times[len(column):]]

    best_residual = math.inf

    def newton(x: float, t: float):
        nonlocal best_residual
        for _ in range(80):
            r0, r3 = resid(x, t)
            err = max(abs(r0), abs(r3))
            best_residual = min(best_residual, err)
            if err < 1e-12 * scale:
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

    for _, x0, t0 in heapq.nsmallest(8, seeds, key=itemgetter(0)):
        sol = newton(x0, t0)
        if sol is None:
            continue
        x, t = sol
        p0 = _chain_covector(m, x)
        e = exp_map(m, p0, t)
        delta = math.atan2(q.q2, q.q1) - math.atan2(e.q2, e.q1)
        # turn the phase-0 covector by delta, carrying its causal record
        p = Covector(p0.p1 * math.cos(delta), p0.p1 * math.sin(delta), *p0[2:])
        final = psl2_canonicalize(exp_map(m, p, t))
        err = max(abs(a - b) for a, b in zip(final.components(), q.components()))
        if err > 1e-9 * scale:
            continue
        if t > cut_time(m, p) * (1.0 - 1e-12):
            # landed on a non-minimizing preimage; try the next seed
            continue
        return p, t
    raise NoConvergence(
        "no seed converged to a minimizing preimage", best_residual=best_residual
    )
