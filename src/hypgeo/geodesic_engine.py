"""Geodesic flow of the metrics: closed forms, Jacobians and the
discrete symmetries of the exponential map.

A geodesic through the identity with initial covector p on C is the
product of two one-parameter subgroups,

    Q(t) = exp(t p / I1) * exp(t eta p3 e3 / I1),

which expands per causal type into trigonometric / affine / hyperbolic
closed forms in the rescaled time tau = t|p|/(2 I1).  The second factor is
the vertical flow: the momentum itself precesses about e3 with angular
rate -eta p3 / I1 while p3 and the horizontal radius stay fixed.

Rotations R about e3 fix the identity and, as I1 = I2, are isometries:
Exp(R p, t) = R Exp(p, t).  So `exp_map` is `orbit_factors` (all that
depends only on t, p3, norm, pbar3 and the causal type, once per orbit)
plus `orbit_point` (q1, q2 from one covector's p1, p2).  `orbit_pass`
runs the factors along one geodesic's times with the per-orbit work done
once, and `orbit_factors` is its one-time case.  The grids in
`optimality` build each row from one set of factors, run exactly these
floats per point and give every column covector the row's causal record,
so their points equal `exp_map` of their covectors bit for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import SplitQuaternion
from .errors import DomainError, LightLikeInput, NegativeTime
from .metric_space import CausalType, Covector, Metric, check_count


class GeodesicSample(NamedTuple):
    """One sampled point of a geodesic."""

    t: float
    point: SplitQuaternion


def _rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (x * c - y * s, x * s + y * c)


def _reject_time(t: float) -> None:
    """Raise the error of a time that is negative, NaN or infinite."""
    if t < 0.0:
        raise NegativeTime(f"geodesic time must be >= 0, got {t!r}")
    raise DomainError(f"geodesic time must be finite, got {t!r}")


def orbit_pass(m: Metric, p: Covector, times, out: list) -> list:
    """Append orbit_factors(m, p, t) to out for each t of times, in order,
    and return out.  The orbit's own work (p's record, eta, 2 I1, the
    causal-type branch and, space-like, hypot(1, pbar3)) is done once; each
    time runs one orbit_factors call's floats and guards in its order.  The
    first rejected time raises that call's error, and out keeps the factors
    of the times before it."""
    _, _, p3, _, ctype, norm, pbar3 = p
    eta, i2 = m.eta, 2.0 * m.i1
    cos, sin, inf = math.cos, math.sin, math.inf
    append = out.append
    if ctype is CausalType.LIGHT_LIKE:
        for t in times:
            if not 0.0 <= t < inf:  # NaN fails too
                _reject_time(t)
            a = t * eta * p3 / i2
            b = t / i2
            if not (abs(a) < inf and b < inf):
                raise DomainError(f"geodesic time {t!r} overflows the turn")
            ca, sa = cos(a), sin(a)
            append((ca - b * p3 * sa, sa + b * p3 * ca, b, ca, -sa, 0.0))
        return out
    space = ctype is CausalType.SPACE_LIKE
    # |(q1, q2)| = sinh tau hypot(1, pbar3) and |q0 + i q3| <= cosh tau hypot(1, pbar3)
    size = math.hypot(1.0, pbar3) if space else 0.0
    for t in times:
        if not 0.0 <= t < inf:
            _reject_time(t)
        tau = t * norm / i2  # tau_of_t, inlined on this hot path
        theta = tau * eta * pbar3
        if not abs(theta) < inf:  # also an overflowing tau: inf, or NaN at the equator
            raise DomainError(f"geodesic time {t!r} overflows the turn")
        ce, se = cos(theta), sin(theta)
        if space:
            try:
                ct, st = math.cosh(tau), math.sinh(tau)
            except OverflowError:
                raise DomainError(f"geodesic time {t!r} overflows cosh tau") from None
            if not ct * size < inf:
                raise DomainError(f"geodesic time {t!r} overflows the endpoint")
        else:
            ct, st = cos(tau), sin(tau)
        append((ct * ce - pbar3 * st * se, ct * se + pbar3 * st * ce, st, ce, -se, norm))
    return out


def orbit_factors(m: Metric, p: Covector, t: float) -> tuple:
    """(q0, q3, radial, cos, sin of the turn, norm) of Exp(p, t): the part
    shared by p's rotation orbit.  radial is sin/sinh tau (t/(2 I1) and
    norm 0 on the light cone).  The turn is -theta, returned as (cos theta,
    -sin theta): libm's cos is even and its sin odd bit for bit.  Raises
    NegativeTime for t < 0 and DomainError for a time that is not finite,
    or so long that the turn (or, space-like, cosh tau or a component of
    the point) overflows.  The one-time case of `orbit_pass`."""
    return orbit_pass(m, p, (t,), [])[0]


def orbit_point(factors: tuple, p1: float, p2: float) -> SplitQuaternion:
    """Exp of the orbit's covector with horizontal part (p1, p2)."""
    q0, q3, radial, c, s, norm = factors
    if norm:
        p1, p2 = p1 / norm, p2 / norm
    return SplitQuaternion(q0, radial * (p1 * c - p2 * s), radial * (p1 * s + p2 * c), q3)


def exp_map(m: Metric, p: Covector, t: float) -> SplitQuaternion:
    """Endpoint of the unit-speed geodesic with initial covector p at time t.

    Branches on the causal type of p.  Time-like covectors give

        q0 = cos(tau) ce - pbar3 sin(tau) se
        (q1, q2) = sin(tau) * R(-tau eta pbar3) (pbar1, pbar2)
        q3 = cos(tau) se + pbar3 sin(tau) ce

    with ce = cos(tau eta pbar3), se = sin(tau eta pbar3); space-like ones
    replace cos/sin of tau by cosh/sinh; the light-like cone uses the
    affine-in-t form with rotation angle t eta p3 / (2 I1).  Runs as the
    orbit factors of p plus one assembly (see the module docstring).
    """
    return orbit_point(orbit_factors(m, p, t), p.p1, p.p2)


def vertical_flow(m: Metric, p: Covector, t: float) -> Covector:
    """Momentum at time t: precession of (p1, p2) by angle -t eta p3 / I1.

    Leaves p3, the causal character and the energy constraint invariant,
    so the result carries p's causal record.  DomainError for a time that
    is not finite, or so long that the angle overflows.
    """
    if not math.isfinite(t):
        raise DomainError(f"flow time must be finite, got {t!r}")
    angle = -t * m.eta * p.p3 / m.i1
    if not abs(angle) < math.inf:
        raise DomainError(f"flow time {t!r} overflows the turn")
    x, y = _rotate(p.p1, p.p2, angle)
    return Covector(x, y, *p[2:])


def sample_geodesic(m: Metric, p: Covector, t_end: float, n: int) -> list[GeodesicSample]:
    """n evenly spaced samples of the geodesic on [0, t_end]; DomainError
    unless n is an integer >= 2 and t_end is finite."""
    n = check_count(n, 2)
    if not math.isfinite(t_end):
        raise DomainError(f"geodesic end time t_end must be finite, got {t_end!r}")
    times = [t_end * i / (n - 1) for i in range(n)]
    factors = orbit_pass(m, p, times, [])
    return [GeodesicSample(t, orbit_point(f, p.p1, p.p2)) for t, f in zip(times, factors)]


# ---- Jacobian of the exponential map -----------------------------------

def jacobian(m: Metric, ctype: CausalType, pbar3: float, tau: float) -> float:
    """Jacobian determinant factor of the exponential map in (tau, pbar3).

        J = type * s^3 * (tau eta (1 - type pbar3^2) c + (1 + type eta pbar3^2) s)

    where (s, c) = (sin, cos)(tau) for time-like covectors (type = +1) and
    (sinh, cosh)(tau) for space-like ones (type = -1).  Vanishing of J
    signals a conjugate point; light-like covectors admit none and are
    rejected, and so is a pbar3 or tau that is not finite, or one where
    J overflows (DomainError).
    """
    if ctype is CausalType.LIGHT_LIKE:
        raise LightLikeInput("jacobian factor is undefined on the light cone")
    if not (math.isfinite(pbar3) and math.isfinite(tau)):
        raise DomainError(f"pbar3 and tau must be finite, got {pbar3!r}, {tau!r}")
    eta = m.eta
    if ctype is CausalType.TIME_LIKE:
        type_sign = 1.0
        s, c = math.sin(tau), math.cos(tau)
    else:
        type_sign = -1.0
        try:
            s, c = math.sinh(tau), math.cosh(tau)
        except OverflowError:
            raise DomainError(f"jacobian overflows at tau {tau!r}") from None
    bracket = tau * eta * (1.0 - type_sign * pbar3 * pbar3) * c + (
        1.0 + type_sign * eta * pbar3 * pbar3
    ) * s
    j = type_sign * s * s * s * bracket
    if not math.isfinite(j):
        raise DomainError(f"jacobian overflows at tau {tau!r}")
    return j


# ---- discrete symmetries ------------------------------------------------

class SymmetryElement(NamedTuple):
    """An element of the symmetry group O(2) x Z2 of the exponential map.

    The O(2) factor acts on the horizontal plane: reflection across the
    e1 axis when `mirror` is set, followed by rotation by `angle`.  The Z2
    factor (`flip3`) negates the vertical component.  Reflections of either
    kind reverse the vertical flow, so an element twists the momentum by
    the flow exactly when mirror != flip3.
    """

    angle: float = 0.0
    mirror: bool = False
    flip3: bool = False

    @staticmethod
    def rotation(angle: float) -> "SymmetryElement":
        return SymmetryElement(angle=angle)

    @staticmethod
    def sigma1() -> "SymmetryElement":
        """Reflection across the plane spanned by e1 and e3."""
        return SymmetryElement(mirror=True)

    @staticmethod
    def sigma2() -> "SymmetryElement":
        """Reflection across the horizontal plane spanned by e1 and e2."""
        return SymmetryElement(flip3=True)

    @property
    def kind(self) -> str:
        if self.mirror and self.flip3:
            return "composite"
        if self.mirror:
            return "reflection-sigma1" if self.angle == 0.0 else "composite"
        if self.flip3:
            return "reflection-sigma2" if self.angle == 0.0 else "composite"
        return "rotation"

    @property
    def reverses_vertical(self) -> bool:
        return self.mirror != self.flip3

    def compose(self, other: "SymmetryElement") -> "SymmetryElement":
        """self after other (group product)."""
        sign = -1.0 if self.mirror else 1.0
        return SymmetryElement(
            angle=self.angle + sign * other.angle,
            mirror=self.mirror != other.mirror,
            flip3=self.flip3 != other.flip3,
        )

    def act_on_vector(self, x: float, y: float, z: float) -> tuple[float, float, float]:
        if not math.isfinite(self.angle):
            raise DomainError(f"symmetry angle must be finite, got {self.angle!r}")
        if self.flip3:
            z = -z
        if self.mirror:
            y = -y
        x, y = _rotate(x, y, self.angle)
        return (x, y, z)


def apply_symmetry_preimage(
    m: Metric, s: SymmetryElement, p: Covector, t: float
) -> tuple[Covector, float]:
    """Companion initial condition: the covector whose geodesic is the
    s-image of the geodesic of p, at the same time.

    Vertical-flow-preserving elements act on p directly; reversing ones
    must first push p through the vertical flow for time t.  Kil is
    invariant, so the companion carries p's record, pbar3 negated by flip3.
    """
    base = vertical_flow(m, p, t) if s.reverses_vertical else p
    x, y, z = s.act_on_vector(base.p1, base.p2, base.p3)
    pbar3 = -base.pbar3 if s.flip3 and base.pbar3 is not None else base.pbar3
    return Covector(x, y, z, base.kil, base.ctype, base.norm, pbar3), t


def apply_symmetry_image(s: SymmetryElement, q: SplitQuaternion) -> SplitQuaternion:
    """Action of s on the group: O(2) on (q1, q2), Z2 on q3, q0 fixed.
    DomainError for a component that is not finite."""
    if not all(map(math.isfinite, q)):
        raise DomainError(f"cannot act on {q!r}: a component is not finite")
    x, y, q3 = s.act_on_vector(q.q1, q.q2, q.q3)
    return SplitQuaternion(q.q0, x, y, q3)
