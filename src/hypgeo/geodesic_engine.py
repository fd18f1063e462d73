"""Geodesic flow of the metrics: the closed-form exponential map, the
vertical flow of the momentum and sampled geodesics.

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
from .errors import DomainError, NegativeTime
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
        tau = t * norm / i2  # the rescaled time t |p| / (2 I1)
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

