"""Root finding for the coordinate functions along geodesics.

Along each geodesic q0 + i q3 is a positive amplitude times e^{i phi}
with a closed-form phase phi that strictly decreases from 0, so the cut
rule is a level crossing of one monotone function: `crossing_time` is
the first time phi reaches a target (-pi/2 is the first zero of q0, -pi
that of q3) and `phase_above` tells whether a time precedes it.  Roots
are solved by a safeguarded Newton iteration on the phase inside
analytic brackets, to a few ulps relative.  Along a curve of fixed
horizontal radius the same phase is monotone too, and its root is the
witness of a cut-locus point (`radius_level_root`).  The conjugate
points' tan tau = sigma tau is a crossing of the falling phase
atan(sigma tau) - tau on each window (`conjugate_roots`), so one solver
serves every root here.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable

from .errors import (
    DomainError,
    NoRootFound,
    NotTimeLike,
    UndefinedAtEquator,
)
from .metric_space import (
    CausalType,
    Covector,
    Metric,
    check_count,
    covector_of_type,
    light_covector,
)

# below this vertical size a space-like covector is treated as equatorial
EQUATOR_TOLERANCE = 1e-14


# ---- coordinate zeros along geodesics ----------------------------------
#
# q0 + i q3 along the geodesic, its unwrapped phase phi, with b = |pbar3|
# and a = -eta b:
#
#   time-like   (cos tau + i b sin tau) e^{i eta b tau}:
#       phi = (1 + eta b) tau + atan2((b-1) sin cos, cos^2 + b sin^2)
#   space-like  (cosh tau + i b sinh tau) e^{i eta b tau}, divided by cosh:
#       phi = atan(b tanh tau) + eta b tau
#   light-like, in tau_p = t |p3| / (2 I1), with b = 1:
#       phi = atan(tau) + eta tau
#   poles b = 1:  phi = (1 + eta) tau, solved in closed form
#
# The first factor's phase psi = phi + a tau grows from 0 and
# phi' <= b (1 + eta) < 0, so phi = target has its root in
# [|target|/a, |target|/(a - b)].  Off the time-like cone psi < pi/2,
# so tau < (pi/2 + |target|)/a; on it psi < tau + pi/2, so
# tau < (pi/2 + |target|)/(a - 1).  Both windows matter as eta -> -1.
# As phi falls for every tau, t precedes the root exactly when phi(tau(t))
# is above target: `phase_above` answers that with one evaluation.

# a phase function returns (phi, dphi/dx); the solvers bind its leading
# parameters with functools.partial, a C call that adds no Python frame
_Phase = Callable[[float], tuple[float, float]]


def _phase_root(phase: _Phase, target: float, lo: float, hi: float) -> float:
    """Root of phase(x) = target on [lo, hi] for a strictly decreasing phase.

    Safeguarded Newton (rtsafe, Numerical Recipes 9.4): a Newton step is
    taken when it stays in the bracket and is at most half the step before
    last, else the bracket is bisected; every evaluation narrows the
    bracket, and a step of a few ulps ends the search.  The iterates never
    read the bracket ends' phases, so an end is evaluated only when the
    search never left it: an end already past the target (rounding at a
    bracket that is sharp in exact arithmetic) is the root.  It is tested
    the first time a Newton step points past it, else after the search.
    A one-point bracket, where rounding merged sharp ends, is its root.
    """
    if not lo <= hi:  # NaN input
        raise NoRootFound(f"empty phase bracket [{lo!r}, {hi!r}]")
    lo0, hi0 = lo, hi  # an end not yet evaluated; NaN once it is
    x = 0.5 * (lo + hi)
    step = step_old = hi - lo
    for _ in range(200):
        phi, slope = phase(x)
        f = phi - target
        if f == 0.0:
            return x
        if f > 0.0:
            lo = x
        else:
            hi = x
        # a slope rounded to 0 (flat phase) falls back to bisection
        newton = x - f / slope if slope < 0.0 else hi
        if not (lo <= newton <= hi and 2.0 * abs(x - newton) <= abs(step_old)):
            if newton < lo == lo0:
                if phase(lo0)[0] <= target:
                    return lo0
                lo0 = math.nan
            elif newton > hi == hi0:
                if phase(hi0)[0] >= target:
                    return hi0
                hi0 = math.nan
            newton = 0.5 * (lo + hi)
        step_old, step = step, x - newton
        x = newton
        if abs(step) <= 4.0 * math.ulp(newton):
            break
    if lo == lo0 and phase(lo0)[0] <= target:
        return lo0
    if hi == hi0 and phase(hi0)[0] >= target:
        return hi0
    return x


def _timelike_phase(b: float, eta: float, tau: float) -> tuple[float, float]:
    # 1 + eta b, summed so that it keeps its digits as eta -> -1, b -> 1
    rate = (1.0 + eta) + eta * (b - 1.0)
    s, c = math.sin(tau), math.cos(tau)
    return (
        rate * tau + math.atan2((b - 1.0) * s * c, c * c + b * s * s),
        b / (c * c + b * b * s * s) + eta * b,
    )


def _spacelike_phase(b: float, eta: float, tau: float) -> tuple[float, float]:
    th = math.tanh(tau)
    return (
        math.atan(b * th) + eta * b * tau,
        b * (1.0 - th * th) / (1.0 + b * b * th * th) + eta * b,
    )


def _lightlike_phase(eta: float, tau: float) -> tuple[float, float]:
    return math.atan(tau) + eta * tau, 1.0 / (1.0 + tau * tau) + eta


def _geodesic_phase(m: Metric, p: Covector) -> tuple[_Phase, float, float]:
    """The unwrapped phase of q0 + i q3 along p's geodesic as a function of
    tau, its b (1 on the light cone) and 2 I1 dtau/dt (|p3| there, else |p|)."""
    if p.ctype is CausalType.LIGHT_LIKE:
        return partial(_lightlike_phase, m.eta), 1.0, abs(p.p3)
    b = abs(p.pbar3)
    if p.ctype is CausalType.TIME_LIKE:
        return partial(_timelike_phase, b, m.eta), b, p.norm
    return partial(_spacelike_phase, b, m.eta), b, p.norm


def crossing_time(m: Metric, p: Covector, target: float) -> float:
    """First time t > 0 at which the q0 + i q3 phase of p's geodesic
    reaches target < 0: -pi/2 is the first zero of q0, -pi that of q3.
    Raises UndefinedAtEquator for space-like covectors with pbar3 = 0,
    whose phase stays 0."""
    eta = m.eta
    phase, b, speed = _geodesic_phase(m, p)
    if p.ctype is CausalType.SPACE_LIKE and b < EQUATOR_TOLERANCE:
        raise UndefinedAtEquator(
            "the q0 + i q3 phase stays 0 on equatorial space-like geodesics"
        )
    if p.ctype is CausalType.TIME_LIKE and b == 1.0:
        tau = target / (1.0 + eta)
    else:
        a = -eta * b
        cone = a - 1.0 if p.ctype is CausalType.TIME_LIKE else a
        # phi' <= -slow; slow = 0 at eta = -1 (I3 = inf) leaves only the cone bound
        slow = -b * (1.0 + eta)
        hi = min(-target / slow if slow else math.inf, (0.5 * math.pi - target) / cone)
        tau = _phase_root(phase, target, -target / a, hi)
    return 2.0 * m.i1 * tau / speed


def phase_above(m: Metric, p: Covector, t: float, target: float) -> bool:
    """Whether the q0 + i q3 phase of p's geodesic at time t is still above
    target < 0.  The phase falls strictly, so this is t < the time of its
    first crossing of target, up to that root's rounding."""
    phase, _, speed = _geodesic_phase(m, p)
    return phase(t * speed / (2.0 * m.i1))[0] > target


# ---- radius level curves --------------------------------------------------
#
# The phase-0 geodesics with pbar3 = b >= 0 that reach a horizontal radius
# rho = s(tau) sqrt(b^2 - type) (s = sin time-like, sinh space-like) form
# one curve, from the space-like equator (phi = 0) through the light cone
# (phi = atan(rho) + eta rho) to the time-like end tau -> pi (phi -> -inf).
# phi strictly decreases along it: a stationary point would be a conjugate
# point, and there is none before tau = pi.  The parameters keep the
# digits of b: b itself on the space-like branch, with
# tau = asinh(rho / hypot(1, b)); lambda = ln tan(tau/2) on the time-like
# one, with sin tau = sech lambda, cos tau = -tanh lambda and
# b = hypot(1, rho cosh lambda).  notes/decisions.md derives the brackets.


def _spacelike_level_phase(rho: float, eta: float, b: float) -> tuple[float, float]:
    tau = math.asinh(rho / math.hypot(1.0, b))
    th = math.tanh(tau)
    phi, dphi_dtau = _spacelike_phase(b, eta, tau)
    dphi_db = th / (1.0 + b * b * th * th) + eta * tau
    return phi, dphi_db - dphi_dtau * b * th / (1.0 + b * b)


def _lambda_tau(lam: float) -> float:
    # tau = 2 atan(e^lam), with its digits kept past pi/2
    if lam > 0.0:
        return math.pi - 2.0 * math.atan(math.exp(-lam))
    return 2.0 * math.atan(math.exp(lam))


def _timelike_level_phase(rho: float, eta: float, lam: float) -> tuple[float, float]:
    ch = math.cosh(lam)
    s, c = 1.0 / ch, -math.tanh(lam)
    b = math.hypot(1.0, rho * ch)
    tau = _lambda_tau(lam)
    phi, dphi_dtau = _timelike_phase(b, eta, tau)
    dphi_db = eta * tau + s * c / (c * c + b * b * s * s)
    return phi, dphi_dtau * s - dphi_db * (b * b - 1.0) * c / b


def radius_level_root(m: Metric, rho: float, target: float) -> tuple[Covector, float]:
    """The phase-0 covector, pbar3 >= 0, whose geodesic reaches horizontal
    radius rho > 0 exactly when its unwrapped q0 + i q3 phase equals
    target < 0 (light-like at the light-cone phase atan(rho) + eta rho,
    time-like below it and space-like above it), and that time t.

    Both come from the root's own parameter, so the covector's causal
    record is exact rather than re-derived from rounded components.
    DomainError where a bracket underflows to 0, which takes an extreme
    eta and rho: the time-like lower one at eta <= -1e200.  Where eta rho
    overflows, the light-cone phase is -inf and the gap is rho - k.
    """
    if not (0.0 < rho < math.inf and -math.inf < target < 0.0):
        raise DomainError(f"need finite rho > 0 and target < 0, got {rho!r}, {target!r}")
    eta = m.eta
    phi_light = math.atan(rho) + eta * rho
    if target == phi_light:
        p = light_covector(m, 0.0, 1)
        return p, 2.0 * m.i1 * rho / p.p3
    k = (math.atan(rho) - target) / -eta
    # |k - rho|, free of cancellation; where eta rho overflows, phi_light is -inf and k < rho
    gap = abs(phi_light - target) / -eta if phi_light > -math.inf else rho - k
    if target > phi_light:
        root = math.sqrt(gap) * math.sqrt(rho + k)
        b_hi = k * math.hypot(1.0, rho) / root
        if b_hi == math.inf:  # k hypot(1, rho) overflows near the float maximum; b_hi does not
            b_hi = k * (math.hypot(1.0, rho) / root)
        if not b_hi > 0.0:
            raise DomainError(f"space-like upper bracket underflows at rho {rho!r}, eta {eta!r}")
        b = _phase_root(partial(_spacelike_level_phase, rho, eta), target, 0.0, b_hi)
        h = math.hypot(1.0, b)
        p = covector_of_type(m, CausalType.SPACE_LIKE, b, h, 0.0)
        return p, 2.0 * m.i1 * math.asinh(rho / h) / p.norm
    r2 = rho * rho
    w = gap * (k + rho) / (r2 + 2.0 + math.sqrt((r2 + 2.0) ** 2 + r2 * gap * (k + rho)))
    if not w > 0.0:
        raise DomainError(f"time-like lower bracket underflows at rho {rho!r}, eta {eta!r}")
    far = (math.pi - target) / -eta / (0.5 * math.pi * rho)
    lam = _phase_root(
        partial(_timelike_level_phase, rho, eta), target, 0.5 * math.log(w),
        math.acosh(max(1.0, far)),
    )
    radial = rho * math.cosh(lam)  # sqrt(b^2 - 1), exact where b = hypot(1, radial) is not
    p = covector_of_type(m, CausalType.TIME_LIKE, math.hypot(1.0, radial), radial, 0.0)
    return p, 2.0 * m.i1 * _lambda_tau(lam) / p.norm


def _conjugate_phase(sigma: float, tau: float) -> tuple[float, float]:
    return math.atan(sigma * tau) - tau, sigma / (1.0 + (sigma * tau) ** 2) - 1.0


def conjugate_roots(m: Metric, pbar3: float, k_max: int) -> list[float]:
    """Conjugate-point times, in rescaled tau units, for a time-like pbar3.

    The series merges the horizontal family {pi k} with the roots tau_k of
    tan(tau) = sigma tau, sigma = -eta (1 - pbar3^2) / (1 + eta pbar3^2)
    in [0, 1).  On (pi k, pi k + pi/2) that equation is
    atan(sigma tau) - tau = -pi k, whose left side strictly decreases, so
    each tau_k is one `_phase_root` solve.  Returns the first 2 k_max
    entries, ascending; at the pole |pbar3| = 1, sigma = 0 and tau_k = pi k
    exactly.  Raises DomainError unless k_max is an integer >= 1, and when
    sigma is not finite (pbar3 NaN, infinite, or so large that pbar3^2
    overflows).
    """
    k_max = check_count(k_max, 1, "k_max")
    b = abs(pbar3)
    if b < 1.0:
        raise NotTimeLike(f"conjugate roots need |pbar3| >= 1, got {pbar3!r}")
    eta = m.eta
    # sigma = u / ((1 + eta) + u), u = eta (b^2 - 1): two negative terms,
    # so near the pole and as eta -> -1 neither part cancels
    u = eta * (b - 1.0) * (b + 1.0)
    sigma = u / ((1.0 + eta) + u)
    if not math.isfinite(sigma):
        raise DomainError(f"conjugate roots need a finite pbar3^2, got {pbar3!r}")

    out = []
    for k in range(1, k_max + 1):
        lo = math.pi * k
        out.extend([lo, _phase_root(partial(_conjugate_phase, sigma), -lo, lo, lo + 0.5 * math.pi)])
    return out
