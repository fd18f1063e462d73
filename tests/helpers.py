"""Shared test utilities: independent reference implementations.

Everything here is written from the defining formulas, not by calling the
package, so tests that compare against these functions exercise two
separate code paths.
"""

import math
import os
import random
from pathlib import Path

from hypgeo import CausalType, SplitQuaternion, covector_from_pbar3, light_covector

# environment for a child Python that imports hypgeo from this checkout,
# installed or not
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def mul4(a, b):
    """Split-quaternion product on plain 4-tuples, from the unit table
    i^2 = j^2 = 1, k^2 = -1, ij = -k, jk = i, ki = j."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 - a1 * b2 + a2 * b1,
    )


def series_exp(v1, v2, v3, terms=60):
    """exp((v1 i + v2 j + v3 k)/2) summed as a power series."""
    x = (0.0, 0.5 * v1, 0.5 * v2, 0.5 * v3)
    acc = (1.0, 0.0, 0.0, 0.0)
    term = (1.0, 0.0, 0.0, 0.0)
    for n in range(1, terms):
        term = tuple(c / n for c in mul4(term, x))
        acc = tuple(s + c for s, c in zip(acc, term))
    return acc


def gap(a, b):
    """Componentwise distance between two 4-component elements."""
    return max(abs(x - y) for x, y in zip(a.components(), b.components()))


def projective_gap(a, b):
    """Distance between two elements up to overall sign."""
    ca, cb = a.components(), b.components()
    direct = max(abs(x - y) for x, y in zip(ca, cb))
    flipped = max(abs(x + y) for x, y in zip(ca, cb))
    return min(direct, flipped)


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0.0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# leading coefficient of the Riemannian-vs-sub-Riemannian cut-time gap at
# pbar3 = 1.5, the eta -> -1 image of the threshold -3/(2 eta): the gap is
# C |1 + eta|^(1/3) with C = sqrt(5) (12 pi / 5)^(1/3) (notes/decisions.md)
CUBE_ROOT_GAP_COEFF = math.sqrt(5.0) * (12.0 * math.pi / 5.0) ** (1.0 / 3.0)


def q0_phase_cut_time(eta, pbar3):
    """First q0-zero time of the I1 = 1 time-like geodesic with normalized
    vertical momentum pbar3, by bisection of the closed-form phase.

    Along the geodesic q0 + i q3 = (cos tau + i b sin tau) e^{i eta b tau}
    with b = |pbar3| and tau = t |p| / 2, so the phase
    phi(tau) = arg(cos tau + i b sin tau) + eta b tau falls from 0 and q0
    first vanishes at phi = -pi/2.  On [0, pi] the arg term is
    atan2(b sin tau, cos tau); the zero lies there, ahead of the conjugate
    cap tau = pi, exactly when b > -3/(2 eta).  The causal norm comes from
    Kil = 1 + eta p3^2 = -|p|^2 with p3 = pbar3 |p|.
    """
    b = abs(pbar3)
    if not b > -1.5 / eta:
        raise ValueError(f"q0-zero lies past the conjugate cap for pbar3={pbar3!r}")

    def phase(tau):
        return math.atan2(b * math.sin(tau), math.cos(tau)) + eta * b * tau + 0.5 * math.pi

    norm = math.sqrt(-1.0 / (1.0 + eta * b * b))
    return 2.0 * bisect(phase, 0.0, math.pi) / norm


def sr_cut_time_oracle(beta):
    """Cut time of the sub-Riemannian geodesic with vertical parameter beta,
    from each regime's own equation in b = |beta|:

    * b >= 3/sqrt(5): the conjugate cap 2 pi / sqrt(b^2 - 1);
    * 1 < b < 3/sqrt(5): the first q0-zero of the time-like geodesic with
      pbar3 = b / sqrt(b^2 - 1) at eta = -1 (q0_phase_cut_time);
    * b = 1: t = 2u with cos u + u sin u = 0, u in (pi/2, pi);
    * b < 1: the first zero of q0 / cosh(w t/2) =
      cos(b t/2) + (b/w) tanh(w t/2) sin(b t/2), w = sqrt(1 - b^2), which
      is positive up to t = pi/b and -1 at 2 pi/b;
    * b = 0: +inf.

    The last two come from the first component of
    exp(t (A_p + A_k)) exp(-t A_k), solved by bisection.
    """
    b = abs(beta)
    if b == 0.0:
        return math.inf
    if b == 1.0:
        return bisect(lambda t: math.cos(t / 2) + (t / 2) * math.sin(t / 2), math.pi, 2 * math.pi)
    if b > 1.0:
        if b >= 3.0 / math.sqrt(5.0):
            return 2.0 * math.pi / math.sqrt(b * b - 1.0)
        return q0_phase_cut_time(-1.0, b / math.sqrt(b * b - 1.0))
    w = math.sqrt(1.0 - b * b)

    def q0(t):
        return math.cos(b * t / 2) + (b / w) * math.tanh(w * t / 2) * math.sin(b * t / 2)

    return bisect(q0, math.pi / b, 2.0 * math.pi / b)


def sr_exp_mp(beta, phi0, t):
    """exp(t (A_p + A_k)) exp(-t A_k) in 40-digit mpmath, as a 4-tuple of
    mpf, with A_p = cos(phi0) e1 + sin(phi0) e2 and A_k = beta e3.  Each
    factor is the closed form of exp((v1 i + v2 j + v3 k)/2): cos/cosh of
    r = sqrt(|v1^2 + v2^2 - v3^2|)/2 plus sin/sinh(r)/(2r) times v."""
    import mpmath

    def algebra_exp(v1, v2, v3):
        kappa = v1 * v1 + v2 * v2 - v3 * v3
        if kappa == 0:
            return (mpmath.mpf(1), v1 / 2, v2 / 2, v3 / 2)
        r = mpmath.sqrt(abs(kappa)) / 2
        if kappa > 0:
            c, s = mpmath.cosh(r), mpmath.sinh(r) / (2 * r)
        else:
            c, s = mpmath.cos(r), mpmath.sin(r) / (2 * r)
        return (c, s * v1, s * v2, s * v3)

    with mpmath.workdps(40):
        b, t, phi0 = mpmath.mpf(beta), mpmath.mpf(t), mpmath.mpf(phi0)
        zero = mpmath.mpf(0)
        first = algebra_exp(t * mpmath.cos(phi0), t * mpmath.sin(phi0), t * b)
        return mul4(first, algebra_exp(zero, zero, -t * b))


def rk4_reference(m, p, t, steps):
    """Fixed-step RK4 for the geodesic system, coded independently.

    State is (q, momentum); the group equation is dq = q * w(momentum)
    with w = (0, p1/(2 I1), p2/(2 I1), -p3/(2 I3)), and the momentum
    precesses about e3 at rate p3 (1/I1 + 1/I3).
    """
    i1, i3 = m.i1, m.i3

    def rhs(state):
        q, (p1, p2, p3) = state
        w = (0.0, p1 / (2.0 * i1), p2 / (2.0 * i1), -p3 / (2.0 * i3))
        dq = mul4(q, w)
        rate = p3 * (1.0 / i1 + 1.0 / i3)
        return dq, (-rate * p2, rate * p1, 0.0)

    def step(state, h):
        k1 = rhs(state)
        k2 = rhs(_shift(state, k1, 0.5 * h))
        k3 = rhs(_shift(state, k2, 0.5 * h))
        k4 = rhs(_shift(state, k3, h))
        q, mom = state
        dq = tuple(
            (a + 2.0 * b + 2.0 * c + d) / 6.0
            for a, b, c, d in zip(k1[0], k2[0], k3[0], k4[0])
        )
        dp = tuple(
            (a + 2.0 * b + 2.0 * c + d) / 6.0
            for a, b, c, d in zip(k1[1], k2[1], k3[1], k4[1])
        )
        return (
            tuple(x + h * v for x, v in zip(q, dq)),
            tuple(x + h * v for x, v in zip(mom, dp)),
        )

    state = ((1.0, 0.0, 0.0, 0.0), (p.p1, p.p2, p.p3))
    h = t / steps
    for _ in range(steps):
        state = step(state, h)
    return state[0]


MIN_ORACLE_STEPS = 100


def _ode_rhs(q, p, i1, i3):
    """rk4_reference's right-hand side on (n, 4) and (n, 3) numpy arrays,
    with I1 and I3 scalars or (n,) arrays, one per trajectory."""
    import numpy as np

    w1 = p[:, 0] / (2.0 * i1)
    w2 = p[:, 1] / (2.0 * i1)
    w3 = -p[:, 2] / (2.0 * i3)
    q0, q1, q2, q3 = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    dq = np.stack(
        [
            q1 * w1 + q2 * w2 - q3 * w3,
            q0 * w1 + q2 * w3 - q3 * w2,
            q0 * w2 + q3 * w1 - q1 * w3,
            q0 * w3 - q1 * w2 + q2 * w1,
        ],
        axis=1,
    )
    rate = p[:, 2] * (1.0 / i1 + 1.0 / i3)
    dp = np.stack([-rate * p[:, 1], rate * p[:, 0], np.zeros_like(rate)], axis=1)
    return dq, dp


def exp_map_ode_oracle_batch(m, covectors, times, steps=10_000):
    """RK4-integrated endpoints for many (covector, time) pairs at once.

    The system of rk4_reference, advanced for the whole batch together
    (each trajectory with its own step t/steps) in numpy, with a
    pseudo-norm renormalization each step to hold it on the group.  m is
    one metric for all trajectories or a sequence of one per trajectory;
    either way each endpoint is the float it would be in a batch of its
    own.  Raises ValueError for fewer than MIN_ORACLE_STEPS steps, a
    negative time or unequal lengths.
    """
    import numpy as np

    if steps < MIN_ORACLE_STEPS:
        raise ValueError(f"need >= {MIN_ORACLE_STEPS} steps, got {steps}")
    ts = np.asarray([float(t) for t in times], dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("geodesic times must be >= 0")
    n = ts.shape[0]
    metrics = [m] * n if hasattr(m, "i1") else list(m)
    if not len(covectors) == len(metrics) == n:
        raise ValueError("metrics, covectors and times must have equal length")
    if n == 0:
        return []

    q = np.zeros((n, 4))
    q[:, 0] = 1.0
    p = np.asarray([c.components() for c in covectors], dtype=float)
    i1 = np.asarray([x.i1 for x in metrics], dtype=float)
    i3 = np.asarray([x.i3 for x in metrics], dtype=float)
    h = ts[:, None] / steps

    for _ in range(steps):
        k1q, k1p = _ode_rhs(q, p, i1, i3)
        k2q, k2p = _ode_rhs(q + 0.5 * h * k1q, p + 0.5 * h * k1p, i1, i3)
        k3q, k3p = _ode_rhs(q + 0.5 * h * k2q, p + 0.5 * h * k2p, i1, i3)
        k4q, k4p = _ode_rhs(q + h * k3q, p + h * k3p, i1, i3)
        q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        pn = q[:, 0] ** 2 - q[:, 1] ** 2 - q[:, 2] ** 2 + q[:, 3] ** 2
        q = q / np.sqrt(pn)[:, None]

    return [SplitQuaternion(*row) for row in q.tolist()]


def exp_map_ode_oracle(m, p, t, steps=10_000):
    """Single-trajectory front end of the batch integrator."""
    return exp_map_ode_oracle_batch(m, [p], [t], steps)[0]


def _shift(state, deriv, h):
    q, mom = state
    dq, dp = deriv
    return (
        tuple(x + h * v for x, v in zip(q, dq)),
        tuple(x + h * v for x, v in zip(mom, dp)),
    )


def random_covector(rnd: random.Random, m, ctype=None):
    """Covector on C with a random causal type (or the requested one)."""
    if ctype is None:
        ctype = rnd.choice(
            [CausalType.TIME_LIKE, CausalType.SPACE_LIKE, CausalType.LIGHT_LIKE]
        )
    phase = rnd.uniform(-math.pi, math.pi)
    if ctype is CausalType.LIGHT_LIKE:
        return light_covector(m, phase, 1 if rnd.random() < 0.5 else -1)
    if ctype is CausalType.TIME_LIKE:
        mag = 1.0 + 10.0 ** rnd.uniform(-3.0, 1.5)
    else:
        mag = 10.0 ** rnd.uniform(-3.0, 1.5)
    pbar3 = math.copysign(mag, rnd.uniform(-1.0, 1.0))
    return covector_from_pbar3(m, pbar3, phase, ctype)
