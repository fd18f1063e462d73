"""Sub-Riemannian limit of the metric family.

As eta -> -1 (I3 -> infinity) with I1 pinned to 1, geodesics converge to
the sub-Riemannian geodesics of the horizontal distribution span{e1, e2}.
The limiting flow has its own closed form,

    g(t) = exp(t (A_p + A_k)) * exp(-t A_k),

with horizontal momentum A_p = cos(phi0) e1 + sin(phi0) e2 and vertical
parameter A_k = beta e3.  The dictionary between the two parametrizations
is |p|^2 = beta^2 - 1 and pbar3 = beta / sqrt(|beta^2 - 1|): |beta| > 1
corresponds to time-like covectors, |beta| < 1 to space-like ones, and
the light cone is the |beta| = 1 horizon.

Everything here pins I1 = 1; a general I1 only rescales time by sqrt(I1).
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .algebra import SplitQuaternion, sq_exp, sq_mul
from .errors import DomainError, NegativeTime
from .metric_space import CausalType, covector_from_pbar3, metric_from_eta
from .optimality import GroupTag, cut_time
from .root_solver import _lightlike_phase, _phase_root, _spacelike_phase, _timelike_phase


class SrMomentum(NamedTuple):
    """Initial condition of a sub-Riemannian geodesic: vertical parameter
    beta and horizontal phase phi0."""

    beta: float
    phi0: float


def sr_exp_map(sp: SrMomentum, t: float) -> SplitQuaternion:
    """Endpoint of the unit-speed sub-Riemannian geodesic at time t.
    NegativeTime for t < 0, DomainError for a t, beta or phi0 that is
    not finite."""
    if t < 0.0:
        raise NegativeTime(f"geodesic time must be >= 0, got {t!r}")
    if not (math.isfinite(t) and math.isfinite(sp.beta) and math.isfinite(sp.phi0)):
        raise DomainError(f"time and momentum must be finite, got {t!r}, {sp!r}")
    first = sq_exp(t * math.cos(sp.phi0), t * math.sin(sp.phi0), t * sp.beta)
    return sq_mul(first, sq_exp(0.0, 0.0, -t * sp.beta))


def beta_from_pbar3(pbar3: float, ctype: CausalType) -> float:
    """Vertical parameter of the sub-Riemannian geodesic matching a
    Riemannian covector in the eta -> -1 limit.

    Inverts pbar3 = beta/sqrt(|beta^2 - 1|): time-like pbar3 (|pbar3| > 1)
    maps to |beta| > 1, space-like to |beta| < 1, both sign-preserving.
    The dictionary degenerates on the light cone and at |pbar3| = 1.
    """
    if ctype is CausalType.LIGHT_LIKE:
        raise DomainError("light-like covectors sit at the |beta| = 1 horizon")
    if not math.isfinite(pbar3):
        raise DomainError(f"pbar3 must be finite, got {pbar3!r}")
    if ctype is CausalType.TIME_LIKE:
        if abs(pbar3) <= 1.0:
            raise DomainError(f"time-like dictionary needs |pbar3| > 1, got {pbar3!r}")
        return pbar3 / math.sqrt(pbar3 * pbar3 - 1.0)
    return pbar3 / math.sqrt(pbar3 * pbar3 + 1.0)


def sr_cut_time(beta: float) -> float:
    """Cut time of the sub-Riemannian geodesic with vertical parameter beta.

    Four regimes in |beta|: above 3/sqrt(5) the conjugate cap
    2 pi / sqrt(beta^2 - 1); in (1, 3/sqrt(5)] the first root of the
    two-frequency q0-type oscillation; exactly 1, the parabolic equation
    cos(t/2) + (t/2) sin(t/2) = 0 on (pi, 2 pi); below 1 the hyperbolic
    variant with its root in (pi/|beta|, 2 pi/|beta|); +inf at beta = 0.
    All branches are even in beta and glue continuously.  DomainError for
    a NaN beta; |beta| = inf gives 0.
    """
    if math.isnan(beta):
        raise DomainError("beta must not be NaN")
    b = abs(beta)
    if b == 0.0:
        return math.inf
    half_pi = 0.5 * math.pi
    if b == 1.0:
        # cos u + u sin u in u = t/2: the light-like phase at eta = -1
        return 2.0 * _phase_root(partial(_lightlike_phase, -1.0), -half_pi, half_pi, math.pi)
    # in s = w t/2 and with k = b/w, the matching pbar3, the q0-type
    # function has the eta = -1 time-like (b > 1) or space-like (b < 1) phase
    w = math.sqrt(abs(b * b - 1.0))
    k = b / w
    if b > 1.0:
        if not k > 1.5:
            # |beta| >= 3/sqrt(5): phi(pi) = pi (1 - k) >= -pi/2, so the
            # conjugate cap s = pi comes first (a triple zero at k = 1.5);
            # k is NaN at |beta| = inf, where the cap is 0
            return 2.0 * math.pi / w
        s = _phase_root(partial(_timelike_phase, k, -1.0), -half_pi, half_pi / k, math.pi)
    else:
        s = _phase_root(partial(_spacelike_phase, k, -1.0), -half_pi, half_pi / k, math.pi / k)
    return 2.0 * s / w


def limit_comparison(
    pbar3: float, ctype: CausalType, eta_list: list[float]
) -> list[tuple[float, float, float, float]]:
    """Riemannian versus sub-Riemannian cut time along eta -> -1.

    For each eta in eta_list (all < -1, strictly increasing) builds the
    I1 = 1 metric, takes the covector with the given pbar3 at phase 0, and
    tabulates (eta, riemannian cut, sub-Riemannian cut, absolute gap).
    The gaps shrink to zero as eta approaches -1.
    """
    if not eta_list:
        raise DomainError("eta_list must be non-empty")
    if any(e >= -1.0 for e in eta_list):
        raise DomainError("every eta must be < -1")
    if any(b <= a for a, b in zip(eta_list, eta_list[1:])):
        raise DomainError("eta_list must be strictly increasing")
    sr = sr_cut_time(beta_from_pbar3(pbar3, ctype))
    rows = []
    for eta in eta_list:
        m = metric_from_eta(eta, 1.0)
        p = covector_from_pbar3(m, pbar3, 0.0, ctype)
        riem = cut_time(m, p, GroupTag.PSL2)
        rows.append((eta, riem, sr, abs(riem - sr)))
    return rows
