"""Sub-Riemannian limit of the metric family.

As eta -> -1 (I3 -> infinity) with I1 pinned to 1, geodesics converge to
the sub-Riemannian geodesics of the horizontal distribution span{e1, e2}.
The limit is itself a metric of the family: Metric(1, inf) has
eta = -1 exactly, and there the geodesic product of `exp_map` reads

    g(t) = exp(t (A_p + A_k)) * exp(-t A_k),

with horizontal momentum A_p = cos(phi0) e1 + sin(phi0) e2 and vertical
parameter A_k = beta e3, the covector p = (cos phi0, sin phi0, beta).  So
`sr_exp_map` and `sr_cut_time` are `exp_map` and `cut_time` on that
metric.  The dictionary between the two parametrizations is
Kil(p) = 1 - beta^2 and pbar3 = beta / sqrt(|beta^2 - 1|): |beta| > 1
corresponds to time-like covectors, |beta| < 1 to space-like ones, and
the light cone is the |beta| = 1 horizon.

Everything here pins I1 = 1; a general I1 only rescales time by sqrt(I1).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .algebra import SplitQuaternion
from .errors import DomainError
from .geodesic_engine import exp_map
from .metric_space import CausalType, Covector, Metric, covector_from_pbar3, metric_from_eta
from .optimality import GroupTag, cut_time

# I3 = inf: eta = -1/inf - 1 = -1.0 exactly (make_metric rejects it)
_LIMIT = Metric(1.0, math.inf)


class SrMomentum(NamedTuple):
    """Initial condition of a sub-Riemannian geodesic: vertical parameter
    beta and horizontal phase phi0."""

    beta: float
    phi0: float


def _limit_covector(beta: float, phi0: float) -> Covector:
    """The covector (cos phi0, sin phi0, beta) on the limit metric, its
    causal record built from beta: near the pole pbar3 -> 1 (|beta| -> inf)
    it keeps the digits that 1 - pbar3^2 would cancel."""
    kil = 1.0 - beta * beta  # |kil| rounds beta^2 - 1 once: pbar3(3/sqrt(5)) = 1.5
    c, s = math.cos(phi0), math.sin(phi0)
    if kil == 0.0:
        return Covector(c, s, beta, 0.0, CausalType.LIGHT_LIKE, 0.0, None)
    norm = math.sqrt(abs(kil))
    ctype = CausalType.TIME_LIKE if kil < 0.0 else CausalType.SPACE_LIKE
    return Covector(c, s, beta, kil, ctype, norm, beta / norm)


def sr_exp_map(sp: SrMomentum, t: float) -> SplitQuaternion:
    """Endpoint of the unit-speed sub-Riemannian geodesic at time t.
    DomainError for a beta whose square or a phi0 that is not finite;
    t as in exp_map (NegativeTime for t < 0, DomainError if not finite)."""
    if not (math.isfinite(sp.beta * sp.beta) and math.isfinite(sp.phi0)):
        raise DomainError(f"momentum must be finite, got {sp!r}")
    return exp_map(_LIMIT, _limit_covector(sp.beta, sp.phi0), t)


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
    """Cut time of the sub-Riemannian geodesic with vertical parameter beta:
    `cut_time` on the limit metric.  From |beta| = 3/sqrt(5) up (pbar3 <= 3/2)
    it is the conjugate cap 2 pi / sqrt(beta^2 - 1); below, the first zero
    of q0; +inf at beta = 0.  Even in beta.  DomainError for a NaN beta;
    |beta| = inf gives 0.
    """
    if math.isnan(beta):
        raise DomainError("beta must not be NaN")
    if math.isinf(beta):
        return 0.0
    return cut_time(_LIMIT, _limit_covector(beta, 0.0))


def limit_comparison(
    pbar3: float, ctype: CausalType, eta_list: list[float]
) -> list[tuple[float, float, float, float]]:
    """Riemannian versus sub-Riemannian cut time along eta -> -1.

    For each eta in eta_list (all < -1, strictly increasing) builds the
    I1 = 1 metric, takes the covector with the given pbar3 at phase 0, and
    tabulates (eta, riemannian cut, sub-Riemannian cut, absolute gap).
    The gaps shrink to zero as eta approaches -1; equal times (both +inf
    at the space-like equator) have gap 0.
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
        rows.append((eta, riem, sr, 0.0 if riem == sr else abs(riem - sr)))
    return rows
