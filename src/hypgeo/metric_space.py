"""Diagonal left-invariant metrics with two equal eigenvalues, and their
unit-energy covectors.

A metric is the inertia pair (I1, I1, I3) on the three-dimensional group,
summarized by the shape parameter

    eta = -I1/I3 - 1  <  -1.

Initial momenta of unit-speed geodesics live on the ellipsoid

    C:  p1^2/I1 + p2^2/I1 + p3^2/I3 = 1,

stratified by the sign of the bilinear form Kil(p) = p1^2 + p2^2 - p3^2
into time-like (Kil < 0), light-like (Kil = 0) and space-like (Kil > 0)
covectors.  On C the identity Kil(p) = I1 + eta*p3^2 holds, which pins the
causal norm |p| = sqrt(|Kil|) to the vertical coordinate:

    |p| = sqrt(I1 / (-type * r)),   r = 1 + type * eta * pbar3^2,

with pbar3 = p3/|p| and type = +1 (time-like) / -1 (space-like).  The
normalized vertical momentum pbar3 runs over |pbar3| >= 1 on the time-like
caps and over all of (-inf, +inf) on the space-like band, diverging at the
light cone.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, NonPositiveEigenvalue, NotOnC

ON_C_TOLERANCE = 1e-9
LIGHT_TOLERANCE = 1e-9  # |Kil| < LIGHT_TOLERANCE * I1 classifies light-like

# eta thresholds separating qualitative regimes (see optimality module):
ETA_POLE_SPLIT_PSL2 = -1.5          # pbar3 threshold -3/(2 eta) exists above
ETA_POLE_SPLIT_SL2 = -2.0           # pbar3 threshold -2/eta exists above
ETA_INJ_SPLIT = (-3.0 - math.sqrt(73.0)) / 8.0  # injectivity radius switch


class CausalType(Enum):
    TIME_LIKE = "time-like"
    LIGHT_LIKE = "light-like"
    SPACE_LIKE = "space-like"


class Metric(NamedTuple):
    """Inertia pair (I1 = I2, I3) of a diagonal left-invariant metric."""

    i1: float
    i3: float

    @property
    def eta(self) -> float:
        return -self.i1 / self.i3 - 1.0

    def light_cone_p3(self) -> float:
        """Positive vertical momentum of the light cone on C."""
        return math.sqrt(-self.i1 / self.eta)


class Covector(NamedTuple):
    """A unit-energy covector on C together with its causal data.

    norm is sqrt(|Kil|) (zero when light-like) and pbar3 = p3/norm is None
    for light-like covectors, where it is undefined.
    """

    p1: float
    p2: float
    p3: float
    kil: float
    ctype: CausalType
    norm: float
    pbar3: float | None

    def components(self) -> tuple[float, float, float]:
        return (self.p1, self.p2, self.p3)


def check_count(n, least: int, name: str = "n") -> int:
    """n as an int (operator.index: int, bool or numpy integer) if it is at
    least `least`; DomainError naming it otherwise, a float included."""
    try:
        k = operator.index(n)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {n!r}") from None
    if k < least:
        raise DomainError(f"need {name} >= {least}")
    return k


def make_metric(i1: float, i3: float) -> Metric:
    """Validated metric constructor; both eigenvalues must be positive and
    finite, with a ratio I1/I3 that eta represents: -inf < eta < -1."""
    if not (i1 > 0.0) or not (i3 > 0.0):
        raise NonPositiveEigenvalue(f"inertia values must be > 0, got {i1!r}, {i3!r}")
    if not (math.isfinite(i1) and math.isfinite(i3)):
        raise DomainError(f"inertia values must be finite, got {i1!r}, {i3!r}")
    m = Metric(float(i1), float(i3))
    if not -math.inf < m.eta < -1.0:
        raise DomainError(f"ratio I1/I3 = {i1!r}/{i3!r} gives eta = {m.eta!r}, not in (-inf, -1)")
    return m


def metric_from_eta(eta: float, i1: float = 1.0) -> Metric:
    """Metric with prescribed shape parameter eta < -1 and given I1."""
    if not (eta < -1.0):
        raise DomainError(f"eta must be < -1, got {eta!r}")
    return make_metric(i1, -i1 / (1.0 + eta))


def covector_from_components(m: Metric, p1: float, p2: float, p3: float) -> Covector:
    """Covector from raw components, validated against the surface C (a NaN
    component fails the check).  The light-cone rule for a caller's
    components: |Kil| < LIGHT_TOLERANCE * I1 is light-like, so a covector of
    known type rebuilt from its components is light-like within that band."""
    energy = (p1 * p1 + p2 * p2) / m.i1 + p3 * p3 / m.i3
    if not abs(energy - 1.0) <= ON_C_TOLERANCE:
        raise NotOnC(f"energy {energy!r} differs from 1 beyond tolerance")
    kil = p1 * p1 + p2 * p2 - p3 * p3
    if abs(kil) < LIGHT_TOLERANCE * m.i1:
        return Covector(p1, p2, p3, kil, CausalType.LIGHT_LIKE, 0.0, None)
    norm = math.sqrt(abs(kil))
    ctype = CausalType.TIME_LIKE if kil < 0.0 else CausalType.SPACE_LIKE
    return Covector(p1, p2, p3, kil, ctype, norm, p3 / norm)


def covector_of_type(
    m: Metric, ctype: CausalType, pbar3: float, horizontal: float, phase: float
) -> Covector:
    """Exact record of the time-like or space-like covector with this pbar3
    and horizontal part |p| horizontal at angle phase, where the caller's
    horizontal is sqrt(pbar3^2 - type): |p| as in the module docstring and
    Kil = -type |p|^2.  DomainError naming pbar3 unless |p| is finite and
    positive: pbar3 not finite, its square overflowing, or 1 + type eta
    pbar3^2 = 0 (pbar3 = +-1 on the limit metric eta = -1, the poles)."""
    sign = 1.0 if ctype is CausalType.TIME_LIKE else -1.0
    r = -(sign * (1.0 + sign * m.eta * pbar3 * pbar3))
    norm = math.sqrt(m.i1 / r) if r > 0.0 else 0.0
    if not 0.0 < norm < math.inf:
        raise DomainError(
            f"pbar3 must be finite with a finite square, off the poles of eta = -1, got {pbar3!r}"
        )
    radial = norm * horizontal
    return Covector(radial * math.cos(phase), radial * math.sin(phase), pbar3 * norm,
                    -sign * norm * norm, ctype, norm, pbar3)


def covector_from_pbar3(
    m: Metric, pbar3: float, phase: float, ctype: CausalType
) -> Covector:
    """Covector with prescribed normalized vertical momentum and phase.

    The horizontal part has magnitude |p|*sqrt(pbar3^2 - type) at angle
    `phase`, which together with p3 = pbar3*|p| places the result on C
    with the requested causal type and its exact record (covector_of_type:
    pbar3 bit for bit, however near the light cone).  Light-like
    covectors carry no pbar3; use light_covector for those.
    """
    if ctype is CausalType.LIGHT_LIKE:
        raise DomainError("light-like covectors have no pbar3; use light_covector")
    if not math.isfinite(phase):
        raise DomainError(f"phase must be finite, got {phase!r}")
    if ctype is CausalType.TIME_LIKE and abs(pbar3) < 1.0:
        raise DomainError(f"time-like needs |pbar3| >= 1, got {pbar3!r}")
    type_sign = 1.0 if ctype is CausalType.TIME_LIKE else -1.0
    return covector_of_type(m, ctype, pbar3, math.sqrt(pbar3 * pbar3 - type_sign), phase)


def light_covector(m: Metric, phase: float, p3_sign: int = 1) -> Covector:
    """The light-cone covector on C with given horizontal phase, Kil = 0
    exactly.

    The cone meets C where p1^2 + p2^2 = p3^2, i.e. p3 = +-sqrt(-I1/eta);
    DomainError where that underflows to 0, which is not on C.
    """
    if p3_sign not in (1, -1):
        raise DomainError("p3_sign must be +1 or -1")
    if not math.isfinite(phase):
        raise DomainError(f"phase must be finite, got {phase!r}")
    radial = m.light_cone_p3()
    if radial == 0.0:
        raise DomainError(f"the light cone's p3 underflows to 0 at I1 = {m.i1!r}")
    p3 = p3_sign * radial
    return Covector(radial * math.cos(phase), radial * math.sin(phase), p3,
                    0.0, CausalType.LIGHT_LIKE, 0.0, None)

