"""Derivation tools: the closed forms the tests check the package against.

The package does not carry these.  Each states a fact of the paper's
derivation in its own code, apart from the code it checks:

* `sq_exp`, the exponential of the algebra.  Exp(p, t) is the product of
  two of its one-parameter subgroups (criterion 2), and the disk model's
  tests draw group elements from it.
* The O(2) x Z2 symmetry group of the exponential map
  (`SymmetryElement`, `apply_symmetry_preimage`, `apply_symmetry_image`).
  The symmetric partner of a covector reaches the same point at a
  Maxwell time (criterion 3), and Exp intertwines the two actions.
* `jacobian` and `tau_of_t`: the Jacobian of the exponential map in
  (tau, pbar3) vanishes, with a sign change, at the conjugate time
  (criterion 5).

Each keeps its own guards and raises the package's DomainError, so a
drawn input that it rejects reads as rejected input.
"""

import math
from typing import NamedTuple

from hypgeo import CausalType, Covector, DomainError, Metric, SplitQuaternion, vertical_flow


def _rotate(x: float, y: float, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (x * c - y * s, x * s + y * c)


def sq_exp(v1: float, v2: float, v3: float) -> SplitQuaternion:
    """Exponential of the algebra element v1 i/2 + v2 j/2 + v3 k/2.

    The half comes from the orthonormal basis (i/2, j/2, k/2) of the
    algebra, so powers of a pure imaginary vector close up and the series
    sums to a rotation-like form in |v|/2:

        kappa  = v1^2 + v2^2 - v3^2        (squared causal character)
        kappa < 0:  cos(|v|/2)  + sin(|v|/2)  * vhat
        kappa = 0:  1 + (v1 i + v2 j + v3 k)/2
        kappa > 0:  cosh(|v|/2) + sinh(|v|/2) * vhat

    with |v| = sqrt(|kappa|) and vhat = v/|v|.  Only kappa == 0 takes the
    affine form: near the cone the others lose no digits, as sin(|v|/2)/|v|
    and sinh(|v|/2)/|v| tend to 1/2.  Raises DomainError when kappa is not
    finite or cosh/sinh overflows.
    """
    kappa = v1 * v1 + v2 * v2 - v3 * v3
    if not math.isfinite(kappa):
        raise DomainError(f"exponent ({v1!r}, {v2!r}, {v3!r}) is not finite or too large")
    if kappa == 0.0:
        return SplitQuaternion(1.0, 0.5 * v1, 0.5 * v2, 0.5 * v3)
    norm = math.sqrt(abs(kappa))
    half = 0.5 * norm
    if kappa < 0.0:
        s = math.sin(half) / norm
        return SplitQuaternion(math.cos(half), s * v1, s * v2, s * v3)
    try:
        ch, sh = math.cosh(half), math.sinh(half)
    except OverflowError:
        raise DomainError(f"exponent norm {norm!r} overflows cosh") from None
    s = sh / norm
    return SplitQuaternion(ch, s * v1, s * v2, s * v3)


# ---- Jacobian of the exponential map -----------------------------------

def tau_of_t(m: Metric, p: Covector, t: float) -> float:
    """Rescaled time tau = t*|p|/(2*I1) used by the closed-form geodesics;
    DomainError for a light-like covector or a time that is not finite."""
    if p.ctype is CausalType.LIGHT_LIKE:
        raise DomainError("tau is undefined for light-like covectors")
    if not math.isfinite(t):
        raise DomainError(f"time must be finite, got {t!r}")
    return t * p.norm / (2.0 * m.i1)


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
        raise DomainError("jacobian factor is undefined on the light cone")
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
