"""Split-quaternion model of SL(2,R) and its isometric action on the disk.

The group SU(1,1) = {q0 + q1 i + q2 j + q3 k : q0^2 - q1^2 - q2^2 + q3^2 = 1}
sits inside the split quaternions, whose imaginary units obey

    i*i = j*j = 1,   k*k = -1,
    i*j = -k,  j*k = i,  k*i = j   (anticommuting pairs).

SU(1,1) is isomorphic to SL(2,R) through the linear map psi implemented by
`from_sl2`, and the quotient by the center {+-1} acts on the open unit disk
by orientation-preserving hyperbolic isometries (`to_mobius_apply`).

Everything here is plain scalar arithmetic on unit split quaternions.
Pure math: no arrays, no state.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import (
    DegenerateDenominator,
    DeterminantError,
    DomainError,
    IdentityInput,
    OutsideDisk,
)

# Classification tolerances. The discriminant threshold follows the package
# convention that a unit quaternion within 1e-10 of the parabolic cone is
# reported as parabolic rather than as a barely elliptic/hyperbolic element.
DETERMINANT_TOLERANCE = 1e-9
PARABOLIC_TOLERANCE = 1e-10
IDENTITY_TOLERANCE = 1e-12


class SplitQuaternion(NamedTuple):
    """One split quaternion q0 + q1 i + q2 j + q3 k."""

    q0: float
    q1: float
    q2: float
    q3: float

    def components(self) -> tuple[float, float, float, float]:
        return (self.q0, self.q1, self.q2, self.q3)

    def pseudo_norm(self) -> float:
        """q0^2 - q1^2 - q2^2 + q3^2; equals 1 on the group.  DomainError
        when that is not finite (a component NaN, or squares that overflow)."""
        q0, q1, q2, q3 = self
        pn = q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3
        if not math.isfinite(pn):
            raise DomainError(f"pseudo-norm of {self!r} is not finite")
        return pn

    def __neg__(self) -> "SplitQuaternion":
        return SplitQuaternion(-self.q0, -self.q1, -self.q2, -self.q3)


class Psl2Element(NamedTuple):
    """A point of PSL(2,R) stored through its canonical unit-quaternion lift.

    The representative of {q, -q} satisfies rep.q0 > 0, or rep.q0 == 0 and
    rep.q3 > 0 (q0 and q3 cannot vanish together on the group).  One
    exception: `cut_locus_sample` lifts the points of Z, and the R_eta
    point on Z, with rep.q3 > 0, since their q0 is rounding noise of
    either sign.
    """

    rep: SplitQuaternion

    def components(self) -> tuple[float, float, float, float]:
        return self.rep.components()


class IsometryKind(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class IsometryClass(NamedTuple):
    """Conjugacy data of a disk isometry.

    fixed_points holds one interior point for elliptic maps, one boundary
    point for parabolic maps and two boundary points for hyperbolic maps.
    rotation_angle is set for elliptic maps only (angle of rotation about
    the interior fixed point, in (-2pi, 2pi), convention 2*arg(q0 + q3 i)
    on the rotation axis).
    """

    kind: IsometryKind
    fixed_points: tuple[complex, ...]
    rotation_angle: float | None = None


def sq_mul(a: SplitQuaternion, b: SplitQuaternion) -> SplitQuaternion:
    """Product of two split quaternions.

    Bilinear extension of the unit table above; the pseudo norm is
    multiplicative, so the group is closed under this product.  DomainError
    for a product that is not finite: a NaN or infinite factor reaches it.
    """
    a0, a1, a2, a3 = a.q0, a.q1, a.q2, a.q3
    b0, b1, b2, b3 = b.q0, b.q1, b.q2, b.q3
    q = SplitQuaternion(
        a0 * b0 + a1 * b1 + a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 - a1 * b2 + a2 * b1,
    )
    if not all(map(math.isfinite, q)):
        raise DomainError(f"product of {a!r} and {b!r} is not finite")
    return q


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


def from_sl2(a: float, b: float, c: float, d: float) -> SplitQuaternion:
    """Image of the matrix [[a, b], [c, d]] under the group isomorphism.

    psi(a,b,c,d) = ((a+d)/2, (a-d)/2, (b+c)/2, (c-b)/2).  Raises
    DeterminantError unless a*d - b*c = 1 within tolerance.
    """
    det = a * d - b * c
    if not abs(det - 1.0) <= DETERMINANT_TOLERANCE:  # NaN fails too
        raise DeterminantError(f"determinant {det!r} is not 1")
    return SplitQuaternion(
        0.5 * (a + d), 0.5 * (a - d), 0.5 * (b + c), 0.5 * (c - b)
    )


def to_sl2(q: SplitQuaternion) -> tuple[float, float, float, float]:
    """Inverse of from_sl2; returns the matrix entries (a, b, c, d).
    DomainError for an entry that is not finite (a component NaN or
    infinite, or a sum that overflows)."""
    entries = (q.q0 + q.q1, q.q2 - q.q3, q.q2 + q.q3, q.q0 - q.q1)
    if not all(map(math.isfinite, entries)):
        raise DomainError(f"SL(2,R) matrix of {q!r} is not finite")
    return entries


def psl2_canonicalize(q: SplitQuaternion) -> Psl2Element:
    """Canonical representative of {q, -q}.

    Keeps q when q0 > 0, or when q0 == 0 and q3 > 0; otherwise flips the
    sign.  q0 = q3 = 0 cannot occur on the unit pseudo-norm surface, and a
    component that is not finite has no sign: both raise DomainError.
    """
    if not all(map(math.isfinite, q)):
        raise DomainError(f"cannot canonicalize {q!r}: a component is not finite")
    if q.q0 < 0.0 or (q.q0 == 0.0 and q.q3 < 0.0):
        q = -q
    elif q.q0 == 0.0 and q.q3 == 0.0:
        raise DomainError("q0 = q3 = 0 is impossible for a unit split quaternion")
    # normalize -0.0 so canonical components compare cleanly
    if q.q0 == 0.0:
        q = SplitQuaternion(0.0, q.q1, q.q2, q.q3)
    return Psl2Element(q)


def _mobius(q: SplitQuaternion, z: complex) -> complex:
    """The disk automorphism's formula at any z (see to_mobius_apply); DomainError
    for a q that is not finite, DegenerateDenominator where it has a pole."""
    if not all(map(math.isfinite, q)):
        raise DomainError(f"automorphism of {q!r}: a component is not finite")
    # degree 0 in q: an exact power-of-two scale to max |q_i| < 1 keeps its products finite
    e = -math.frexp(max(map(abs, q)))[1]
    q0, q1, q2, q3 = (math.ldexp(c, e) for c in q)
    alpha, beta = complex(q0, q3), complex(q1, q2)
    den = beta.conjugate() * z + alpha.conjugate()
    if abs(den) <= 1e-14 * (abs(alpha) + abs(beta)):  # also q = 0
        raise DegenerateDenominator("automorphism denominator vanished")
    return (alpha * z + beta) / den


def to_mobius_apply(q: SplitQuaternion, z: complex) -> complex:
    """Apply the disk automorphism of q to a point of the open unit disk.

        z  ->  ((q0 + q3 i) z + (q1 + q2 i)) / ((q1 - q2 i) z + (q0 - q3 i))

    Unit quaternions map the open disk onto itself and q, -q act
    identically, so this factors through PSL(2,R).
    """
    if not abs(z) < 1.0:  # NaN fails too
        raise OutsideDisk(f"|z| = {abs(z)!r} is not < 1")
    return _mobius(q, z)


def classify_isometry(q: SplitQuaternion) -> IsometryClass:
    """Classify the disk isometry of q and return its fixed points.

    Fixed points solve (q1 - q2 i) z^2 - 2 q3 i z - (q1 + q2 i) = 0, whose
    (real) discriminant sign is that of q1^2 + q2^2 - q3^2 = q0^2 - 1:

        < 0  elliptic    one fixed point inside the disk
        = 0  parabolic   one fixed point on the boundary circle
        > 0  hyperbolic  two fixed points on the boundary circle

    Raises IdentityInput for q = +-1, which fixes everything, and
    DomainError when q0 or the squared size of the imaginary part is not
    finite (the discriminant, no larger in size, then is finite too).
    """
    imag2 = q.q1 * q.q1 + q.q2 * q.q2 + q.q3 * q.q3
    if not (math.isfinite(imag2) and math.isfinite(q.q0)):
        raise DomainError(f"isometry class needs finite components and squares, got {q!r}")
    if imag2 < IDENTITY_TOLERANCE **2:
        raise IdentityInput("identity has no isometry class")

    disc = q.q1 * q.q1 + q.q2 * q.q2 - q.q3 * q.q3
    lead = complex(q.q1, -q.q2)

    if abs(disc) <= PARABOLIC_TOLERANCE:
        # boundary double root; lead != 0 since q3^2 = q1^2 + q2^2 > 0 here
        z = complex(0.0, q.q3) / lead
        return IsometryClass(IsometryKind.PARABOLIC, (z / abs(z),))

    if disc < 0.0:
        w = math.sqrt(-disc)
        if q.q1 * q.q1 + q.q2 * q.q2 < 1e-30:
            # rotation about the origin
            angle = 2.0 * math.atan2(q.q3, q.q0)
            return IsometryClass(IsometryKind.ELLIPTIC, (0.0 + 0.0j,), angle)
        # the two roots have reciprocal moduli; keep the interior one
        z_plus = complex(0.0, q.q3 + w) / lead
        z_minus = complex(0.0, q.q3 - w) / lead
        z = z_plus if abs(z_plus) < abs(z_minus) else z_minus
        # rotation angle is conjugation data: trace and the sign of the
        # elliptic axis component, which cannot vanish while disc < 0
        angle = 2.0 * math.atan2(math.copysign(w, q.q3), q.q0)
        return IsometryClass(IsometryKind.ELLIPTIC, (z,), angle)

    w = math.sqrt(disc)
    z_plus = (complex(0.0, q.q3) + w) / lead
    z_minus = (complex(0.0, q.q3) - w) / lead
    return IsometryClass(
        IsometryKind.HYPERBOLIC,
        (z_plus / abs(z_plus), z_minus / abs(z_minus)),
    )


def hyperbolic_distance(z1: complex, z2: complex, c: float = 1.0) -> float:
    """Distance between two points of the unit disk, curvature scale c:

        rho(z1, z2) = c artanh(x),   x = |z2 - z1| / |1 - conj(z1) z2|,

    the distance from the origin of z2's image under the automorphism
    sending z1 to 0.  It is evaluated as (c/2) log1p(2x / (1 - x)) with
    1 - x = (1 - |z1|^2)(1 - |z2|^2) / (|1 - conj(z1) z2|^2 (1 + x)),
    which does not cancel: near the boundary x rounds to 1, 1 - x does not.
    """
    if not 0.0 < c < math.inf:  # NaN fails too
        raise DomainError(f"curvature scale must be finite and > 0, got {c!r}")
    z1, z2 = complex(z1), complex(z2)
    r1, r2 = abs(z1), abs(z2)
    if not (r1 < 1.0 and r2 < 1.0):  # NaN fails too
        raise OutsideDisk("distance arguments must lie in the open disk")
    den = abs(1.0 - z1.conjugate() * z2)
    x = abs(z2 - z1) / den
    one_minus_x = (1.0 - r1) * (1.0 + r1) * (1.0 - r2) * (1.0 + r2) / (den * den * (1.0 + x))
    return 0.5 * c * math.log1p(2.0 * x / one_minus_x)


def mobius_fixed_point_residual(q: SplitQuaternion, z: complex) -> float:
    """|f(z) - z| for the automorphism of q, valid on the closed disk.

    Diagnostic used to check classify_isometry output; boundary fixed
    points of parabolic and hyperbolic maps are outside the domain of
    to_mobius_apply, so its disk guard is skipped here.  DomainError for
    a z that is not finite.
    """
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"fixed-point residual needs a finite z, got {z!r}")
    return abs(_mobius(q, z) - z)
