"""Reference model: PSL(2,R) acting on the unit disk by hyperbolic isometries.

The package does not carry this model. The tests use it as a second,
geometric reading of the split-quaternion group law: a unit quaternion q
acts on the open unit disk by

    z  ->  ((q0 + q3 i) z + (q1 + q2 i)) / ((q1 - q2 i) z + (q0 - q3 i)),

so `sq_mul` must compose these maps, `sq_exp` must give isometries of the
disk distance, and the trace q0 of `sq_exp(v)` must sort it into the
elliptic, parabolic or hyperbolic class.  The matrix map psi of the
`hypgeo.algebra` docstring is here too, with its inverse.

Each function keeps its own guards and is checked against an independent
formula (artanh against the cross ratio, fixed points against the residual).
"""

import math
from enum import Enum
from typing import NamedTuple

from hypgeo import DomainError, SplitQuaternion

# A unit quaternion within 1e-10 of the parabolic cone is reported as
# parabolic rather than as a barely elliptic/hyperbolic element.
DETERMINANT_TOLERANCE = 1e-9
PARABOLIC_TOLERANCE = 1e-10
IDENTITY_TOLERANCE = 1e-12


class DeterminantError(DomainError):
    """Matrix entries do not satisfy a*d - b*c = 1 within tolerance."""


class DegenerateDenominator(DomainError):
    """The disk automorphism denominator vanishes at the requested point."""


class IdentityInput(DomainError):
    """The identity element has no isometry classification."""


class OutsideDisk(DomainError):
    """A point expected inside the open unit disk has |z| >= 1."""


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
    fixed_points: tuple
    rotation_angle: float = None


def from_sl2(a, b, c, d):
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


def to_sl2(q):
    """Inverse of from_sl2; returns the matrix entries (a, b, c, d).
    DomainError for an entry that is not finite (a component NaN or
    infinite, or a sum that overflows)."""
    entries = (q.q0 + q.q1, q.q2 - q.q3, q.q2 + q.q3, q.q0 - q.q1)
    if not all(map(math.isfinite, entries)):
        raise DomainError(f"SL(2,R) matrix of {q!r} is not finite")
    return entries


def _mobius(q, z):
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


def to_mobius_apply(q, z):
    """Apply the disk automorphism of q to a point of the open unit disk.
    Unit quaternions map the open disk onto itself and q, -q act
    identically, so this factors through PSL(2,R)."""
    if not abs(z) < 1.0:  # NaN fails too
        raise OutsideDisk(f"|z| = {abs(z)!r} is not < 1")
    return _mobius(q, z)


def classify_isometry(q):
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
    if imag2 < IDENTITY_TOLERANCE ** 2:
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


def hyperbolic_distance(z1, z2, c=1.0):
    """Distance between two points of the unit disk, curvature scale c:

        rho(z1, z2) = c artanh(x),   x = |z2 - z1| / |1 - conj(z1) z2|,

    evaluated as (c/2) log1p(2x / (1 - x)) with
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


def mobius_fixed_point_residual(q, z):
    """|f(z) - z| for the automorphism of q, valid on the closed disk, so
    that boundary fixed points can be checked too.  DomainError for a z
    that is not finite."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"fixed-point residual needs a finite z, got {z!r}")
    return abs(_mobius(q, z) - z)
