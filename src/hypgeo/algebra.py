"""Split-quaternion model of SL(2,R) and PSL(2,R).

The group SU(1,1) = {q0 + q1 i + q2 j + q3 k : q0^2 - q1^2 - q2^2 + q3^2 = 1}
sits inside the split quaternions, whose imaginary units obey

    i*i = j*j = 1,   k*k = -1,
    i*j = -k,  j*k = i,  k*i = j   (anticommuting pairs).

SU(1,1) is isomorphic to SL(2,R) through the linear map
psi(a, b, c, d) = ((a+d)/2, (a-d)/2, (b+c)/2, (c-b)/2) of the matrix
[[a, b], [c, d]], and PSL(2,R) is its quotient by the center {+-1}.

Everything here is plain scalar arithmetic on unit split quaternions.
Pure math: no arrays, no state.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError


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
