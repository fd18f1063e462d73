"""Split-quaternion model of SL(2,R) and PSL(2,R).

The group SU(1,1) = {q0 + q1 i + q2 j + q3 k : q0^2 - q1^2 - q2^2 + q3^2 = 1}
sits inside the split quaternions, whose imaginary units obey

    i*i = j*j = 1,   k*k = -1,
    i*j = -k,  j*k = i,  k*i = j   (anticommuting pairs).

SU(1,1) is isomorphic to SL(2,R) through the linear map
psi(a, b, c, d) = ((a+d)/2, (a-d)/2, (b+c)/2, (c-b)/2) of the matrix
[[a, b], [c, d]], and PSL(2,R) is its quotient by the center {+-1}: a
point of either group is a SplitQuaternion, of PSL(2,R) either lift.

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


def psl2_canonicalize(q: SplitQuaternion) -> SplitQuaternion:
    """Canonical lift of the PSL(2,R) point {q, -q}.

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
    return q
