"""Reference formulas the output checks use instead of the code under test."""

from __future__ import annotations

import math


def exp_closed_form(i1, i3, p, light, t):
    """Endpoint (q0, q1, q2, q3) of the unit-speed geodesic of covector p.

    With eta = -I1/I3 - 1, |p| = sqrt(|p1^2 + p2^2 - p3^2|), tau = t|p|/(2 I1)
    and theta = tau eta p3/|p|:

        q0 = C(tau) cos(theta) - (p3/|p|) S(tau) sin(theta)
        (q1, q2) = S(tau) R(-theta) (p1, p2)/|p|
        q3 = C(tau) sin(theta) + (p3/|p|) S(tau) cos(theta)

    where (C, S) is (cos, sin) for time-like p and (cosh, sinh) for
    space-like p.  On the light cone |p| -> 0 and the limit is affine in t
    with theta = t eta p3 / (2 I1).
    """
    p1, p2, p3 = p
    eta = -i1 / i3 - 1.0
    if light:
        theta = t * eta * p3 / (2.0 * i1)
        big_c, big_s, u1, u2, u3 = 1.0, t / (2.0 * i1), p1, p2, p3
    else:
        kil = p1 * p1 + p2 * p2 - p3 * p3
        norm = math.sqrt(abs(kil))
        tau = t * norm / (2.0 * i1)
        u1, u2, u3 = p1 / norm, p2 / norm, p3 / norm
        theta = tau * eta * u3
        if kil < 0.0:
            big_c, big_s = math.cos(tau), math.sin(tau)
        else:
            big_c, big_s = math.cosh(tau), math.sinh(tau)
    ct, st = math.cos(theta), math.sin(theta)
    x = u1 * ct + u2 * st
    y = -u1 * st + u2 * ct
    return (
        big_c * ct - u3 * big_s * st,
        big_s * x,
        big_s * y,
        big_c * st + u3 * big_s * ct,
    )
