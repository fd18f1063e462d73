"""Reference work that tracks how fast this process runs right now.

On a shared machine the speed of a core drifts with what other tenants
do: here the mean latency of the same riemannian_log ops moved by 25%
between runs a few minutes apart, while their ratio to this reference
work, timed next to each op, held within a few percent.  So the
benchmark times the reference right before every op it runs in its own
process, and reports those ops' latencies scaled to a machine on which
the reference takes REFERENCE_S:

    reported = measured * REFERENCE_S / median reference time around it

The figures read as milliseconds of that reference machine; each run's
record also holds the unscaled ones.  The reference does not track child
processes: their start-up cost drifts with the interpreter's site hooks
and the page cache rather than with the core's speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

# about what the reference took on the 2-core Xeon the bench was tuned on
REFERENCE_S = 0.0005


@dataclass(frozen=True)
class _Point:
    x: float
    y: float
    r: float


def _rotate(x, y, angle):
    c, s = math.cos(angle), math.sin(angle)
    return (x * c - y * s, x * s + y * c)


def _reference_work():
    """Fixed pure-Python work in the style of hypgeo's kernels: calls,
    math-module functions, float arithmetic, and frozen dataclasses
    built and dropped."""
    points = []
    x, y = 0.3, 0.7
    for i in range(250):
        x, y = _rotate(0.5 * x + 0.1, 0.5 * y + 0.2, 1e-3 * i)
        points.append(_Point(x, y, math.hypot(x, y) + math.cosh(0.1 * x)))
    return sum(p.r for p in points)


def reference_seconds():
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0
