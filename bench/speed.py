"""Host speed, for times that do not move with the shared host's load.

On a shared host the same code can run at half speed for minutes while
other tenants are busy, and the swings are far wider than the benchmark's
bounds.  So each timed in-process operation is followed by one run of
`kernel`, a fixed piece of pure-Python work shaped like the program's own
(float math, string formatting, a join, as in geometry and SVG emission)
that touches nothing under src/.  An operation's time is scaled by REF_MS
over the median of the WINDOW kernel times on either side of it: the time
the operation would take on a host where the kernel takes REF_MS.  The
median keeps one interrupted kernel run from setting an operation's scale.
A change to the program moves its times and not the kernel's, so the
scaled times still show it; a slow spell of the host moves both and
cancels out.
"""

from __future__ import annotations

import math
import statistics
import time

REF_MS = 7.0  # kernel time that scaled times refer to
WINDOW = 3


def kernel() -> int:
    out = []
    for i in range(3000):
        a = i * 0.001
        x, y = math.cos(a) * 100.0, math.sin(a) * 100.0
        out.append(f'  <circle cx="{x:.4f}" cy="{y:.4f}" r="{math.hypot(x, y):.4f}"/>')
    return len("\n".join(out))


def kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) * 1e3


def scaled(times_ms, kernel_times):
    """times_ms[i] was taken between kernel_times[i] and kernel_times[i + 1]."""
    return [t * REF_MS / statistics.median(kernel_times[max(0, i + 1 - WINDOW):i + 1 + WINDOW])
            for i, t in enumerate(times_ms)]
