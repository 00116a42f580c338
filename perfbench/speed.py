"""Host-speed probe: wall time scaled to a fixed reference speed of the host.

The machine the benchmark was tuned on runs the same code up to about 1.7x
slower for seconds to minutes at a time (README, "Host speed").  Process CPU
time slows with it, so it cannot be taken out by measuring CPU time instead
of wall time.  What does take it out: a fixed probe, timed right before and
right after each timed operation, of the two kinds of work medext does, small
float64 numpy operations of the sizes it runs and interpreter work (dict
look-ups, small ints and strings).  Each part's time per iteration over its
reference time is the host's slowness as that part sees it; their mean is the
probe's.  Over many calls of the same work, medext's time moves nearly in
proportion to it (README, "Host speed"), so

    scaled = wall / (mean of the slowness before and after)

is the operation's wall time at the reference speed.  The probe runs outside
the timed interval, so it adds nothing to ``wall``; it is not medext code, so
no change to medext moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REF_NUMPY_S = 40e-6  # reference speed: one numpy iteration in 40 us
REF_PYTHON_S = 12e-6  # and one interpreter iteration in 12 us
STEP_PROBE = 48  # probe iterations around an optimizer step, eval call or set-up (~2.5 ms)
LINE_PROBE = 8  # around a predicted line (~0.4 ms; a line takes about 1 ms)

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((24, 64))
_W = _rng.standard_normal((64, 64)) * 0.1


def probe(iters: int) -> float:
    """The host's slowness over ``iters`` iterations of each part: 1.0 at reference speed."""
    x = _X
    t0 = perf_counter()
    for _ in range(iters):
        h = np.tanh(x @ _W)
        x = h * 0.5 + x * 0.5
        np.exp(h - h.max(axis=1, keepdims=True)).sum()
    t1 = perf_counter()
    for _ in range(iters):
        d: dict[int, int] = {}
        for i in range(60):
            d[i & 15] = d.get(i & 15, 0) + len(str(i))
    t2 = perf_counter()
    return 0.5 * ((t1 - t0) / REF_NUMPY_S + (t2 - t1) / REF_PYTHON_S) / iters


class Clock:
    """Laps of wall time, each with its scaled time; probes between laps."""

    def __init__(self, iters: int):
        self.iters = iters

    def start(self) -> None:
        self.before = probe(self.iters)
        self.t = perf_counter()

    def lap(self) -> tuple[float, float]:
        """(wall s, scaled s) since ``start`` or the previous lap."""
        wall = perf_counter() - self.t
        after = probe(self.iters)
        scaled = wall / (0.5 * (self.before + after))
        self.before = after
        self.t = perf_counter()
        return wall, scaled
