"""The host's speed, sampled while the program runs.

On a shared host the same repetition of a workload can take twice as long
from one minute to the next, and its speed varies within a second too,
because other tenants contend for the cores and their caches. A
``Sampler`` runs a fixed tick of interpreter work on a wall-clock timer
every ``INTERVAL_S`` while a workload runs, so the ticks see the same
host as the program does. ``Sampler.clock`` leaves the ticks' own time
out, and run.py multiplies a repetition's times by ``speed_scale`` of the
repetition's median tick time, so the reported times read as the host
would show them at one fixed speed. The median, unlike the mean, ignores
the few ticks that a preemption stretched tenfold. The tick is
pure Python work of the kind the simulator does most: a small memoised
lookahead with tuples, dicts, bit masks and float arithmetic. Of the
kernels tried, it tracked the program's speed most closely on both
workloads. It frees all it allocates before it returns, and it does not
use trustgrid, so a change to the program cannot change it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds one tick took on the 2-core host the benchmark was tuned on, in
# its quiet state; scaled times read as seconds on that host.
REFERENCE_TICK_S = 0.0001

# How much the program's time moves, in log terms, per unit move of the
# tick's time when the host's speed changes. On the 2-core host, over
# groups of five to ten repetitions and over whole runs, the program's
# time moved 1.3 to 2 times as much as the tick's on both workloads: the
# program's larger working set suffers more from contention for caches.
ELASTICITY = 1.5

INTERVAL_S = 0.005

# A fixed 5x5 window: 0 uncovered, 1 covered, 2 outside the grid.
_WINDOW = bytes([0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0, 1, 0, 0, 1])
_SIZE = 5
_MOVES = ((0, 0), (0, -1), (0, 1), (-1, 0), (1, 0))


def tick() -> float:
    """A fixed piece of work: a memoised two-step coverage lookahead from
    the centre of ``_WINDOW``, built like the program's value oracle."""
    moves = []
    for idx in range(_SIZE * _SIZE):
        row, col = divmod(idx, _SIZE)
        dests = []
        for dx, dy in _MOVES:
            nr, nc = row + dy, col + dx
            nidx = nr * _SIZE + nc if 0 <= nr < _SIZE and 0 <= nc < _SIZE else idx
            dests.append(idx if _WINDOW[nidx] == 2 else nidx)
        moves.append(tuple(dests))
    memo: dict[tuple[int, int, int], float] = {}

    def best(idx: int, mask: int, depth: int) -> float:
        if depth == 0:
            return 0.0
        key = (idx, mask, depth)
        cached = memo.get(key)
        if cached is not None:
            return cached
        out = 0.0
        for dest in moves[idx]:
            bit = 1 << dest
            if _WINDOW[dest] == 0 and not mask & bit:
                value = 1.0 + 0.9 * best(dest, mask | bit, depth - 1)
            else:
                value = 0.9 * best(dest, mask, depth - 1)
            out = max(out, value)
        memo[key] = out
        return out

    centre = (_SIZE * _SIZE) // 2
    return sum(best(dest, 0, 2) for dest in moves[centre])


def speed_scale(tick_s: float) -> float:
    """Factor that takes a time measured while ticks took ``tick_s`` to
    the reference speed."""
    return (REFERENCE_TICK_S / tick_s) ** ELASTICITY


class Sampler:
    """Runs ``tick`` from a SIGALRM handler every ``INTERVAL_S`` of wall
    time between ``start`` and ``stop``, and records each tick's time."""

    def __init__(self) -> None:
        self.spent_s = 0.0
        self.durations: list[float] = []
        self._busy = False

    def _handler(self, signum, frame) -> None:
        if self._busy:  # a late signal arrived while a tick ran
            return
        self._busy = True
        begin = time.perf_counter()
        tick()
        elapsed = time.perf_counter() - begin
        self.spent_s += elapsed
        self.durations.append(elapsed)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter without the time spent in ticks so far."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:  # no tick ran in between
                return now - spent

    def result(self) -> dict:
        ticks = len(self.durations)
        return {
            "ticks": ticks,
            "tick_spent_s": self.spent_s,
            "tick_s": statistics.median(self.durations) if ticks else None,
        }
