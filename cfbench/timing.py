"""Wall time scaled to a reference speed.

The host's speed drifts by more than the benchmark's bounds, both between
processes and within one: runs of a fixed loop a second apart in one
process took from 15 to 42 ms.  So the clock reads the host's speed while
each timed call runs, and scales the call's wall time to a nominal speed.

* The speed is read by timing a short fixed loop (SAMPLE_ITERS iterations):
  once right before the call, every SAMPLE_PERIOD_S seconds during it (from
  a SIGALRM handler, which CPython runs in the main thread between
  bytecodes), and once right after it.  Consecutive calls share the reading
  between them.
* A call's scaled seconds are (its wall time minus the time spent in the
  in-call readings) times the mean of NOMINAL_SAMPLE_S / reading.  The mean
  of the speeds, taken at even intervals, is the host's average speed over
  the call, so a slow spell inside a long call is scaled by its own length.
* The loop mixes what the program spends its time on: Python-level calls,
  big-int arithmetic and ``math.gcd`` (the core of ``Fraction``).  It uses
  only ints, which the cyclic garbage collector does not track, so the
  program's heap cannot change the loop's speed.

Ten repeats in one process of one 2 s call of exact_analytic spread by
11.5 % (coefficient of variation) raw and by 10.1 % when scaled by the
faster of two 20 ms loop runs before and after the call.  In another ten
repeats they spread by 10.0 % raw and by 4.3 % scaled by in-call readings.
"""

from __future__ import annotations

import signal
import statistics
from math import gcd
from time import perf_counter

SAMPLE_ITERS = 1_000
SAMPLE_PERIOD_S = 0.02
# Typical loop time on the machine the bounds were set on (2-vCPU x86-64 VM,
# CPython 3.11).  Any constant works; this one keeps scaled seconds close
# to that machine's wall seconds.
NOMINAL_SAMPLE_S = 0.0006


def _step(i: int, acc: int) -> int:
    return (acc * 31 + i) % 1_000_003


def ref_loop() -> float:
    """Seconds taken by one run of the fixed reference loop."""
    start = perf_counter()
    acc = 0
    a = 12_345_678_910_111_213
    b = 98_765_432_123
    for i in range(SAMPLE_ITERS):
        acc = _step(gcd(a + i, b) + (a * (i + 1)) % 1000, acc)
    elapsed = perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


class Clock:
    """Times calls at reference speed and keeps every loop reading."""

    def __init__(self):
        self._last_ref = ref_loop()
        self._in_call = None  # readings of the running call, or None
        self.ref_s = [self._last_ref]
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._in_call is not None:
            self._in_call.append(ref_loop())

    def time(self, fn, *args):
        """Run fn(*args); returns (result, scaled seconds, raw seconds)."""
        before = self._last_ref
        self._in_call = readings = []
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._in_call = None
        raw = perf_counter() - start
        self._last_ref = ref_loop()
        self.ref_s += readings + [self._last_ref]
        speed = statistics.fmean(NOMINAL_SAMPLE_S / r for r in [before, *readings, self._last_ref])
        return result, (raw - sum(readings)) * speed, raw

    def median_ref_s(self) -> float:
        return statistics.median(self.ref_s)
