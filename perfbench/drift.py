"""Correction of timings for drift in the host's speed.

On a shared host the same computation can run 1.1 to 2.2 times slower
than on a quiet one, in stretches of seconds to minutes (other tenants on
the same physical cores).  Runs of 30 s then differ by 10-40 % for reasons
that have nothing to do with the code.  The slowdown is common to all
interpreted work, so a fixed reference computation timed between
operations measures it: each operation's latency is scaled by
``REFERENCE_S / t_ref``, with ``t_ref`` the mean of the reference timings
taken just before and just after it.  The result reads as the latency on a
host where the reference takes ``REFERENCE_S``.  The reference does not
touch polyacert, so a change to the program cannot move it.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# A round nominal time for the reference.  On the 2-vCPU x86_64 VM this was
# built on it took 0.7-1.2 ms, depending on the host's load.  Runs stop after
# --seconds of corrected time, so their wall time scales with t_ref / REFERENCE_S.
REFERENCE_S = 0.001
SAMPLE_EVERY_S = 0.05  # operation time between two reference timings


def _reference_work() -> int:
    """Big-integer rational arithmetic and dict and string churn, like the program's own mix."""
    x = Fraction(0)
    for k in range(1, 120):
        x += Fraction(k, k * k + 1)
    table = {i: f"{i * 7919:x}" for i in range(600)}
    return x.numerator % 97 + len(table)


def reference_time() -> float:
    """Seconds the reference computation takes now: the median of three timings."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


class DriftMeter:
    """Reference timings interleaved with a closed loop of operations."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []  # (operations done before it, seconds)
        self._busy = 0.0

    def sample(self, ops_done: int) -> None:
        self.samples.append((ops_done, reference_time()))
        self._busy = 0.0

    def after_op(self, ops_done: int, seconds: float) -> None:
        """Call after each operation; times the reference every SAMPLE_EVERY_S of work."""
        self._busy += seconds
        if self._busy >= SAMPLE_EVERY_S:
            self.sample(ops_done)

    def current_factor(self) -> float:
        """``REFERENCE_S`` over the latest reference time: the correction known so far."""
        return REFERENCE_S / self.samples[-1][1]

    def finish(self, ops_done: int) -> None:
        if not self.samples or self.samples[-1][0] != ops_done:
            self.sample(ops_done)

    def factors(self, n_ops: int) -> list[float]:
        """Per operation, ``REFERENCE_S`` over the reference time around it."""
        out = []
        k = 0
        for i in range(n_ops):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            before, after = self.samples[k][1], self.samples[k + 1][1]
            out.append(REFERENCE_S / ((before + after) / 2))
        return out

    def slowdown(self) -> float:
        """Mean reference time over its nominal value: 1.0 is a host at nominal speed."""
        return sum(s for _, s in self.samples) / len(self.samples) / REFERENCE_S
