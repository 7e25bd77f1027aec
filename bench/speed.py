"""Machine-speed correction for the benchmark's timings.

On a shared virtual machine the speed of a single Python thread swings by
about 1.5x, in phases that last from seconds to minutes, so two runs of the
same code can differ by a third in wall time.  A `Speedometer` measures the
speed the process is getting while it works: a timer interrupts the process
every INTERVAL_S seconds and runs one fixed calibration chunk of
benchmark-owned code (permutation products on image tuples hashed into a
set, field products and sums through method calls: the kinds of operation
the program spends its time on).  A span of work is then reported as its
wall time, minus the chunks that ran inside it, scaled by
(REFERENCE_CHUNK_S / mean chunk time in the span) ** ELASTICITY: the wall
time the same work takes when the machine runs at the reference speed.  The chunk is the
benchmark's own code, so a change to the program moves the corrected time
just as it moves the wall time.
"""

from __future__ import annotations

import bisect
import random
import signal
import time

INTERVAL_S = 0.1
# About the chunk time on the reference machine (2-vCPU VM, Xeon 2.1 GHz,
# Python 3.11.7) in its slow phase while the workloads run; from run to run
# it ranged over 1.9-3.8 ms.  Any fixed value would do: this one makes the
# corrected times read as seconds on that machine in its slow phase.
REFERENCE_CHUNK_S = 0.0034
# The program's times grow as this power of the chunk's.  Over 15 runs per
# workload that met both the fast and the slow phases of the reference
# machine, the round times went as the 0.71-0.82 power of the mean chunk
# time in the round (correlation 0.98-0.99 on every workload), set-up times
# as the 0.61-0.79 power: the chunk works in cache, the program less so,
# and it gains less from a fast phase.
ELASTICITY = 0.77
# Spans with fewer chunks than this borrow the nearest chunks around them.
MIN_CHUNKS = 9

_RNG = random.Random(20101018)
_P = tuple(_RNG.sample(range(240), 240))
_Q = tuple(_RNG.sample(range(240), 240))


class _Field:
    """Field-style arithmetic on the codes 0-26: products through log and
    exp table lookups (random tables, not a real field) and sums through
    base-3 digit loops, the way the program's field layer works."""

    def __init__(self):
        self.p, self.weights = 3, [1, 3, 9]
        size = 27
        self.exp = [_RNG.randrange(1, size) for _ in range(2 * size)]
        self.log = [0] + [_RNG.randrange(size - 1) for _ in range(size - 1)]

    def mul(self, i, j):
        if i == 0 or j == 0:
            return 0
        return self.exp[self.log[i] + self.log[j]]

    def add(self, i, j):
        out = 0
        for w in self.weights:
            out += ((i + j) % self.p) * w
            i //= self.p
            j //= self.p
        return out


_FIELD = _Field()
_POLY = tuple(_RNG.randrange(27) for _ in range(8))


def calibration_chunk():
    """A fixed piece of work of about 3 ms: permutation products hashed into
    a set, field products and sums through method calls, and a dict of
    polynomials."""
    seen = set()
    p = _P
    for _ in range(120):
        p = tuple(p[i] for i in _Q)
        seen.add(p)
    mul, add = _FIELD.mul, _FIELD.add
    table = {}
    poly = _POLY
    for k in range(180):
        c = poly[k % 8] or 1
        term = tuple(mul(x, c) for x in poly)
        poly = tuple(add(a, b) for a, b in zip(term, poly))
        table[k & 15] = poly
    return len(seen), len(table)


def trimmed_mean(values):
    """Mean without the slowest tenth, where garbage collections and
    interrupts land."""
    kept = sorted(values)[:max(1, len(values) - len(values) // 10)]
    return sum(kept) / len(kept)


class Speedometer:
    """Calibration chunks run from a timer signal, and the correction of
    spans of work by them."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def chunk(self, *_signal_args):
        start = time.perf_counter()
        calibration_chunk()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self.chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def corrected(self, begin, end, extra=0.0):
        """Wall time of the work in [begin, end], at the reference speed.
        extra is wall time outside the span (before the clock of this
        process started) that is corrected by the same factor."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        inside = sum(self.durations[lo:hi])
        if hi - lo < MIN_CHUNKS:
            # widen the window symmetrically to the nearest chunks
            need = MIN_CHUNKS - (hi - lo)
            lo = max(0, lo - (need + 1) // 2)
            hi = min(len(self.starts), hi + need // 2 + 1)
        if hi <= lo:
            raise RuntimeError("no calibration chunks were run")
        factor = (REFERENCE_CHUNK_S / trimmed_mean(self.durations[lo:hi])) ** ELASTICITY
        return (end - begin - inside + extra) * factor
