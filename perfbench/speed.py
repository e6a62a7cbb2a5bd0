"""The host's speed, measured by fixed probes, to scale timings by.

A shared host's speed drifts by 20-30% over periods of seconds to minutes,
far beyond any change worth measuring, and the drift hits interpreter work
harder than big-int decimal conversion.  So the benchmark times two fixed
pure-Python kernels right before and right after each timed segment, outside
it: an interpreter loop over small ints, and decimal conversion of a big int.
Each gives a factor, its reference time over the mean of its two probe times.
A request's reference time is its raw time scaled by a blend of the two
factors, weighted by the share of the request spent in decimal conversion
(``digits_share``, set per request by ``workloads.py``): the time the request
would take on a machine that runs both kernels at their reference speed.
The kernels do not touch the library, so a change to the library leaves them
as they are; they must themselves never change, or figures stop being
comparable.
"""

from __future__ import annotations

import time
from typing import List, Tuple

# Each kernel's time at reference speed: about its best time on a 2-vCPU Xeon
# VM with CPython 3.11.7.  Only units; changing them rescales reference times.
LOOP_REF_S = 0.0004
DIGITS_REF_S = 0.0003
REPEATS = 2
_BIG = 7 ** 5000  # its decimal stays under the default 4300-digit limit


def _loop_kernel() -> int:
    s, d, xs = 0, {}, []
    for i in range(3000):
        s += i * i % 7
        d[i & 255] = s
        if i & 15 == 0:
            xs.append(s)
    return s + len(xs)


def _digits_kernel() -> int:
    y = _BIG
    for _ in range(3):
        y = y * 3 + _BIG
    return len(str(y))


def _best(kernel) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


def probe() -> Tuple[float, float]:
    """Seconds of the interpreter kernel and of the decimal kernel, each the
    fastest of a few runs."""
    return _best(_loop_kernel), _best(_digits_kernel)


def factors(before: Tuple[float, float], after: Tuple[float, float]) -> Tuple[float, float]:
    """Interpreter and decimal scale factors for work between two probes."""
    return (LOOP_REF_S * 2 / (before[0] + after[0]),
            DIGITS_REF_S * 2 / (before[1] + after[1]))


def blend(raw: float, ref_loop: float, ref_digits: float, digits_share: float) -> float:
    """Reference seconds: ``raw`` scaled by the geometric blend of the two factors
    (``ref_loop / raw`` and ``ref_digits / raw``), weighted by ``digits_share``."""
    if raw <= 0:
        return 0.0
    return raw * (ref_loop / raw) ** (1 - digits_share) * (ref_digits / raw) ** digits_share


class SpeedClock:
    """Times segments of work and scales each by the probes on either side.

    ``start`` probes and starts a segment; ``split`` ends it and starts the
    next, with one probe between them; ``stop`` ends it.  Probes are never
    inside a segment.  A request's raw seconds, and its seconds scaled by
    each factor alone, are the sums over its segments.
    """

    def __init__(self):
        self.raw = self.ref_loop = self.ref_digits = 0.0
        self._t = 0.0
        self._probe = (0.0, 0.0)
        self.samples: List[Tuple[float, Tuple[float, float]]] = []  # (perf_counter, probe)

    def _sample(self) -> Tuple[float, float]:
        p = probe()
        self.samples.append((time.perf_counter(), p))
        return p

    def start(self) -> None:
        self.raw = self.ref_loop = self.ref_digits = 0.0
        self._probe = self._sample()
        self._t = time.perf_counter()

    def _close(self) -> None:
        seg = time.perf_counter() - self._t
        after = self._sample()
        loop, digits = factors(self._probe, after)
        self.raw += seg
        self.ref_loop += seg * loop
        self.ref_digits += seg * digits
        self._probe = after

    def split(self) -> None:
        self._close()
        self._t = time.perf_counter()

    def stop(self) -> None:
        self._close()

    def reference(self, digits_share: float) -> float:
        return blend(self.raw, self.ref_loop, self.ref_digits, digits_share)
