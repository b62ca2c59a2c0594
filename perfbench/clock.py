"""Timings rescaled by the speed of the CPU they ran on.

On a shared machine the same interpreter work runs up to 1.7x slower for
seconds to tens of seconds at a time, and the two CPUs slow down mostly
independently of each other; raw wall times of identical runs spread by
20-40%.  So the runner pins itself and its children to one CPU, and while a
child runs, a runner thread probes that CPU every PERIOD_S with a fixed mix
of the interpreter work borelsum does (256-bit complex log-gammas, big-integer
times mpf products, Fraction sums, small-int loops).  Each timed interval is
reported as

    (wall - probe time inside it) * REFERENCE_PROBE_S / median probe inside it.

The probe's code never changes with borelsum, so a faster or slower program
still moves the reported time one for one; only the machine's speed drops
out.  Reported times are in reference seconds: seconds on a CPU whose probe
takes REFERENCE_PROBE_S.  The probes take about 2% of the CPU.
"""

from __future__ import annotations

import statistics
import threading
import time
from fractions import Fraction

import mpmath as mp

REFERENCE_PROBE_S = 0.001
PERIOD_S = 0.05
_Z = mp.mpc(3.3, 1.1)
_BIG = 12345678901234567890123456789


def _probe() -> None:
    with mp.workprec(256):
        mp.exp(mp.loggamma(_Z) - mp.loggamma(_Z + 40))
        acc = mp.mpf(0)
        for i in range(1, 25):
            acc += mp.mpf(i) ** -3 * (_BIG * i)
    v = Fraction(0)
    for i in range(1, 25):
        v += Fraction(i, i * i + 1) * Fraction(7, 3) ** (i % 5)
    s = 0
    for i in range(3000):
        s += i * i


class SpeedSampler:
    """Probes the CPU from a background thread while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedSampler":
        for _ in range(20):  # warm mpmath's caches before the first sample
            _probe()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.monotonic()
            _probe()
            dt = time.monotonic() - t0
            self.samples.append((t0 + dt / 2, dt))

    def rescale(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end] of ``time.monotonic``."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if inside:
            return (end - start - sum(inside)) * REFERENCE_PROBE_S / statistics.median(inside)
        mid = (start + end) / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:2]
        return (end - start) * REFERENCE_PROBE_S / statistics.median(d for _, d in nearest)
