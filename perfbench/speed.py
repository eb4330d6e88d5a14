"""Host-speed sampling, so that timings from a shared host can be compared.

On a small shared machine the CPU's speed drifts by up to about 2x over
seconds and minutes, with the process on the CPU the whole time (its CPU
time grows with its wall time). While a repetition runs, ``SpeedProbe``
interrupts it every ``PERIOD_S`` with a timer signal and times a fixed
pure-Python reference loop. A wall time ``w`` measured alongside reference
samples of mean ``r`` becomes ``w * REFERENCE_S / r``: seconds at the
reference speed, the speed at which one sample takes ``REFERENCE_S``.
The signal handler runs in the main thread, between bytecodes, so no
thread or process is added.
"""

from __future__ import annotations

import signal
import time

REFERENCE_LOOP = 15000
REFERENCE_S = 0.002
PERIOD_S = 0.05


def reference_sample() -> float:
    """Seconds the host takes for the fixed reference loop right now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(REFERENCE_LOOP):
        total += (i * 0.5) ** 1.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Reference samples taken every ``PERIOD_S`` of wall time while entered.

    Entering takes one sample at once, so every probed section has one,
    however short; the caller starts its clock after that. ``samples``
    holds each sample's duration and ``spent_s`` the sum of those taken
    since, which callers subtract from the wall time they measure around
    the work. A disabled probe takes no samples (traced runs, whose spans
    would otherwise contain them).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t = reference_sample()
        self.samples.append(t)
        self.spent_s += t

    def __enter__(self) -> "SpeedProbe":
        if not self.enabled:
            return self
        self.samples.append(reference_sample())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if not self.enabled:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
