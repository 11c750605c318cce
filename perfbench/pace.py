"""Host-speed reference: timed rounds are scaled to the speed of a fixed
computation sampled inside the same rounds.

The benchmark runs on two cores of a shared host.  There the same code runs
at two speeds about 1.65x apart, switching every few tens of milliseconds,
and the share of slow time drifts between about 0 and 0.7 over seconds and
minutes.  Wall and CPU time of a round follow that share: over ten runs
of ``flow_critical_rod`` the same round took from 4.8 s to 8.8 s.  So
every 0.1 s while a round runs, ``Pacer`` times a fixed sample of
``reference`` work (a 512-point FFT convolution, an exponential and a
normalisation, the shape of one Picard map, made of numpy alone), and the
round's own time, net of the samples, is scaled by ``REFERENCE_S`` over
the samples' mean.  Over those ten runs the scaled figures kept a quartile
spread of 4.3% of their median (see ``perfbench/README.md``).

Samples are taken at calls of the public module-level functions a workload
names in ``paced``: ``Pacer.install`` rebinds each one, in every torusmf
module that imported it, to a wrapper that takes a sample first when the
last one is older than ``INTERVAL_S``.  A sample touches none of the
program's data, and the time it takes is taken out of the round's time.
"""

from __future__ import annotations

import functools
from time import perf_counter, process_time

import numpy as np

from tracer import rebind

SAMPLE_ITERATIONS = 100
REFERENCE_S = 4.0e-3  # one sample on an uncontended core of the reference host
INTERVAL_S = 0.1

_X0 = np.random.default_rng(0).random(512)
_KERNEL = np.exp(-np.arange(257) / 30.0)


def reference() -> np.ndarray:
    x = _X0.copy()
    for _ in range(SAMPLE_ITERATIONS):
        y = np.fft.irfft(np.fft.rfft(x) * _KERNEL, x.size)
        x = np.exp(-0.5 * y)
        x /= x.mean()
    return x


class Pacer:
    """Samples of the reference work, and the time they took, since the
    last ``reset``."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.wall = self.cpu = 0.0
        self.samples = 0
        self._due = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            w0, c0 = perf_counter(), process_time()
            reference()
            end = perf_counter()
            self.wall += end - w0
            self.cpu += process_time() - c0
            self.samples += 1
        self._due = end + INTERVAL_S

    def speed(self) -> tuple[float, float]:
        """``REFERENCE_S`` over the mean wall and CPU time of the samples
        since the last ``reset``: the factors that scale a time taken
        among them to the reference speed."""
        n = self.samples
        return REFERENCE_S * n / self.wall, REFERENCE_S * n / self.cpu

    def scale(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU time of a span that holds every sample since the
        last ``reset``, net of the samples and scaled to the reference
        speed."""
        wall_speed, cpu_speed = self.speed()
        return (wall - self.wall) * wall_speed, (cpu - self.cpu) * cpu_speed

    def install(self, names: tuple[str, ...]) -> None:
        for name in names:
            rebind(name, self._wrap)

    def _wrap(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if perf_counter() >= self._due:
                self.sample()
            return fn(*args, **kwargs)

        return wrapper
