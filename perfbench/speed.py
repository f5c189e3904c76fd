"""A reference kernel timed beside every measurement, to take out machine speed.

The benchmark runs on shared virtual machines whose per-core speed swings by
up to 1.6x, in stretches of seconds to minutes, in process CPU time as well
as wall time. Raw job times therefore move with the host's load more than
with the program. ``ReferenceClock`` times a fixed kernel right before and
right after each measurement and rescales the measured seconds by
``REFERENCE_S`` over the mean of those two kernel times: the result is the
measurement in seconds at a fixed reference speed. The raw seconds are kept
beside it in every result record.

The kernel mixes the kinds of work opcalc's jobs do: interpreter loops,
small complex numpy arithmetic, LAPACK calls on 2x2 to 16x16 matrices, an
8 MB memory stream and a 512x512 FFT. It does not use opcalc, so a change to the program does
not change the reference. Each timing is the fastest of a few repeats of the
kernel, so a page fault or cache refill left by the preceding job does not
count as a slow machine.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on a 2-vCPU Intel Xeon VM, so that rescaled
# times there read close to the raw ones.
REFERENCE_S = 0.009
REPEATS = 3


class ReferenceClock:
    """Rescales measured seconds to the speed at which the kernel takes REFERENCE_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._z = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        self._a = rng.standard_normal((16, 16))
        self._small = [rng.standard_normal((n, n)) for n in range(2, 9)]
        self._grid = rng.standard_normal((512, 512)) + 0j
        self._stream = np.ones(1 << 20)
        self.samples: list[float] = []
        self._kernel()  # first call pays lazy set-up
        self._last = self.reference_s()

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.exp(1j * np.outer(self._z, self._z))
            np.linalg.eigvals(self._a)
            np.multiply(self._stream, 1.0000001, out=self._stream)
            acc = 0
            for k in range(400):
                acc += k * k
        for _ in range(4):
            for a in self._small:
                np.linalg.qr(a)
                np.linalg.svd(a, compute_uv=False)
        np.fft.fft2(self._grid)
        return time.perf_counter() - start

    def reference_s(self) -> float:
        best = min(self._kernel() for _ in range(REPEATS))
        self.samples.append(best)
        return best

    def rescale(self, seconds: float) -> float:
        """Rescale a measurement that ended just now and began after the last call."""
        before, after = self._last, self.reference_s()
        self._last = after
        return seconds * REFERENCE_S / (0.5 * (before + after))
