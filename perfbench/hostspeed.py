"""Host-speed reference for normalizing the benchmark's timings.

On a shared machine the speed of the host drifts: on the 2-vCPU VM the
baseline was measured on, the same pass ran 40% slower for minutes at a
time, which made run-to-run spreads exceed any usable regression bound. The
benchmark therefore times a fixed NumPy kernel right after every pass (each
pass ends with its estimates, the shortest and most drift-prone timings) and
scales its time metrics by

    REFERENCE_NOMINAL_S / median(reference times of this run),

so they read as seconds on a host that runs the reference in
REFERENCE_NOMINAL_S. The kernel uses only NumPy, never revtime, so a change
to revtime moves the normalized figures exactly as much as the raw ones. It
mixes the operations the workloads spend their time in: a framed FFT, logs,
a small matrix product, a sliding-window product, and large element-wise
passes with a scatter-add (the image method's pattern). The raw figures and
the reference times are kept in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

# Median time of the kernel on the baseline machine (see README.md).
REFERENCE_NOMINAL_S = 0.028
# Samples per sampling point.
REPEATS = 2


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(16000 * 2)
        self._weights = rng.random((23, 257))
        self._window = np.hamming(512)
        self._points = rng.random(200_000) * 100.0
        self._bins = rng.integers(0, 20_000, self._points.size)
        self.samples = []

    def _kernel(self) -> float:
        frames = np.lib.stride_tricks.sliding_window_view(self._signal, 512)[::256]
        mag = np.abs(np.fft.rfft(frames * self._window, axis=1))
        banded = np.log10(np.square(mag + 1e-10) @ self._weights.T)
        full = np.ascontiguousarray((20.0 * np.log10(mag + 1e-10)).T)
        slopes = np.lib.stride_tricks.sliding_window_view(full, 7, axis=1) @ np.arange(7.0)
        dist = np.sqrt(self._points ** 2 + 1.0)
        amp = 0.9 ** self._bins.astype(np.float64) / dist
        hist = np.bincount(self._bins, weights=amp, minlength=20_000)
        return float(banded.sum() + slopes.sum() + hist.sum())

    def sample(self) -> None:
        """Time the reference kernel REPEATS times, now."""
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Multiplier from this run's seconds to reference-host seconds."""
        return REFERENCE_NOMINAL_S / float(np.median(self.samples))
