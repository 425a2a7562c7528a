"""Timing scaled to a reference host speed.

On a shared 2-core x86-64 VM the host switches between speed states that
last from seconds to minutes: the same pretrain-k200 pass took 0.85 s in
one state and 1.2 s in another. Over ten seeds, the quartile spread of raw median
pass times was 0.08 to 0.20 of the median, depending on the workload and
the hour.

So each operation is followed by a short fixed kernel made of the numeric
work cel spends most of its time in (an FFT convolution, a framed real FFT
with a mel projection, a small matrix product), and its time is scaled by
REFERENCE_S over the mean of the kernel times on either side of it:
seconds at the host speed where the kernel takes REFERENCE_S. The kernel
does not react to every state change as the workloads do, so scaling
narrows the spread without removing it (in one ten-seed test per workload,
from 0.08-0.15 raw to 0.03-0.07). Raw seconds are kept next to the scaled
ones.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

import numpy as np
from scipy.signal import fftconvolve

# About the kernel's time on that VM; only sets the scale.
REFERENCE_S = 0.007


class Clock:
    """Times calls and scales them by the kernel times around them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        # Shapes of one evaluation utterance: 4 s at 16 kHz, the longest
        # bank impulse response, 398 frames of 40 mel bands, a 64-wide layer.
        self._signal = rng.standard_normal(64000)
        self._impulse = rng.standard_normal(12000)
        self._window = np.hamming(400)
        self._bank = rng.random((40, 257))
        self._weights = rng.standard_normal((64, 40))
        self.kernel_seconds = [self._kernel()]

    def _kernel(self) -> float:
        """Median of three timed runs, so one preempted run does not count."""
        times = []
        for _ in range(3):
            t0 = perf_counter()
            wet = fftconvolve(self._signal, self._impulse)[: self._signal.size]
            frames = np.lib.stride_tricks.sliding_window_view(wet, 400)[::160]
            power = np.abs(np.fft.rfft(frames * self._window, n=512, axis=1)) ** 2
            feats = np.log(self._bank @ power.T + 1e-6)
            np.maximum(feats.T @ self._weights.T, 0.0).mean(axis=0)
            times.append(perf_counter() - t0)
        return sorted(times)[1]

    def measure(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """(result, raw seconds, seconds at the reference speed) of one call."""
        t0 = perf_counter()
        result = fn()
        raw = perf_counter() - t0
        before = self.kernel_seconds[-1]
        self.kernel_seconds.append(self._kernel())
        return result, raw, raw * REFERENCE_S / ((before + self.kernel_seconds[-1]) / 2)
