"""Reference STFT, Mel banding and decay slopes, written the direct way: the
oracles that ``estimator.band_spectrogram`` and ``estimator.decay_gradients``
are compared against."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from revtime.estimator import LOG_FLOOR, BandSpectrogram


# The analysis window of each StftConfig.window name, built from numpy here
# rather than taken from the estimator under test.
WINDOWS = {"hann": np.hanning, "hamming": np.hamming, "rect": np.ones}


def reference_stft(buf, cfg):
    """Complex STFT, shape (fft_len//2 + 1, n_frames); the final partial
    frame is dropped."""
    frames = sliding_window_view(buf.samples, cfg.frame_len)[::cfg.hop]
    window = WINDOWS[cfg.window](cfg.frame_len)
    return np.fft.rfft(frames * window, n=cfg.fft_len, axis=1).T


def reference_log_spectrogram(buf, cfg):
    """20*log10(|X| + LOG_FLOOR) per FFT bin and frame."""
    values = 20.0 * np.log10(np.abs(reference_stft(buf, cfg)) + LOG_FLOOR)
    return BandSpectrogram(values, cfg.hop / buf.sample_rate)


def reference_mel(spec, weights):
    """Average a linear-bin dB spectrogram into Mel bands in the power
    domain (10^(dB/10)) with the filterbank weights, then convert back to
    dB."""
    values = 10.0 * np.log10(weights @ 10.0 ** (spec.values / 10.0))
    return BandSpectrogram(values, spec.frame_step)


def reference_slopes(spec, w):
    """Decay slope of every length-w window as the sequential sum of the
    sliding windows' values times the least-squares slope row in closed
    form: each frame's offset from the window's centre over frame_step
    times the sum of the squared offsets. The offsets are exact
    half-integers. No matrix product, so no BLAS kernel decides the
    summation order; for two or more windows this is the order of numpy's
    matmul loop for strided operands."""
    offsets = np.arange(w) - (w - 1) / 2.0
    row = offsets / (spec.frame_step * np.sum(offsets * offsets))
    v = sliding_window_view(spec.values, w, axis=1)
    acc = v[..., 0] * row[0]
    for k in range(1, w):
        acc = acc + v[..., k] * row[k]
    return acc
