"""Blind T60 estimation from the negative-side variance of per-band decay
slopes in a log-magnitude spectrogram.

The module owns the whole estimator, front-end included: the STFT settings
(StftConfig), the Mel filterbank (mel_weights) and the peak-normalized dB
spectrogram (band_spectrogram, a BandSpectrogram). Two front-end variants
exist: full_band fits a decay slope in every FFT bin and pools them all,
while mel_band first averages bins into Mel bands and gates time-frequency
points on a per-band SNR estimate before pooling. The pooled negative-slope
variance is mapped to a T60 through a trained polynomial in log10(NSV).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial import polynomial as npoly

from .errors import EstimationError, RevtimeError
from .signal_core import (AudioBuffer, _all_finite, _check_finite, _from_fields,
                          load_json, save_json)

VARIANTS = ("full_band", "mel_band")
TARGETS = ("t60", "log_t60")  # a mapping fits T60 in seconds, or log10 of it

# Fraction of frames assumed noise-dominated when estimating each band's
# noise floor.
NOISE_FLOOR_PERCENTILE = 10.0
# The fewest frames that percentile is taken over.
MIN_FLOOR_FRAMES = 10

# Linear-magnitude floor applied before taking logs (-200 dB) so silence
# stays finite.
LOG_FLOOR = 1e-10

# Analysis windows by name, as numpy builds them for a frame length.
_WINDOWS = {"hann": np.hanning, "hamming": np.hamming, "rect": np.ones}
WINDOW_KINDS = tuple(_WINDOWS)
FRAME_MS, HOP_MS = 32.0, 16.0  # default STFT frame and hop


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters for the windowed STFT (all lengths in samples).
    fft_len 0 stands for the smallest power of two >= frame_len."""

    frame_len: int
    hop: int
    window: str = "hamming"
    fft_len: int = 0

    def __post_init__(self):
        if self.fft_len == 0:
            object.__setattr__(self, "fft_len", 1 << (int(self.frame_len) - 1).bit_length())
        if not (0 < self.hop <= self.frame_len <= self.fft_len):
            raise RevtimeError(
                "need 0 < hop <= frame_len <= fft_len, got "
                f"hop={self.hop} frame_len={self.frame_len} fft_len={self.fft_len}"
            )
        if self.window not in WINDOW_KINDS:
            raise RevtimeError(f"window must be one of {WINDOW_KINDS}")

    @classmethod
    def for_sample_rate(cls, sample_rate: int, frame_ms: float = FRAME_MS,
                        hop_ms: float = HOP_MS) -> "StftConfig":
        frame = max(2, int(round(sample_rate * frame_ms / 1000.0)))
        hop = max(1, int(round(sample_rate * hop_ms / 1000.0)))
        return cls(frame_len=frame, hop=hop)


@dataclass(frozen=True, eq=False)
class BandSpectrogram:
    """Log-magnitude dB matrix, shape (n_bands, n_frames), over linear FFT
    bins or Mel bands; frames are frame_step seconds apart."""

    values: np.ndarray
    frame_step: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise RevtimeError("spectrogram values must be 2-D (bands x frames)")
        if not _all_finite(values):
            raise RevtimeError("spectrogram contains non-finite values")
        _check_finite("frame_step", self.frame_step)
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class GradientMatrix:
    """Per-band, per-window decay slopes in dB/s."""

    slopes: np.ndarray

    def __post_init__(self):
        slopes = np.asarray(self.slopes, dtype=np.float64)
        if slopes.ndim != 2:
            raise RevtimeError("slopes must be a (bands, windows) matrix")
        if not _all_finite(slopes):
            raise RevtimeError("slopes contain non-finite values")
        object.__setattr__(self, "slopes", slopes)


@dataclass(frozen=True)
class NsvStatistic:
    """Population variance of the selected negative slopes, in (dB/s)^2."""

    value: float
    n_negative: int
    n_selected: int

    def __post_init__(self):
        _check_finite("NSV value", self.value, "non-negative")
        if self.n_negative > self.n_selected:
            raise RevtimeError("negative count cannot exceed selected count")


@dataclass(frozen=True)
class EstimatorConfig:
    """Front-end settings; a trained model is only valid with the settings
    it was fitted under.

    dynamic_range_db clamps the banded spectrogram that far below its own
    maximum. Without it the ungated full-band variant pools slopes from
    bins at the bottom of the representable range (deep nulls of the room
    response), where 16-bit quantization of stored audio rewrites the
    statistics entirely.
    """

    variant: str
    stft: StftConfig
    n_mel_bands: int = 23
    window_frames: int = 7
    snr_margin: float = 6.0
    min_duration_s: float = 1.0
    dynamic_range_db: float = 80.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise RevtimeError(f"variant must be one of {VARIANTS}")
        if self.window_frames < 2:
            raise RevtimeError("window_frames must be at least 2")
        if self.n_mel_bands < 2:
            raise RevtimeError("need at least 2 Mel bands")
        _check_finite("snr_margin", self.snr_margin, "any")
        _check_finite("min_duration_s", self.min_duration_s, "non-negative")
        _check_finite("dynamic_range_db", self.dynamic_range_db)

    @classmethod
    def default(cls, variant: str, sample_rate: int = 16000) -> "EstimatorConfig":
        return cls(variant=variant, stft=StftConfig.for_sample_rate(sample_rate))


@dataclass(frozen=True, eq=False)
class MappingModel:
    """Trained NSV -> T60 mapping: a polynomial in log10(NSV).

    coefficients are in ascending order. target records whether the fit
    predicted T60 directly or log10(T60). t60_train_max is the nominal top
    of the training range and doubles as the saturated-output value.
    """

    coefficients: np.ndarray
    t60_train_max: float
    config: EstimatorConfig
    target: str = "t60"

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size == 0 or not _all_finite(coeffs):
            raise RevtimeError("coefficients must be a non-empty finite vector")
        _check_finite("t60_train_max", self.t60_train_max)
        if self.target not in TARGETS:
            raise RevtimeError(f"target must be one of {TARGETS}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def variant_tag(self) -> str:
        return self.config.variant

    def to_dict(self) -> dict:
        # Every EstimatorConfig field but variant (the model's own tag), in
        # field order.
        config = asdict(self.config)
        del config["variant"]
        return {
            "variant": self.variant_tag,
            "coefficients": [float(c) for c in self.coefficients],
            "t60_train_max": float(self.t60_train_max),
            "target": self.target,
            **config,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MappingModel":
        """Inverse of to_dict. Keys that are not fields are ignored, except
        inside stft; fields with defaults may be absent (legacy models)."""
        config = _from_fields(EstimatorConfig, data, "model")
        # A JSON boolean is no number, though numpy reads it as one.
        coefficients = data.get("coefficients")
        if isinstance(coefficients, list) and any(isinstance(c, bool) for c in coefficients):
            raise RevtimeError(f"model: coefficients {coefficients!r} cannot be read as float")
        config = replace(config, stft=_from_fields(StftConfig, config.stft, "model stft"))
        unknown = sorted(set(data["stft"]) - {f.name for f in fields(StftConfig)})
        if unknown:
            raise RevtimeError(f"model stft has unknown key(s) {', '.join(unknown)}")
        return _from_fields(cls, {**data, "config": config}, "model")

    def save(self, path) -> None:
        save_json(self.to_dict(), path)

    @classmethod
    def load(cls, path) -> "MappingModel":
        data = load_json(path)
        try:
            return cls.from_dict(data)
        except RevtimeError as exc:
            raise RevtimeError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class EstimateResult:
    t60: float
    nsv: NsvStatistic
    flags: tuple


@lru_cache(maxsize=32)
def _slope_row(window_frames: int, dt: float) -> np.ndarray:
    # Least-squares slope weights in closed form, k / (dt * sum(k^2)) with k
    # the exact half-integer offsets from the window's centre: exactly
    # antisymmetric, and no BLAS or LAPACK call, so the same row on every
    # CPU (the sum of squares is exact in any order).
    k = np.arange(window_frames) - (window_frames - 1) / 2
    row = k / (dt * np.sum(k * k))
    row.setflags(write=False)
    return row


# Elements per block of decay_gradients' shifted sum (about 512 KB of
# float64): the block and its running sum stay in cache.
_SLOPE_BLOCK = 1 << 16

# Frames per block of band_spectrogram's STFT: the block's scaled samples,
# windowed frames, spectrum and magnitudes take about 1.6 MB at 16 kHz,
# whatever the input length.
_STFT_BLOCK = 128


def decay_gradients(spec: BandSpectrogram, window_frames: int) -> GradientMatrix:
    """Least-squares decay slope of every length-window_frames sliding window.

    The slope of a window is the dot product of its values with the
    closed-form slope row of _slope_row, computed once. The products are
    summed as shifted copies of the flattened band-major spectrogram,
    ``acc = v[0:m] * row[0]`` then ``acc += v[k:k+m] * row[k]`` for k = 1
    .. w - 1, in blocks of whole bands held in two buffers of the call
    (about 1 MB in all). That one path serves every length, one window per
    band included, and calls no BLAS or LAPACK kernel, so the slopes of a
    given spectrogram are the same bits on every CPU. For two or more
    windows the sum is that of numpy's matmul loop for strided operands:
    the slopes equal ``sliding_window_view(values, w, axis=1) @ row`` bit
    for bit (up to the sign of an exactly zero slope).

    A constant window (all values equal, as in the dynamic-range clamp
    floor or exactly repeated frames) has slope exactly 0.0, decided from
    its values: the sum would leave rounding of about 1e-13 dB/s whose sign
    follows the value and the CPU. Such windows still count as selected
    slopes, but never as negative ones. Slopes are in dB per second; the
    returned matrix is a fresh array.
    """
    w = int(window_frames)
    if w < 2:
        raise RevtimeError("window_frames must be at least 2")
    n_bands, n_frames = spec.values.shape
    if n_frames < w:
        raise EstimationError(f"spectrogram has {n_frames} frames, need at least {w}")
    row = _slope_row(w, float(spec.frame_step))
    n_windows = n_frames - w + 1
    slopes = np.empty((n_bands, n_windows))
    flat = np.ascontiguousarray(spec.values).ravel()
    bands = max(1, _SLOPE_BLOCK // n_frames)
    block_size = min(bands, n_bands) * n_frames
    acc_buf, term_buf = np.empty(block_size), np.empty(block_size)
    for b0 in range(0, n_bands, bands):
        b1 = min(b0 + bands, n_bands)
        block = flat[b0 * n_frames:b1 * n_frames]
        # Sums that straddle two bands land in the last w - 1 columns of a
        # band, which are not windows and are dropped (with one window per
        # band, only column 0 is kept).
        m = block.size - w + 1
        acc, term = acc_buf[:m], term_buf[:m]
        np.multiply(block[:m], row[0], out=acc)
        for k in range(1, w):
            np.multiply(block[k:k + m], row[k], out=term)
            acc += term
        # Window i is constant when steps i .. i + w - 2 all repeat the
        # value before them: w - 1 consecutive entries of the sorted
        # repeat positions.
        repeats = np.flatnonzero(block[1:] == block[:-1])
        starts = repeats[:max(0, repeats.size - (w - 2))]
        acc[starts[repeats[w - 2:] - starts == w - 2]] = 0.0
        slopes[b0:b1] = acc_buf[:block.size].reshape(b1 - b0, n_frames)[:, :n_windows]
    return GradientMatrix(slopes)


def estimate_band_snr(spec: BandSpectrogram) -> np.ndarray:
    """Per-band SNR map in dB: values minus the band's 10th-percentile floor.

    The floor uses the linear-interpolation percentile convention, computed
    with a partial sort (cheaper than a full percentile call at this size).
    """
    n = spec.n_frames
    if n < MIN_FLOOR_FRAMES:
        raise EstimationError(
            f"need at least {MIN_FLOOR_FRAMES} frames to estimate band noise floors")
    pos = NOISE_FLOOR_PERCENTILE / 100.0 * (n - 1)
    lo = int(pos)
    frac = pos - lo
    part = np.partition(spec.values, (lo, lo + 1), axis=1)
    floor = part[:, lo] + frac * (part[:, lo + 1] - part[:, lo])
    return spec.values - floor[:, None]


def select_bins(grads: GradientMatrix, snr: np.ndarray, margin_db: float) -> np.ndarray:
    """The slopes whose window starts at a frame with SNR >= margin_db, as a
    1-D array in band-major order."""
    snr = np.asarray(snr, dtype=np.float64)
    n_bands, n_windows = grads.slopes.shape
    if snr.ndim != 2 or snr.shape[0] != n_bands or snr.shape[1] < n_windows:
        raise RevtimeError(
            f"SNR map {snr.shape} incompatible with gradients {grads.slopes.shape}"
        )
    return grads.slopes[snr[:, :n_windows] >= margin_db]


def nsv(slopes: np.ndarray) -> NsvStatistic:
    """Population variance of the negative values among the given slopes,
    all of which count as selected."""
    slopes = np.asarray(slopes, dtype=np.float64)
    mask = slopes < 0.0
    negatives = np.compress(mask.ravel(), slopes.ravel())
    if negatives.size < 2:
        raise EstimationError(
            "insufficient decay evidence: fewer than 2 selected negative gradients"
        )
    # np.var's arithmetic, done in place on the gathered copy.
    n = negatives.size
    negatives -= np.add.reduce(negatives) / n
    negatives *= negatives
    return NsvStatistic(
        value=float(np.add.reduce(negatives) / n),
        n_negative=int(n),
        n_selected=int(slopes.size),
    )


def map_nsv_to_t60(stat: NsvStatistic, model: MappingModel):
    """Evaluate the trained mapping. Returns (t60_seconds, flags).

    An NSV of exactly 0 saturates to t60_train_max (indistinguishable from
    an arbitrarily long decay). Negative polynomial output clamps to 0.0;
    there is no upper clamp. A mapping that overflows to an infinite T60
    raises EstimationError.
    """
    if stat.value == 0.0:
        return float(model.t60_train_max), ("saturated",)
    with np.errstate(over="ignore"):  # an overflow is the inf checked below
        pred = float(npoly.polyval(np.log10(stat.value), model.coefficients))
    try:
        t60 = 10.0 ** pred if model.target == "log_t60" else pred
    except OverflowError:
        t60 = math.inf
    if t60 < 0.0:
        return 0.0, ("clamped",)
    if not math.isfinite(t60):
        raise EstimationError(f"the mapping gives {t60!r} at NSV {stat.value!r}, "
                              "not a finite T60")
    return t60, ()


def hz_to_mel(f):
    """Mel scale: 2595*log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def mel_weights(cfg: EstimatorConfig, sample_rate: int):
    """The Mel filterbank band_spectrogram applies for cfg at this rate, or
    None for the full_band variant.

    Triangular filters, shape (n_mel_bands, fft_len // 2 + 1), with centers
    equally spaced on the Mel scale from 0 Hz to sample_rate/2; rows are
    renormalized to sum to 1 so banding is an average, not a sum. The
    weights are built once per (cfg, rate) and shared, read-only:
    rebuilding them per utterance would dominate the Mel variant's runtime.
    More bands than the FFT has bins, or a band that covers no bin, raise
    RevtimeError.
    """
    if cfg.variant == "full_band":
        return None
    n_bins, n_bands = cfg.stft.fft_len // 2 + 1, cfg.n_mel_bands
    if n_bins < n_bands:
        raise RevtimeError(f"{n_bands} bands exceed the {n_bins} available bins")
    bin_freqs = np.arange(n_bins) * (sample_rate / 2.0) / (n_bins - 1)
    mel_points = np.linspace(0.0, float(hz_to_mel(sample_rate / 2.0)), n_bands + 2)
    hz_points = mel_to_hz(mel_points)
    weights = np.zeros((n_bands, n_bins))
    for b in range(n_bands):
        lo, mid, hi = hz_points[b], hz_points[b + 1], hz_points[b + 2]
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        weights[b] = np.maximum(0.0, np.minimum(rising, falling))
    sums = weights.sum(axis=1)
    if np.any(sums <= 0):
        raise RevtimeError("too many Mel bands for this FFT resolution")
    weights /= sums[:, None]
    weights.setflags(write=False)
    return weights


@lru_cache(maxsize=8)
def _window(stft: StftConfig) -> np.ndarray:
    """stft's analysis window, built once per config and shared, read-only."""
    window = _WINDOWS[stft.window](stft.frame_len)
    window.setflags(write=False)
    return window


def band_spectrogram(buf: AudioBuffer, cfg: EstimatorConfig) -> BandSpectrogram:
    """Estimator front-end: peak-normalized banded log-magnitude spectrogram
    clamped to the configured dynamic range below its maximum.

    Peak normalization and the relative clamp make the pipeline independent
    of input level. For the mel_band variant, bins are averaged in the power
    domain before the single log, which matches the reference STFT and Mel
    averaging in ``tests/stft_reference.py`` to within rounding while
    avoiding the full-resolution log.

    The STFT walks the signal in blocks of _STFT_BLOCK frames, reusing one
    set of block-sized buffers for a block's scaled samples, windowed
    frames, spectrum and (full_band) magnitudes, about 1.6 MB at 16 kHz.
    Every step is elementwise or per frame, so the values do not depend on
    the block size. full_band writes each block's dB values straight into
    the band-major output. mel_band writes each block's squared magnitudes
    into the rows of one power matrix (about 8 bytes per input sample) and
    bands it with a single matrix product, because BLAS over shorter row
    blocks sums in another order. The peak and the clamp are taken over the
    whole input. Every buffer belongs to the call and is released when it
    returns; the returned values are a fresh array.
    """
    if buf.duration < cfg.min_duration_s:
        raise EstimationError(
            f"audio of {buf.duration:.3f} s is shorter than the "
            f"{cfg.min_duration_s:.3f} s minimum"
        )
    peak = float(max(buf.samples.max(), -buf.samples.min()))
    if peak == 0.0:
        raise EstimationError("cannot estimate from digital silence")
    stft = cfg.stft
    if len(buf) < stft.frame_len:
        raise EstimationError(
            f"audio of {len(buf)} samples is shorter than one analysis frame"
        )
    n_frames = (len(buf) - stft.frame_len) // stft.hop + 1
    n_bins = stft.fft_len // 2 + 1
    block = min(_STFT_BLOCK, n_frames)
    # One view of a block's frames; a shorter last block uses its first rows,
    # which read only the samples scaled for that block.
    scaled = np.empty((block - 1) * stft.hop + stft.frame_len)
    frames = sliding_window_view(scaled, stft.frame_len)[::stft.hop]
    # Frame-major keeps abs and the Mel banding on contiguous arrays.
    windowed = np.empty(frames.shape)
    spectrum = np.empty((block, n_bins), np.complex128)
    window = _window(stft)
    weights = mel_weights(cfg, buf.sample_rate)
    if weights is None:
        mag = np.empty((block, n_bins))
        values = np.empty((n_bins, n_frames))
    else:
        power = np.empty((n_frames, n_bins))
    for f0 in range(0, n_frames, block):
        nf = min(block, n_frames - f0)
        span = (nf - 1) * stft.hop + stft.frame_len
        np.divide(buf.samples[f0 * stft.hop:][:span], peak, out=scaled[:span])
        np.multiply(frames[:nf], window, out=windowed[:nf])
        np.fft.rfft(windowed[:nf], n=stft.fft_len, axis=1, out=spectrum[:nf])
        rows = mag[:nf] if weights is None else power[f0:f0 + nf]
        np.abs(spectrum[:nf], out=rows)
        rows += LOG_FLOOR
        if weights is None:
            np.log10(rows, out=rows)
            # Scaling the block in cache and then copying it transposed is
            # faster than one multiply that writes transposed.
            rows *= 20.0
            values[:, f0:f0 + nf] = rows.T
        else:
            np.square(rows, out=rows)
    if weights is not None:
        banded = power @ weights.T
        np.log10(banded, out=banded)
        banded *= 10.0
        values = np.ascontiguousarray(banded.T)
    np.maximum(values, values.max() - cfg.dynamic_range_db, out=values)
    return BandSpectrogram(values, stft.hop / buf.sample_rate)


def nsv_from_audio(buf: AudioBuffer, cfg: EstimatorConfig) -> NsvStatistic:
    """Run the front-end through the NSV statistic (no T60 mapping)."""
    spec = band_spectrogram(buf, cfg)
    grads = decay_gradients(spec, cfg.window_frames)
    if cfg.variant == "full_band":
        return nsv(grads.slopes)
    return nsv(select_bins(grads, estimate_band_snr(spec), cfg.snr_margin))


def estimate_t60(buf: AudioBuffer, model: MappingModel) -> EstimateResult:
    """Blind single-estimate T60 for one utterance, with the front-end
    settings recorded in the model."""
    stat = nsv_from_audio(buf, model.config)
    t60, flags = map_nsv_to_t60(stat, model)
    return EstimateResult(t60=t60, nsv=stat, flags=flags)
