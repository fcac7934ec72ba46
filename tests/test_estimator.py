import json
import math
import statistics
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SR, cpu_settings, fresh_process_env, make_model, traced_peak
from revtime import estimator
from revtime.errors import EstimationError, RevtimeError
from revtime.estimator import (
    BandSpectrogram,
    EstimatorConfig,
    GradientMatrix,
    MappingModel,
    NsvStatistic,
    StftConfig,
    band_spectrogram,
    decay_gradients,
    estimate_band_snr,
    estimate_t60,
    map_nsv_to_t60,
    mel_weights,
    nsv,
    nsv_from_audio,
    select_bins,
)
from revtime.signal_core import AudioBuffer
from revtime.synth import synthetic_speech
from stft_reference import reference_log_spectrogram, reference_mel, reference_slopes
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def make_spec(values, hop_s=0.016):
    return BandSpectrogram(values, hop_s)


def naive_window_slopes(values, times, w):
    """Per-window two-parameter normal-equations fit, the slow way."""
    n_bands, n_frames = values.shape
    out = np.empty((n_bands, n_frames - w + 1))
    for b in range(n_bands):
        for i in range(n_frames - w + 1):
            t = times[i:i + w]
            y = values[b, i:i + w]
            a = np.stack([np.ones(w), t], axis=1)
            coef = np.linalg.solve(a.T @ a, a.T @ y)
            out[b, i] = coef[1]
    return out


# Run in a fresh process: the SHA-256 of decay_gradients' slopes of a seeded
# random spectrogram with one window per band, two windows per band, and one
# band longer than a sum block.
SLOPE_HASH_PROBE = """
import hashlib
import numpy as np
from revtime.estimator import BandSpectrogram, decay_gradients
for shape in [(257, 7), (257, 8), (3, 70000)]:
    values = np.random.default_rng(shape[1]).uniform(-100.0, 0.0, size=shape)
    slopes = decay_gradients(BandSpectrogram(values, 0.008), 7).slopes
    print(shape, hashlib.sha256(slopes.tobytes()).hexdigest())
"""


def slope_hashes(**extra) -> str:
    """SLOPE_HASH_PROBE's output in a fresh process with the extra
    environment variables given."""
    result = subprocess.run([sys.executable, "-c", SLOPE_HASH_PROBE],
                            env=fresh_process_env(**extra), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.fixture(scope="module")
def as_is_slope_hashes():
    return slope_hashes()


class TestDecayGradients:
    def test_exact_line_recovery(self):
        times = np.arange(20) * 0.016
        values = np.tile(-60.0 * times, (5, 1)) + np.arange(5)[:, None]
        grads = decay_gradients(make_spec(values), 7)
        assert np.allclose(grads.slopes, -60.0, atol=1e-9)
        assert grads.slopes.shape == (5, 20 - 7 + 1)

    def test_constant_band_zero_slope(self):
        grads = decay_gradients(make_spec(np.full((3, 10), -12.5)), 4)
        assert np.allclose(grads.slopes, 0.0, atol=1e-9)

    def test_matches_naive_fit(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-90, 0, size=(8, 25))
        spec = make_spec(values)
        grads = decay_gradients(spec, 5)
        expected = naive_window_slopes(values, np.arange(25) * spec.frame_step, 5)
        assert np.allclose(grads.slopes, expected, rtol=1e-9, atol=1e-9)

    def test_too_few_frames(self):
        with pytest.raises(EstimationError, match="frames"):
            decay_gradients(make_spec(np.zeros((2, 4))), 7)

    @pytest.mark.parametrize("shape, w", [
        ((1, 40), 7),         # a single band
        ((6, 7), 7),          # n_frames == w: one window per band
        ((1, 5), 5),
        *[((9, 33), w) for w in range(2, 10)],
        ((257, 3000), 7),     # several blocks of whole bands
        ((3, 70000), 7),      # one band longer than a block
        ((257, 7), 7),        # one window per band over full_band's 257 bins
        ((4, 2), 2),
        ((4, 9), 9),
    ])
    def test_equals_matrix_product_oracle(self, shape, w):
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + w)
        spec = make_spec(rng.uniform(-100, 0, size=shape), 0.008)
        slopes = decay_gradients(spec, w).slopes
        assert slopes.shape == (shape[0], shape[1] - w + 1)
        assert np.array_equal(slopes, reference_slopes(spec, w))

    @pytest.mark.parametrize("dt", [0.008, 0.016, 1 / 3])
    @pytest.mark.parametrize("w", range(2, 10))
    def test_slope_row_is_the_pseudoinverse_row(self, w, dt):
        """The closed-form row is exactly antisymmetric, exactly 0 at the
        centre of an odd window, and the textbook slope row of the [1, t]
        design pseudoinverse up to rounding."""
        row = estimator._slope_row(w, dt)
        assert np.array_equal(row, -row[::-1])
        assert w % 2 == 0 or row[w // 2] == 0.0
        design = np.column_stack([np.ones(w), np.arange(w) * dt])
        textbook = np.linalg.pinv(design)[1]
        assert np.max(np.abs(row - textbook)) <= 1e-15 * np.max(np.abs(textbook))

    @settings(max_examples=60, deadline=None)
    @given(value=st.floats(-1e4, 1e4, allow_nan=False), w=st.integers(2, 9),
           extra_frames=st.integers(0, 30), band=st.integers(0, 3),
           frame_step=st.sampled_from([0.008, 0.010667, 0.016]),
           seed=st.integers(0, 2**16))
    def test_constant_band_slope_is_exactly_zero(self, value, w, extra_frames, band,
                                                  frame_step, seed):
        """A constant band's slopes are exactly +0.0, with one window per
        band or many, and every other band keeps the oracle's bits."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(-100, 0, size=(4, w + extra_frames))
        values[band] = value
        spec = make_spec(values, frame_step)
        slopes = decay_gradients(spec, w).slopes
        assert np.all(slopes[band] == 0.0) and not np.signbit(slopes[band]).any()
        others = np.arange(4) != band
        assert np.array_equal(slopes[others], reference_slopes(spec, w)[others])

    @settings(max_examples=200, deadline=None)
    @given(w=st.integers(2, 9), extra_frames=st.integers(0, 30), band=st.integers(0, 3),
           frame_step=st.sampled_from([0.008, 0.010667, 0.016]),
           seed=st.integers(0, 2**16))
    def test_mirror_image_window_slope_is_exactly_zero(self, w, extra_frames, band,
                                                       frame_step, seed):
        """A window equal to its mirror image, at any place in any band, has
        slope exactly +0.0, and every slope keeps the oracle's bits."""
        rng = np.random.default_rng(seed)
        values = rng.uniform(-100, 0, size=(4, w + extra_frames))
        start = int(rng.integers(0, extra_frames + 1))
        half = rng.uniform(-100, 0, size=(w + 1) // 2)
        values[band, start:start + w] = np.concatenate([half, half[:w // 2][::-1]])
        spec = make_spec(values, frame_step)
        slopes = decay_gradients(spec, w).slopes
        assert slopes[band, start] == 0.0 and not np.signbit(slopes[band, start])
        assert np.array_equal(slopes, reference_slopes(spec, w))

    @settings(max_examples=200, deadline=None)
    @given(w=st.integers(2, 9), n_frames=st.integers(9, 40),
           level=st.integers(-80 * 64, 80 * 64),
           frame_step=st.sampled_from([0.008, 0.010667, 0.016]),
           seed=st.integers(0, 2**16))
    def test_level_cancels_exactly(self, w, n_frames, level, frame_step, seed):
        """With dB values on a 1/64 grid, adding a constant level on the same
        grid leaves every slope's bits unchanged: the level cancels in the
        frame differences before anything is rounded."""
        rng = np.random.default_rng(seed)
        values = np.round(rng.uniform(-100, 0, size=(4, n_frames)) * 64) / 64
        shifted = values + level / 64
        assert np.array_equal(decay_gradients(make_spec(shifted, frame_step), w).slopes,
                              decay_gradients(make_spec(values, frame_step), w).slopes)

    @pytest.mark.parametrize("run", range(1, 10))
    def test_repeated_values_zero_only_whole_windows(self, run):
        """A run of equal values zeroes exactly the windows that lie wholly
        inside it; every other slope keeps the oracle's bits."""
        rng = np.random.default_rng(run)
        values = rng.uniform(-100, 0, size=(3, 40))
        values[1, 10:10 + run] = -55.5
        spec = make_spec(values, 0.008)
        expected = reference_slopes(spec, 7)
        expected[1, 10:10 + max(0, run - 6)] = 0.0
        assert np.array_equal(decay_gradients(spec, 7).slopes, expected)

    def test_floor_windows_are_never_negative(self):
        """Windows wholly inside a constant floor count as selected but never
        as negative: NSV and negative count equal those of the same
        spectrogram with the floor windows cut out."""
        rng = np.random.default_rng(15)
        n_bands, active, floor, w = 257, 150, 300, 7
        values = np.empty((n_bands, active + floor))
        values[:, :active] = rng.uniform(-60.0, 0.0, size=(n_bands, active))
        # A floor level per band, spread so that a sum of products taken in
        # frame order would round the floor windows' slopes to either sign;
        # their paired frame differences are exactly 0.
        values[:, active:] = (-80.0 + 0.037 * np.arange(n_bands))[:, None]
        whole = nsv(decay_gradients(make_spec(values), w).slopes)
        cut = nsv(decay_gradients(make_spec(values[:, :active + w - 1]), w).slopes)
        assert (whole.value, whole.n_negative) == (cut.value, cut.n_negative)
        assert whole.n_selected == cut.n_selected + n_bands * (floor - w + 1)

    @pytest.mark.parametrize("n_frames", [7, 50])
    def test_non_contiguous_values_equal_oracle(self, n_frames):
        rng = np.random.default_rng(n_frames)
        values = rng.uniform(-100, 0, size=(n_frames, 40)).T  # Fortran order
        spec = make_spec(values[::2], 0.008)
        assert not spec.values.flags.c_contiguous
        assert np.array_equal(decay_gradients(spec, 7).slopes,
                              reference_slopes(spec, 7))

    @pytest.mark.parametrize("setting", list(cpu_settings()))
    def test_slopes_identical_across_cpu_settings(self, as_is_slope_hashes, setting):
        """No slope depends on the CPU kernel numpy or OpenBLAS picks: under
        every setting of README's cross-CPU contract the slopes hash to the
        same bits as in a process run as is, at each of the probe's
        lengths."""
        extra, reason = cpu_settings()[setting]
        if extra is None:
            pytest.skip(reason)
        assert slope_hashes(**extra) == as_is_slope_hashes


class TestEstimateBandSnr:
    def test_constant_band_is_zero(self):
        snr = estimate_band_snr(make_spec(np.full((2, 40), -50.0)))
        assert np.allclose(snr, 0.0, atol=1e-12)

    def test_floor_and_peaks(self):
        values = np.full((1, 100), -80.0)
        values[0, :10] = -20.0
        snr = estimate_band_snr(make_spec(values))
        assert snr.max() == pytest.approx(60.0, abs=1e-9)
        assert np.percentile(values, 10) == pytest.approx(-80.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-90, -10, size=(4, 30))
        a = estimate_band_snr(make_spec(values))
        b = estimate_band_snr(make_spec(values + 17.0))
        assert np.allclose(a, b, atol=1e-9)

    def test_matches_percentile(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(-90, 0, size=(6, 53))
        snr = estimate_band_snr(make_spec(values))
        floor = np.percentile(values, 10.0, axis=1, keepdims=True)
        assert np.allclose(snr, values - floor, atol=1e-9)

    def test_needs_ten_frames(self):
        with pytest.raises(EstimationError, match="10 frames"):
            estimate_band_snr(make_spec(np.zeros((2, 9))))


class TestSelectBins:
    def _grads(self, shape):
        rng = np.random.default_rng(4)
        return GradientMatrix(rng.normal(size=shape))

    def test_minus_inf_selects_all(self):
        grads = self._grads((4, 10))
        snr = np.random.default_rng(5).uniform(0, 60, size=(4, 12))
        out = select_bins(grads, snr, -np.inf)
        assert np.array_equal(out, grads.slopes.ravel())

    def test_plus_inf_selects_none(self):
        grads = self._grads((4, 10))
        snr = np.random.default_rng(6).uniform(0, 60, size=(4, 12))
        assert select_bins(grads, snr, np.inf).shape == (0,)

    def test_elementwise_oracle(self):
        grads = self._grads((5, 8))
        snr = np.random.default_rng(7).uniform(0, 12, size=(5, 8))
        out = select_bins(grads, snr, 6.0)
        kept = [grads.slopes[b, i] for b in range(5) for i in range(8)
                if snr[b, i] >= 6.0]
        assert out.tolist() == kept

    def test_shape_mismatch(self):
        grads = self._grads((4, 10))
        with pytest.raises(RevtimeError):
            select_bins(grads, np.zeros((3, 12)), 0.0)


class TestNsv:
    def test_equal_negatives_zero_variance(self):
        stat = nsv(np.full((2, 3), -5.0))
        assert stat.value == 0.0
        assert stat.n_negative == 6

    def test_two_point_variance(self):
        slopes = np.array([[-1.0, -3.0, 5.0]])
        stat = nsv(slopes)
        assert stat.value == pytest.approx(1.0, abs=1e-12)
        assert stat.n_negative == 2
        assert stat.n_selected == 3

    def test_mask_respected(self):
        slopes = np.array([[-1.0, -3.0, -100.0]])
        mask = np.array([[True, True, False]])
        stat = nsv(slopes[mask])
        assert stat.value == pytest.approx(1.0, abs=1e-12)
        assert stat.n_selected == 2

    def test_insufficient_evidence(self):
        with pytest.raises(EstimationError, match="insufficient decay evidence"):
            nsv(np.array([[1.0, 2.0, -1.0]]))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_flat_list_oracle(self, seed):
        rng = np.random.default_rng(seed)
        slopes = rng.normal(scale=200, size=(10, 40))
        mask = rng.random(size=(10, 40)) < 0.7
        flat = [s for s, m in zip(slopes.ravel(), mask.ravel()) if m and s < 0]
        if len(flat) < 2:
            return
        stat = nsv(slopes[mask])
        expected = statistics.pvariance(flat)
        assert stat.value == pytest.approx(expected, rel=1e-12)

    def test_equals_np_var_across_sizes(self):
        """Exactly np.var of the selected negatives, whether the selection
        is a mask or select_bins' SNR gate, with inputs shrinking and growing
        between calls."""
        rng = np.random.default_rng(5)
        for shape in [(40, 500), (3, 20), (60, 900), (2, 5), (20, 100), (80, 1000)]:
            slopes = rng.normal(-20.0, 150.0, size=shape)
            snr = rng.uniform(0.0, 30.0, size=(shape[0], shape[1] + 6))
            margin = rng.uniform(3.0, 24.0)
            mask = snr[:, :shape[1]] >= margin
            expected = np.var(np.compress((mask & (slopes < 0)).ravel(), slopes.ravel()))
            assert nsv(slopes[mask]).value == expected
            stat = nsv(select_bins(GradientMatrix(slopes), snr, margin))
            assert stat.value == expected
            assert stat.n_selected == np.count_nonzero(mask)


class TestNsvStatistic:
    """The statistic enforces its own invariants, so map_nsv_to_t60 never
    sees a negative NSV."""

    def test_negative_value_rejected(self):
        with pytest.raises(RevtimeError, match="NSV value must be finite and non-negative"):
            NsvStatistic(-1e-12, 5, 9)

    def test_more_negatives_than_selected_rejected(self):
        with pytest.raises(RevtimeError, match="negative count cannot exceed"):
            NsvStatistic(10.0, 10, 9)


class TestMapNsvToT60:
    def test_constant_model(self):
        t60, flags = map_nsv_to_t60(NsvStatistic(123.0, 5, 9), make_model([0.5]))
        assert t60 == 0.5
        assert flags == ()

    def test_negative_output_clamps_to_zero(self):
        t60, flags = map_nsv_to_t60(NsvStatistic(10.0, 5, 9), make_model([-1.0]))
        assert t60 == 0.0
        assert flags == ("clamped",)

    def test_no_upper_clamp(self):
        t60, _ = map_nsv_to_t60(NsvStatistic(10.0, 5, 9), make_model([5.0]))
        assert t60 == 5.0

    def test_zero_nsv_saturates(self):
        t60, flags = map_nsv_to_t60(NsvStatistic(0.0, 5, 9),
                                    make_model([0.5], t60_train_max=1.85))
        assert t60 == 1.85
        assert flags == ("saturated",)

    def test_log_target_back_transform(self):
        # log10(t60) = -0.5 constant -> t60 = 10^-0.5
        t60, flags = map_nsv_to_t60(NsvStatistic(10.0, 5, 9),
                                    make_model([-0.5], target="log_t60"))
        assert t60 == pytest.approx(10 ** -0.5)
        assert flags == ()

    def test_polynomial_evaluation(self):
        # t60 = 2 - 0.5 * log10(nsv) at nsv = 100 -> 1.0
        t60, _ = map_nsv_to_t60(NsvStatistic(100.0, 5, 9), make_model([2.0, -0.5]))
        assert t60 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("coeffs, target", [
        ([400.0], "log_t60"),          # 10**400 overflows a float
        ([1e308, 1e308], "t60"),       # 1e308 + 1e308 * log10(100) overflows
    ], ids=["log_overflow", "t60_overflow"])
    def test_non_finite_t60_is_an_estimation_failure(self, coeffs, target):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy RuntimeWarning
            with pytest.raises(EstimationError, match="not a finite T60"):
                map_nsv_to_t60(NsvStatistic(100.0, 5, 9),
                               make_model(coeffs, target=target))


class TestFrontEnd:
    def test_matches_composed_ops_mel(self, speech):
        cfg = EstimatorConfig.default("mel_band")
        fast = band_spectrogram(speech, cfg)
        peak = np.max(np.abs(speech.samples))
        normalized = AudioBuffer(speech.samples / peak, SR)
        composed = reference_mel(
            reference_log_spectrogram(normalized, cfg.stft),
            mel_weights(cfg, SR),
        ).values
        composed = np.maximum(composed, composed.max() - cfg.dynamic_range_db)
        assert np.allclose(fast.values, composed, atol=1e-9)

    def test_matches_composed_ops_full(self, speech):
        cfg = EstimatorConfig.default("full_band")
        fast = band_spectrogram(speech, cfg)
        peak = np.max(np.abs(speech.samples))
        composed = reference_log_spectrogram(
            AudioBuffer(speech.samples / peak, SR), cfg.stft).values
        composed = np.maximum(composed, composed.max() - cfg.dynamic_range_db)
        assert np.array_equal(fast.values, composed)

    def test_too_short_audio(self):
        cfg = EstimatorConfig.default("mel_band")
        with pytest.raises(EstimationError, match="shorter"):
            band_spectrogram(AudioBuffer(np.ones(SR // 2), SR), cfg)

    def test_silence_rejected(self):
        cfg = EstimatorConfig.default("mel_band")
        with pytest.raises(EstimationError, match="silence"):
            band_spectrogram(AudioBuffer(np.zeros(2 * SR), SR), cfg)


def length_stages(buf, cfg):
    """The stages of nsv_from_audio that check the input's length."""
    spec = band_spectrogram(buf, cfg)
    decay_gradients(spec, cfg.window_frames)
    if cfg.variant == "mel_band":
        estimate_band_snr(spec)


@st.composite
def length_configs(draw):
    """(rate, EstimatorConfig) at a drawn rate. min_duration_s is often a
    whole number of samples, n / rate, where the rounding of its product
    with the rate decides the edge; the frames outweigh it about as often
    as not. Hops of at least an eighth of a frame keep the spectrogram
    small."""
    rate = draw(st.sampled_from([8000, 11025, 16000, 22050, 44100, 48000]))
    frame = draw(st.integers(256, 1024))
    hop = draw(st.integers(frame // 8, frame))
    min_duration = draw(st.one_of(st.floats(0.0, 0.5),
                                  st.integers(0, rate // 2).map(lambda n: n / rate)))
    cfg = EstimatorConfig(variant=draw(st.sampled_from(estimator.VARIANTS)),
                          stft=StftConfig(frame_len=frame, hop=hop),
                          window_frames=draw(st.integers(2, 16)),
                          min_duration_s=min_duration)
    return rate, cfg


# 2007 / 8000 times 8000 rounds up to just above 2007, whose ceiling is
# one sample too many.
EDGE_CFG = EstimatorConfig("full_band", StftConfig(frame_len=256, hop=256),
                           min_duration_s=2007 / 8000)


class TestMinSamples:
    @settings(max_examples=80, deadline=None)
    @given(drawn=length_configs(), seed=st.integers(0, 2**16))
    @example(drawn=(8000, EDGE_CFG), seed=0)
    def test_is_the_shortest_input_accepted(self, drawn, seed):
        """Noise of exactly min_samples samples passes every stage that
        checks length; one sample fewer fails one of them."""
        rate, cfg = drawn
        n = cfg.min_samples(rate)
        noise = 0.1 * np.random.default_rng(seed).standard_normal(n)
        length_stages(AudioBuffer(noise, rate), cfg)
        with pytest.raises(EstimationError):
            length_stages(AudioBuffer(noise[:-1], rate), cfg)

    def test_default_is_one_second(self):
        """At the defaults the one-second minimum outweighs the frames."""
        assert EstimatorConfig.default("mel_band").min_samples(SR) == SR
        assert EstimatorConfig.default("full_band", 48000).min_samples(48000) == 48000


def in_new_thread(fn, *args):
    """fn(*args) run in a fresh thread."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and out, "worker thread did not finish"
    return out[0]


class TestCallsShareNoState:
    """Estimator calls keep nothing between them: results do not depend on
    earlier calls, returned arrays are never overwritten, concurrent threads
    get the sequential results, and a call leaves no memory behind."""

    @pytest.mark.parametrize("variant", ["full_band", "mel_band"])
    def test_result_independent_of_earlier_calls(self, variant, speech):
        cfg = EstimatorConfig.default(variant)
        first = in_new_thread(band_spectrogram, speech, cfg).values

        def after(*earlier):
            for buf, earlier_cfg in earlier:
                band_spectrogram(buf, earlier_cfg)
            return band_spectrogram(speech, cfg).values

        longer = synthetic_speech(6.0, SR, seed=3)
        # 48 kHz frames (1536) are shorter than their FFT (2048).
        wideband = synthetic_speech(2.0, 48000, seed=4)
        for earlier in [
            [(longer, cfg)],
            [(wideband, EstimatorConfig.default(variant, 48000))],
            [(longer, cfg), (wideband, EstimatorConfig.default("full_band", 48000))],
        ]:
            assert np.array_equal(in_new_thread(after, *earlier), first)

    @pytest.mark.parametrize("variant", ["full_band", "mel_band"])
    def test_returned_arrays_not_overwritten(self, variant, speech, short_speech):
        cfg = EstimatorConfig.default(variant)
        spec = band_spectrogram(speech, cfg)
        grads = decay_gradients(spec, cfg.window_frames)
        kept = spec.values.copy(), grads.slopes.copy()
        for buf in (short_speech, synthetic_speech(4.0, SR, seed=5)):
            estimate_t60(buf, make_model([1.0], variant=variant))
        assert np.array_equal(spec.values, kept[0])
        assert np.array_equal(grads.slopes, kept[1])

    def test_concurrent_threads_match_sequential(self):
        utterances = [synthetic_speech(d, SR, seed=20 + i)
                      for i, d in enumerate((1.5, 3.0, 4.5, 6.0))]
        models = [make_model([1.2, -0.2], variant=v) for v in ("full_band", "mel_band")]
        jobs = [(buf, m) for buf in utterances for m in models]
        expected = [estimate_t60(buf, m) for buf, m in jobs]
        n_threads, rounds = 4, 3
        start = threading.Barrier(n_threads)
        results = {}

        def worker(k):
            start.wait(timeout=60)
            # Each thread walks the jobs from its own offset, so threads
            # estimate different utterances at the same time.
            order = [(k + j) % len(jobs) for j in range(len(jobs))]
            results[k] = [(i, estimate_t60(*jobs[i])) for _ in range(rounds) for i in order]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(n_threads):
            assert len(results[k]) == rounds * len(jobs)
            for i, got in results[k]:
                assert got == expected[i]

    @pytest.mark.parametrize("variant", ["full_band", "mel_band"])
    def test_estimate_leaves_nothing_behind(self, variant):
        """Once the result of a 30 s estimate is dropped, traced memory is
        back within 64 KB of its level before the call, measured inside the
        calling thread before anything local to it is freed: no buffer
        outlives the call."""
        model = make_model([1.2, -0.2], variant=variant)
        buf = synthetic_speech(30.0, SR, seed=5)
        estimate_t60(buf, model)  # the window and Mel weights are cached once

        def held_after_estimate():
            before = tracemalloc.get_traced_memory()[0]
            result = estimate_t60(buf, model)
            del result
            return tracemalloc.get_traced_memory()[0] - before

        tracemalloc.start()
        try:
            held = in_new_thread(held_after_estimate)
        finally:
            tracemalloc.stop()
        assert held <= 64 * 1024


def excess_allocation(buf, cfg):
    """Peak bytes allocated by band_spectrogram in a fresh thread, beyond
    the values it returns."""
    spec, peak = traced_peak(in_new_thread, band_spectrogram, buf, cfg)
    return peak - spec.values.nbytes


class TestStftBlocks:
    """band_spectrogram's STFT walks fixed blocks of frames: the block size
    changes no value, and the work memory does not grow with the input."""

    @pytest.mark.parametrize("rate", [SR, 48000])
    @pytest.mark.parametrize("blocks", ["one_frame", "one_block", "block_plus_frame",
                                        "thirty_blocks"])
    @pytest.mark.parametrize("variant", ["full_band", "mel_band"])
    def test_block_size_changes_no_value(self, monkeypatch, variant, blocks, rate):
        block = estimator._STFT_BLOCK
        n_frames = {"one_frame": 1, "one_block": block, "block_plus_frame": block + 1,
                    "thirty_blocks": 30 * block + 3}[blocks]
        # 48 kHz frames (1536) are shorter than their FFT (2048).
        cfg = replace(EstimatorConfig.default(variant, rate), min_duration_s=0.0)
        n = (n_frames - 1) * cfg.stft.hop + cfg.stft.frame_len
        # A 100 dB rising envelope puts the peak near the end and the
        # dynamic-range clamp on the early frames.
        rng = np.random.default_rng(n_frames)
        buf = AudioBuffer(rng.standard_normal(n) * np.geomspace(1e-5, 1.0, n), rate)
        monkeypatch.setattr(estimator, "_STFT_BLOCK", n_frames + 1)
        whole = in_new_thread(band_spectrogram, buf, cfg).values
        assert whole.shape[1] == n_frames
        for size in (1, 7, block):
            monkeypatch.setattr(estimator, "_STFT_BLOCK", size)
            assert np.array_equal(in_new_thread(band_spectrogram, buf, cfg).values, whole)

    @pytest.mark.parametrize("variant, bytes_per_sample", [("full_band", 2.0),
                                                           ("mel_band", 10.0)])
    def test_work_memory_does_not_grow_with_input(self, variant, bytes_per_sample):
        """Per added input sample, a call allocates beyond its result about
        0 bytes for full_band, whose band-major matrix is its result, and 8
        for mel_band, which squares that matrix and bands it into a smaller
        result (the matrix is released when the call returns); whole-signal
        STFT temporaries took about 49."""
        cfg = EstimatorConfig.default(variant)
        excess = {seconds: excess_allocation(synthetic_speech(seconds, SR, seed=5), cfg)
                  for seconds in (30.0, 60.0)}
        assert (excess[60.0] - excess[30.0]) / (30.0 * SR) <= bytes_per_sample

    def test_full_band_checks_finiteness_without_a_mask(self):
        """A boolean finiteness mask of the output would add 1 byte per
        input sample; the full_band call adds none."""
        cfg = EstimatorConfig.default("full_band")
        excess = {seconds: excess_allocation(synthetic_speech(seconds, SR, seed=5), cfg)
                  for seconds in (30.0, 60.0)}
        assert (excess[60.0] - excess[30.0]) / (30.0 * SR) <= 0.25


class TestEstimateT60:
    def test_deterministic(self, speech):
        model = make_model([1.2, -0.2])
        a = estimate_t60(speech, model)
        b = estimate_t60(speech, model)
        assert a.t60 == b.t60
        assert a.nsv.value == b.nsv.value

    @pytest.mark.parametrize("variant", ["full_band", "mel_band"])
    def test_scale_invariance(self, variant, speech):
        cfg = EstimatorConfig.default(variant)
        base = nsv_from_audio(speech, cfg)
        for gain in (0.1, 10.0):
            scaled = nsv_from_audio(
                AudioBuffer(gain * speech.samples, SR), cfg)
            assert scaled.value == pytest.approx(base.value, rel=1e-9)
            assert scaled.n_negative == base.n_negative
            assert scaled.n_selected == base.n_selected

    def test_estimates_never_negative(self, speech):
        model = make_model([-10.0, 0.001])  # wildly negative mapping
        assert estimate_t60(speech, model).t60 == 0.0


class TestModelSerialization:
    def test_roundtrip(self, tmp_path):
        model = make_model([0.1, -0.2, 0.03], target="log_t60", t60_train_max=1.85)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = MappingModel.load(path)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.t60_train_max == model.t60_train_max
        assert loaded.variant_tag == model.variant_tag
        assert loaded.target == model.target
        assert loaded.config == model.config

    def test_legacy_model_loads_with_defaults(self, tmp_path):
        data = make_model([0.5]).to_dict()
        for key in ("min_duration_s", "dynamic_range_db", "target"):
            del data[key]
        data["trained_by"] = "keys that are not fields are ignored"
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data))
        loaded = MappingModel.load(path)
        assert loaded.target == "t60"
        assert loaded.config == EstimatorConfig.default("mel_band")

    @pytest.mark.parametrize("variant, coefficients", [
        ("full_band", [20.27734014236536, -9.396053476463523, 1.0922586796903824]),
        ("mel_band", [7.155050022674248, -3.16831995462521, 0.3561376858137895]),
    ])
    def test_benchmark_fixture_models_load(self, variant, coefficients):
        model = MappingModel.load(FIXTURES / f"{variant}.json")
        assert model.config == EstimatorConfig(
            variant=variant,
            stft=StftConfig(frame_len=512, hop=256, window="hamming", fft_len=512),
            n_mel_bands=23, window_frames=7, snr_margin=6.0,
            min_duration_s=1.0, dynamic_range_db=80.0)
        assert model.coefficients.tolist() == coefficients
        assert (model.variant_tag, model.t60_train_max, model.target) == (
            variant, 0.95, "t60")

    @pytest.mark.parametrize("key, value", [
        ("dynamic_range_db", math.nan), ("dynamic_range_db", math.inf),
        ("snr_margin", math.nan), ("snr_margin", -math.inf),
        ("min_duration_s", math.nan), ("min_duration_s", -1.0),
        ("t60_train_max", math.nan), ("t60_train_max", math.inf),
        ("window_frames", 7.9), ("n_mel_bands", 23.5),
        ("stft.frame_len", 512.9), ("stft.hop", 255.5), ("stft.fft_len", 1024.25),
        ("snr_margin", True), ("stft.hop", True), ("window_frames", False),
    ])
    def test_rejects_nonsense_numbers(self, key, value):
        data = make_model([0.5]).to_dict()
        name = key.removeprefix("stft.")
        (data if name == key else data["stft"])[name] = value
        with pytest.raises(RevtimeError, match=name):
            MappingModel.from_dict(data)

    def test_whole_float_reads_as_int(self):
        data = make_model([0.5]).to_dict()
        data.update(window_frames=7.0, stft={**data["stft"], "frame_len": 512.0})
        assert MappingModel.from_dict(data).config == make_model([0.5]).config

    def test_rejects_bad_variant(self):
        with pytest.raises(RevtimeError):
            make_model([0.5], variant="wide_band")

    def test_rejects_empty_coefficients(self):
        with pytest.raises(RevtimeError):
            make_model([])
