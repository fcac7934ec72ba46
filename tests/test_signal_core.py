import math
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve

from conftest import SR, make_model
from revtime.cli import main
from revtime.errors import EstimationError, RevtimeError
from revtime.estimator import (
    LOG_FLOOR,
    BandSpectrogram,
    EstimatorConfig,
    NsvStatistic,
    StftConfig,
    band_spectrogram,
    hz_to_mel,
    mel_to_hz,
    mel_weights,
)
from revtime.eval_harness import CorpusItem, EvalRecord
from revtime.room_acoustics import RoomSpec, sabine_absorption
from revtime.signal_core import (
    _FINITE_BLOCK,
    AudioBuffer,
    _all_finite,
    _next_fast_len,
    active_speech_level,
    convolve,
    load_wav,
    noise_gain_for_snr,
    save_wav,
)
from revtime.synth import shaped_noise, synthetic_speech
from revtime.trainer import RoomSampler, TrainingPair, default_t60_grid
from stft_reference import reference_mel, reference_stft


class TestAudioBuffer:
    def test_rejects_nan(self):
        with pytest.raises(RevtimeError):
            AudioBuffer([0.0, np.nan], SR)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_rejects_infinity(self, value):
        with pytest.raises(RevtimeError, match="NaN or Inf"):
            AudioBuffer([0.5, value, -0.5], SR)

    def test_rejects_empty(self):
        with pytest.raises(RevtimeError):
            AudioBuffer([], SR)

    def test_rejects_bad_rate(self):
        with pytest.raises(RevtimeError):
            AudioBuffer([0.1], 0)

    def test_immutable_samples(self):
        buf = AudioBuffer([0.1, 0.2], SR)
        with pytest.raises(ValueError):
            buf.samples[0] = 1.0


class TestAllFinite:
    """_all_finite scans x's memory block by block: a bad value is found in
    the first and last block and on either side of a block edge, whatever
    the memory layout of x."""

    @staticmethod
    def make(layout):
        base = np.random.default_rng(0).standard_normal((257, 1600))
        return {"C": base, "F": np.asfortranarray(base), "strided": base[:, ::2]}[layout]

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_finds_a_bad_value_anywhere(self, layout, value):
        clean = self.make(layout)
        assert clean.size > 3 * _FINITE_BLOCK and _all_finite(clean)
        for position in (0, _FINITE_BLOCK - 1, _FINITE_BLOCK, -1):
            x = self.make(layout)
            # position counts elements in memory order
            x[np.unravel_index(position % x.size, x.shape,
                               order="F" if layout == "F" else "C")] = value
            assert not _all_finite(x), position

    def test_empty_is_finite(self):
        assert _all_finite(np.empty((0, 4)))


class TestWavIo:
    def test_silence_roundtrip(self, tmp_path):
        path = tmp_path / "silence.wav"
        save_wav(AudioBuffer(np.zeros(SR), SR), path)
        buf = load_wav(path)
        assert buf.sample_rate == SR
        assert len(buf) == SR
        assert np.all(buf.samples == 0.0)

    def test_fullscale_negative_is_minus_one(self, tmp_path):
        path = tmp_path / "fs.wav"
        wavfile.write(path, SR, np.array([-32768, 0, 16384], dtype=np.int16))
        buf = load_wav(path)
        assert buf.samples[0] == -1.0
        assert buf.samples[1] == 0.0
        assert buf.samples[2] == 0.5

    def test_ramp_roundtrip(self, tmp_path):
        path = tmp_path / "ramp.wav"
        original = np.array([-1.0, 0.0, 1.0])
        save_wav(AudioBuffer(original, SR), path)
        reloaded = load_wav(path)
        assert np.max(np.abs(reloaded.samples - original)) <= 1.0 / 32768

    def test_clipping_warns(self, tmp_path):
        path = tmp_path / "clip.wav"
        with pytest.warns(UserWarning, match="clipping"):
            save_wav(AudioBuffer([1.5, 0.0], SR), path)
        assert load_wav(path).samples[0] == pytest.approx(32767 / 32768)

    def test_float32_roundtrip(self, tmp_path):
        path = tmp_path / "f32.wav"
        x = np.random.default_rng(0).normal(scale=0.01, size=500)
        save_wav(AudioBuffer(x, SR), path, fmt="float32")
        reloaded = load_wav(path)
        assert np.allclose(reloaded.samples, x, atol=1e-7)

    def test_multichannel_takes_first(self, tmp_path):
        path = tmp_path / "stereo.wav"
        data = np.stack([np.full(100, 1000), np.full(100, -1000)], axis=1)
        wavfile.write(path, SR, data.astype(np.int16))
        with pytest.warns(UserWarning, match="channel 0"):
            buf = load_wav(path)
        assert np.all(buf.samples > 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    @settings(max_examples=25, deadline=None)
    @given(samples=st.lists(st.floats(min_value=-1.0, max_value=1.0),
                            min_size=1, max_size=200))
    def test_roundtrip_within_one_lsb(self, samples, tmp_path_factory):
        path = tmp_path_factory.mktemp("wav") / "x.wav"
        save_wav(AudioBuffer(samples, SR), path)
        reloaded = load_wav(path)
        assert np.max(np.abs(reloaded.samples - np.asarray(samples))) <= 1.0 / 32768


def chunk(kind: bytes, payload: bytes) -> bytes:
    """One RIFF chunk, with the pad byte an odd-sized payload needs."""
    return kind + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def riff(tag, channels, rate, width, data: bytes, extensible=False, before_data=b""):
    """A hand-built WAVE file; extensible wraps tag in WAVE_FORMAT_EXTENSIBLE."""
    block = channels * width
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                      rate * block, block, 8 * width)
    if extensible:
        fmt += (struct.pack("<HHII", 22, 8 * width, 0, tag)
                + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71")
    body = b"WAVE" + chunk(b"fmt ", fmt) + before_data + chunk(b"data", data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm24_bytes(values) -> bytes:
    """Signed 24-bit little-endian samples."""
    return np.asarray(values, dtype="<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()


def scipy_reference(path) -> np.ndarray:
    """scipy's read of channel 0 with load_wav's scaling (scipy returns
    24-bit PCM left-justified in int32)."""
    _, data = wavfile.read(path)
    if data.ndim == 2:
        data = data[:, 0]
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data / 32768.0
    if data.dtype == np.int32:
        return data / 2.0 ** 31
    return data.astype(np.float64)


def _wav_case(kind, path):
    """Write one load-oracle file; return its channel count."""
    rng = np.random.default_rng(17)
    rate = 44100
    if kind == "int16":
        x = np.concatenate([[-32768, 32767, 0], rng.integers(-32768, 32768, 997)])
        wavfile.write(path, rate, x.astype(np.int16))
    elif kind == "float32":
        wavfile.write(path, rate, rng.uniform(-1, 1, 1000).astype(np.float32))
    elif kind == "float64":
        wavfile.write(path, rate, rng.uniform(-1, 1, 1000))
    elif kind == "pcm32":
        x = np.concatenate([[-2 ** 31, 2 ** 31 - 1, 0], rng.integers(-2 ** 31, 2 ** 31, 997)])
        wavfile.write(path, rate, x.astype(np.int32))
    elif kind == "u8":
        wavfile.write(path, rate, np.arange(256, dtype=np.uint8))
    elif kind == "stereo":
        wavfile.write(path, rate, rng.integers(-32768, 32768, (999, 2)).astype(np.int16))
        return 2
    elif kind in ("pcm24", "extensible_pcm24_stereo"):
        channels = 1 if kind == "pcm24" else 2
        x = np.concatenate([[-2 ** 23, 2 ** 23 - 1, 0] * channels,
                            rng.integers(-2 ** 23, 2 ** 23, 998 * channels)])
        path.write_bytes(riff(1, channels, rate, 3, pcm24_bytes(x),
                              extensible=channels == 2))
        return channels
    elif kind == "extensible_float32":
        data = rng.uniform(-1, 1, 1000).astype("<f4").tobytes()
        path.write_bytes(riff(3, 1, rate, 4, data, extensible=True))
    elif kind == "extensible_u8":
        path.write_bytes(riff(1, 1, rate, 1, bytes(range(256)), extensible=True))
    elif kind == "odd_list_chunk":
        data = rng.integers(-32768, 32768, 1001).astype("<i2").tobytes()
        path.write_bytes(riff(1, 1, rate, 2, data,
                              before_data=chunk(b"LIST", b"INFOx")))
    return 1


class TestWavOracle:
    """load_wav and save_wav against scipy.io.wavfile, the codec they replace."""

    @pytest.mark.parametrize("rate", [8000, 16000, 44100, 48000])
    @pytest.mark.parametrize("n", [1, 2, 7, 16001])
    def test_save_bytes_equal_scipy(self, tmp_path, rate, n):
        x = np.random.default_rng(n).uniform(-1, 1, n)
        buf = AudioBuffer(x, rate)
        pcm = np.clip(np.rint(x * 32768.0), -32768, 32767).astype(np.int16)
        for fmt, ref in (("pcm16", pcm), ("float32", x.astype(np.float32))):
            save_wav(buf, tmp_path / f"{fmt}.wav", fmt=fmt)
            wavfile.write(tmp_path / f"{fmt}_ref.wav", rate, ref)
            assert ((tmp_path / f"{fmt}.wav").read_bytes()
                    == (tmp_path / f"{fmt}_ref.wav").read_bytes()), fmt

    @pytest.mark.parametrize("kind", [
        "int16", "float32", "float64", "pcm24", "pcm32", "u8", "stereo",
        "extensible_pcm24_stereo", "extensible_float32", "extensible_u8",
        "odd_list_chunk"])
    def test_load_equals_scipy(self, tmp_path, kind):
        path = tmp_path / f"{kind}.wav"
        channels = _wav_case(kind, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            buf = load_wav(path)
        assert buf.sample_rate == 44100
        assert np.array_equal(buf.samples, scipy_reference(path))
        assert len(caught) == (channels > 1)

    def test_pcm24_scale(self, tmp_path):
        path = tmp_path / "p24.wav"
        path.write_bytes(riff(1, 1, SR, 3, pcm24_bytes([-2 ** 23, 2 ** 22, 1])))
        assert list(load_wav(path).samples) == [-1.0, 0.5, 2.0 ** -23]

    def test_u8_scale(self, tmp_path):
        path = tmp_path / "u8.wav"
        path.write_bytes(riff(1, 1, SR, 1, bytes([0, 128, 192])))
        assert list(load_wav(path).samples) == [-1.0, 0.0, 0.5]


def _malformed(kind: str) -> bytes:
    rng = np.random.default_rng(3)
    data = (0.1 * rng.standard_normal(2 * SR) * 32768).astype("<i2").tobytes()
    good = riff(1, 1, SR, 2, data)
    fmt_chunk = good[12:36]
    return {
        "truncated_header": good[:10],
        "no_data_chunk": good[:36],
        "data_before_fmt": good[:12] + chunk(b"data", data) + fmt_chunk,
        "rifx": b"RIFX" + good[4:],
        "unsupported_tag": good[:20] + struct.pack("<H", 2) + good[22:],
        "truncated_data": good[:-10],
    }[kind]


@pytest.mark.parametrize("kind, reason", [
    ("truncated_header", "truncated RIFF header"),
    ("no_data_chunk", "no data chunk"),
    ("data_before_fmt", "data chunk before fmt chunk"),
    ("rifx", "RIFX"),
    ("unsupported_tag", "unsupported format tag 0x0002"),
    ("truncated_data", "data chunk holds 63990 of 64000 bytes"),
])
def test_malformed_wav_exits_one(tmp_path, model_file, capsys, kind, reason):
    path = tmp_path / f"{kind}.wav"
    path.write_bytes(_malformed(kind))
    code = main(["estimate", str(path), "--model", str(model_file)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: unreadable WAV file") and reason in err, err


def front_end(variant="full_band", dynamic_range_db=1000.0, **stft):
    """The estimator front-end with no minimum duration and a dynamic-range
    clamp too wide to touch the values."""
    return EstimatorConfig(variant=variant, stft=StftConfig(**stft),
                           min_duration_s=0.0, dynamic_range_db=dynamic_range_db)


class TestStft:
    @pytest.mark.parametrize("window", ["rect", "hann", "hamming"])
    def test_pure_sine_concentrates(self, window):
        # Bin-center sine with a rectangular window leaks nowhere. A tapered
        # window spreads it over bins k-1..k+1 and leaks at least 60 dB below
        # bin k everywhere else (about 64 dB for hann, 65 dB for hamming).
        cfg = front_end(frame_len=512, hop=256, window=window, fft_len=512)
        k = 32
        t = np.arange(SR)
        x = np.sin(2 * np.pi * k * t / 512)
        spec = band_spectrogram(AudioBuffer(x, SR), cfg)
        frame = spec.values[:, 3]
        top = frame[k]
        others = np.delete(frame, [k] if window == "rect" else [k - 1, k, k + 1])
        assert top - others.max() >= 60.0

    def test_all_zero_input_hits_floor(self):
        # All-zero frames; only frames 14 and 15 (starts 448, 480) hold the click.
        cfg = front_end(frame_len=64, hop=32)
        x = np.zeros(1000)
        x[500] = 1.0
        spec = band_spectrogram(AudioBuffer(x, SR), cfg)
        silent = np.delete(spec.values, [14, 15], axis=1)
        assert np.allclose(silent, 20 * np.log10(LOG_FLOOR))
        assert np.all(spec.values[:, 14:16] > 20 * np.log10(LOG_FLOOR) + 100)

    def test_too_short_signal(self):
        cfg = front_end(frame_len=512, hop=256)
        with pytest.raises(EstimationError, match="shorter than one analysis frame"):
            band_spectrogram(AudioBuffer(np.ones(100), SR), cfg)

    def test_frame_count_and_times(self):
        cfg = front_end(frame_len=512, hop=256)
        noise = np.random.default_rng(4).standard_normal(512 + 256 * 3 + 10)
        spec = band_spectrogram(AudioBuffer(noise, SR), cfg)
        assert spec.n_frames == 4  # final partial frame dropped
        assert spec.frame_step == 256 / SR
        assert spec.values.shape[0] == 512 // 2 + 1

    @pytest.mark.parametrize("values, step, reason", [
        (np.zeros(8), 0.016, "2-D"),
        (np.array([[0.0, np.nan]]), 0.016, "non-finite"),
        (np.array([[0.0, -np.inf]]), 0.016, "non-finite"),
        (np.zeros((2, 8)), 0.0, "frame_step"),
        (np.zeros((2, 8)), np.nan, "frame_step"),
    ], ids=["1d", "nan_value", "minus_inf_value", "zero_step", "nan_step"])
    def test_spectrogram_rejects(self, values, step, reason):
        with pytest.raises(RevtimeError, match=reason):
            BandSpectrogram(values, step)

    def test_default_fft_len_is_next_power_of_two(self):
        def next_pow2(n):  # the loop the default replaced
            p = 1
            while p < n:
                p *= 2
            return p

        for n in range(1, 4097):
            assert StftConfig(frame_len=n, hop=1).fft_len == next_pow2(n)

    @settings(max_examples=200, deadline=None)
    @given(rate=st.integers(8, 192_000), frame_ms=st.floats(0.001, 10_000.0),
           hop_share=st.floats(0.0, 1.0, exclude_min=True))
    def test_for_sample_rate_keeps_the_hop_asked(self, rate, frame_ms, hop_share):
        # A share of at most 1 never makes hop_ms exceed frame_ms.
        hop_ms = frame_ms * hop_share
        cfg = StftConfig.for_sample_rate(rate, frame_ms, hop_ms)
        assert cfg.hop <= cfg.frame_len <= cfg.fft_len
        assert cfg.hop == 1 or abs(cfg.hop - rate * hop_ms / 1000.0) <= 0.5

    def test_parseval_on_white_noise(self):
        # Spectral energy per frame equals windowed time energy * fft_len.
        cfg = StftConfig(frame_len=480, hop=240, window="hamming", fft_len=512)
        rng = np.random.default_rng(5)
        buf = AudioBuffer(rng.standard_normal(4800), SR)
        spec = reference_stft(buf, cfg)
        frames = np.lib.stride_tricks.sliding_window_view(
            buf.samples, cfg.frame_len)[::cfg.hop]
        windowed = frames * np.hamming(cfg.frame_len)
        for i in range(spec.shape[1]):
            full = (np.abs(spec[0, i]) ** 2 + np.abs(spec[-1, i]) ** 2
                    + 2 * np.sum(np.abs(spec[1:-1, i]) ** 2))
            expected = cfg.fft_len * np.sum(windowed[i] ** 2)
            assert full == pytest.approx(expected, rel=1e-6)


def mel_config(n_bands, **stft):
    """A mel_band config of these STFT settings and band count."""
    return EstimatorConfig(variant="mel_band", stft=StftConfig(**stft), n_mel_bands=n_bands)


def mel_centers(n_bands, sample_rate):
    """Center frequencies of mel_weights' triangles, in Hz."""
    mel_top = float(hz_to_mel(sample_rate / 2.0))
    return mel_to_hz(np.linspace(0.0, mel_top, n_bands + 2))[1:-1]


class TestMel:
    def test_mel_of_700hz(self):
        assert hz_to_mel(700.0) == pytest.approx(2595 * np.log10(2), abs=1e-9)
        assert float(hz_to_mel(700.0)) == pytest.approx(781.17, abs=0.01)

    def test_two_band_toy_rows_sum_to_one(self):
        weights = mel_weights(mel_config(2, frame_len=16, hop=8), SR)
        assert weights.shape == (2, 9)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_sum_to_one_default(self):
        weights = mel_weights(mel_config(23, frame_len=512, hop=256), SR)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.diff(mel_centers(23, SR)) > 0)

    def test_coverage_between_first_and_last_center(self):
        weights = mel_weights(mel_config(23, frame_len=512, hop=256), SR)
        centers = mel_centers(23, SR)
        freqs = np.arange(257) * (SR / 2) / 256
        inside = (freqs >= centers[0]) & (freqs <= centers[-1])
        assert np.all(weights.sum(axis=0)[inside] > 0)

    def test_too_many_bands(self):
        with pytest.raises(RevtimeError):
            mel_weights(mel_config(5, frame_len=6, hop=3, fft_len=6), SR)

    def test_built_once_and_read_only(self):
        weights = mel_weights(mel_config(23, frame_len=512, hop=256), SR)
        assert mel_weights(mel_config(23, frame_len=512, hop=256), SR) is weights
        with pytest.raises(ValueError, match="read-only"):
            weights[0] = 0.0

    def test_flat_frame_is_identity(self):
        # A click under a rectangular window has a flat magnitude spectrum,
        # |X| = 1 in every bin of frames 2 and 3 (starts 512, 768).
        cfg = front_end("mel_band", frame_len=512, hop=256, window="rect")
        x = np.zeros(4096)
        x[1000] = 1.0
        banded = band_spectrogram(AudioBuffer(x, SR), cfg)
        assert banded.values.shape[0] == 23
        assert np.allclose(banded.values[:, 2:4], 20 * np.log10(1.0 + LOG_FLOOR),
                           atol=1e-9)

    def test_matches_bruteforce_power_mean(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(-80, 0, size=(257, 6))
        spec = BandSpectrogram(values, 256 / SR)
        weights = mel_weights(mel_config(23, frame_len=512, hop=256), SR)
        banded = reference_mel(spec, weights)
        for b in range(23):
            for f in range(6):
                acc = np.sum(weights[b] * 10 ** (values[:, f] / 10))
                assert banded.values[b, f] == pytest.approx(
                    10 * np.log10(acc), abs=1e-9)


def reference_active_speech_level(buf):
    """Frame-by-frame activity gate and level, one 10 ms slice at a time."""
    def rms(x):
        return float(np.sqrt(np.mean(np.square(x))))

    frame = max(1, int(round(buf.sample_rate * 0.010)))
    n_frames = int(np.ceil(len(buf) / frame))
    frame_rms = np.array([rms(buf.samples[i * frame:(i + 1) * frame])
                          for i in range(n_frames)])
    active = frame_rms >= frame_rms.max() * 10.0 ** (-35.0 / 20.0)
    chunks = [buf.samples[i * frame:(i + 1) * frame] for i in np.nonzero(active)[0]]
    return 20.0 * float(np.log10(rms(np.concatenate(chunks))))


def bursts(n, rate, seed, tail_active):
    """Noise bursts with silent gaps; the last 10 ms is loud or silent."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * (rng.random(n // 97 + 1).repeat(97)[:n] > 0.4)
    k = rate // 100
    x[n - k:] = rng.standard_normal(k) if tail_active else 0.0
    return AudioBuffer(x, rate)


class TestLevels:
    @pytest.mark.parametrize("n,rate,tail_active", [
        (50 * 160, 16000, True),       # whole frames only
        (50 * 160 + 37, 16000, True),  # active partial trailing frame
        (50 * 160 + 37, 16000, False), # inactive partial trailing frame
        (22050 + 101, 22050, True),    # 220.5-sample frame rounds to 220
        (22050 + 101, 22050, False),
    ])
    def test_matches_frame_loop(self, n, rate, tail_active):
        buf = bursts(n, rate, seed=n, tail_active=tail_active)
        assert active_speech_level(buf) == reference_active_speech_level(buf)

    def test_shorter_than_one_frame(self):
        buf = AudioBuffer(np.random.default_rng(8).standard_normal(97), SR)
        assert active_speech_level(buf) == reference_active_speech_level(buf)

    def test_speech_matches_frame_loop(self, speech):
        assert active_speech_level(speech) == reference_active_speech_level(speech)

    def test_constant_signal_level(self):
        buf = AudioBuffer(np.full(SR, 0.1), SR)
        assert active_speech_level(buf) == pytest.approx(20 * np.log10(0.1), abs=1e-9)

    def test_padding_does_not_change_level(self):
        rng = np.random.default_rng(3)
        burst = 0.2 * rng.standard_normal(int(0.6 * SR))
        level_burst = active_speech_level(AudioBuffer(burst, SR))
        padded = np.concatenate([np.zeros(SR + 37), burst, np.zeros(2 * SR + 11)])
        level_padded = active_speech_level(AudioBuffer(padded, SR))
        assert level_padded == pytest.approx(level_burst, abs=0.2)

    def test_silence_raises(self):
        with pytest.raises(RevtimeError, match="no active frames"):
            active_speech_level(AudioBuffer(np.zeros(SR), SR))


class TestMixAtSnr:
    def test_unit_levels_gain_one(self):
        rng = np.random.default_rng(4)
        speech = rng.standard_normal(SR)
        speech /= np.sqrt(np.mean(speech ** 2))
        noise = rng.standard_normal(SR)
        noise /= np.sqrt(np.mean(noise ** 2))
        gain = noise_gain_for_snr(AudioBuffer(speech, SR), AudioBuffer(noise, SR), 0.0)
        assert gain == pytest.approx(1.0, abs=1e-9)

    def test_given_speech_level_gives_same_gain(self, speech):
        noise = AudioBuffer(0.05 * np.random.default_rng(8).standard_normal(len(speech)), SR)
        level = active_speech_level(speech)
        for snr in (-3.0, 6.0, 18.0):
            assert (noise_gain_for_snr(speech, noise, snr, speech_level_db=level)
                    == noise_gain_for_snr(speech, noise, snr))

    def test_rate_mismatch(self, speech):
        noise = AudioBuffer(np.ones(len(speech) + 1), 8000)
        with pytest.raises(RevtimeError, match="sample-rate"):
            noise_gain_for_snr(speech, noise, 10.0)

    def test_noise_too_short(self, speech):
        noise = AudioBuffer(np.ones(10), SR)
        with pytest.raises(RevtimeError, match="shorter"):
            noise_gain_for_snr(speech, noise, 10.0)

    def test_silent_noise(self, speech):
        noise = AudioBuffer(np.zeros(len(speech)), SR)
        with pytest.raises(RevtimeError, match="silent"):
            noise_gain_for_snr(speech, noise, 10.0)

    @settings(max_examples=10, deadline=None)
    @given(gain=st.sampled_from([0.1, 0.5, 2.0, 10.0]),
           snr=st.floats(min_value=-5, max_value=30))
    def test_gain_covariance(self, gain, snr, speech):
        rng = np.random.default_rng(9)
        noise = AudioBuffer(0.03 * rng.standard_normal(len(speech)), SR)
        base = noise_gain_for_snr(speech, noise, snr)
        scaled = noise_gain_for_snr(AudioBuffer(gain * speech.samples, SR), noise, snr)
        assert scaled == pytest.approx(gain * base, rel=1e-9)


class TestConvolve:
    def test_identity_with_impulse(self, speech):
        impulse = AudioBuffer(np.array([1.0]), SR)
        out = convolve(speech, impulse)
        assert np.allclose(out.samples, speech.samples, atol=1e-12)

    def test_rate_mismatch(self, speech):
        with pytest.raises(RevtimeError, match="sample-rate"):
            convolve(speech, AudioBuffer([1.0], 8000))

    def test_hand_computed_three_tap(self):
        x = AudioBuffer([1.0, 2.0, 3.0, 4.0], SR)
        h = AudioBuffer([1.0, 0.5, 0.25], SR)
        out = convolve(x, h)
        expected = [1.0, 2.5, 4.25, 6.0, 2.75, 1.0]
        assert len(out) == 4 + 3 - 1
        assert np.allclose(out.samples, expected, atol=1e-12)

    # (len(signal), len(kernel)); the full length is their sum minus one.
    @pytest.mark.parametrize("n_x, n_h", [
        (4000, 1),        # 1-sample kernel: a plain product in fftconvolve
        (1, 300),         # 1-sample signal
        (1, 1),
        (2, 2),
        (3, 7),
        (200, 1500),      # kernel longer than the signal
        (600, 425),       # full length 1024 = 2^10
        (500, 230),       # full length 729 = 3^6
        (700, 302),       # full length 1001, one past 1000 = 2^3 * 5^3
        (48000, 6000),    # 3 s of speech through a 0.375 s RIR
    ])
    def test_bit_identical_to_scipy_fftconvolve(self, n_x, n_h):
        rng = np.random.default_rng(n_x * 7919 + n_h)
        x, h = rng.standard_normal(n_x), rng.standard_normal(n_h)
        out = convolve(AudioBuffer(x, SR), AudioBuffer(h, SR))
        assert np.array_equal(out.samples, fftconvolve(x, h, mode="full"))

    def test_fft_length_matches_scipy(self):
        sizes = list(range(1, 5001)) + list(range(5001, 200_001, 37)) + [200_000]
        assert [_next_fast_len(n) for n in sizes] == [
            next_fast_len(n, real=True) for n in sizes]


_ROOM = {"dims": (5.0, 4.0, 3.0), "source": (1.0, 1.0, 1.0), "mic": (2.0, 2.0, 1.5),
         "target_t60": 0.5, "sample_rate": SR, "rir_length": 0.8}
_ITEM = {"item_id": "x", "speech_path": "s.wav", "rir_path": "r.wav", "noise_path": "",
         "snr_db": math.inf, "noise_type": "none", "t60_true": 0.4, "mix_path": "x.wav"}
_RECORD = {"item_id": "x", "variant": "mel_band", "noise_type": "none", "snr_db": math.inf,
           "t60_true": 0.4, "t60_est": 0.5, "error": 0.1, "cpu_time": 0.001,
           "audio_duration": 2.0}
_CFG = EstimatorConfig.default("mel_band")

# (what the error names, the rule, a build that puts the value in that place)
# for every place signal_core._check_finite guards.
_GUARDED = {
    "RoomSpec.dims": ("dims", "positive",
                      lambda v: RoomSpec(**{**_ROOM, "dims": (5.0, v, 3.0)})),
    "RoomSpec.target_t60": ("target_t60", "positive",
                            lambda v: RoomSpec(**{**_ROOM, "target_t60": v})),
    "RoomSpec.rir_length": ("rir_length", "positive",
                            lambda v: RoomSpec(**{**_ROOM, "rir_length": v})),
    "RoomSpec.sample_rate": ("sample_rate", "positive",
                             lambda v: RoomSpec(**{**_ROOM, "sample_rate": v})),
    "sabine_absorption.dims": ("dims", "positive",
                               lambda v: sabine_absorption((5.0, 4.0, v), 0.5)),
    "sabine_absorption.t60": ("t60", "positive",
                              lambda v: sabine_absorption((5.0, 4.0, 3.0), v)),
    "AudioBuffer.sample_rate": ("sample_rate", "positive",
                                lambda v: AudioBuffer([0.1, 0.2], v)),
    "synthetic_speech.duration_s": ("duration_s", "positive",
                                    lambda v: synthetic_speech(v, SR, seed=1)),
    "shaped_noise.duration_s": ("duration_s", "positive",
                                lambda v: shaped_noise(v, SR, seed=1)),
    "RoomSampler.sample.target_t60": (
        "T60", "positive", lambda v: RoomSampler().sample(np.random.default_rng(0), v, SR)),
    "default_t60_grid.t60_max": ("T60", "positive", default_t60_grid),
    "TrainingPair.nsv": ("nsv", "positive", lambda v: TrainingPair(v, 0.4, "r", "u")),
    "TrainingPair.t60_true": ("t60_true", "positive",
                              lambda v: TrainingPair(10.0, v, "r", "u")),
    "CorpusItem.t60_true": ("t60_true", "positive",
                            lambda v: CorpusItem(**{**_ITEM, "t60_true": v})),
    **{f"EvalRecord.{field}": (field, rule,
                               lambda v, field=field: EvalRecord(**{**_RECORD, field: v}))
       for field, rule in (("t60_true", "positive"), ("t60_est", "non-negative"),
                           ("error", "any"), ("cpu_time", "non-negative"),
                           ("audio_duration", "positive"))},
    "MappingModel.t60_train_max": ("t60_train_max", "positive",
                                   lambda v: make_model([0.1, 0.2], t60_train_max=v)),
    **{f"EstimatorConfig.{field}": (field, rule,
                                    lambda v, field=field: replace(_CFG, **{field: v}))
       for field, rule in (("dynamic_range_db", "positive"),
                           ("min_duration_s", "non-negative"), ("snr_margin", "any"))},
    "BandSpectrogram.frame_step": ("frame_step", "positive",
                                   lambda v: BandSpectrogram(np.zeros((2, 3)), v)),
    "NsvStatistic.value": ("NSV value", "non-negative", lambda v: NsvStatistic(v, 5, 9)),
}


class TestFiniteQuantities:
    """One rule for every physical quantity: NaN and both infinities raise
    everywhere, zero only where the rule is "positive", a negative value
    unless the rule is "any"; the error names the field and the value."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("place", list(_GUARDED))
    def test_rule(self, place, value):
        name, rule, build = _GUARDED[place]
        legal = math.isfinite(value) and (rule == "any" or (rule == "non-negative"
                                                            and value == 0.0))
        if legal:
            build(value)
            return
        with pytest.raises(RevtimeError, match=re.escape(f"{name} must be finite")
                           + f".*, got {re.escape(repr(value))}$"):
            build(value)

    @pytest.mark.parametrize("build", [
        lambda snr: CorpusItem(**{**_ITEM, "snr_db": snr}),
        lambda snr: EvalRecord(**{**_RECORD, "snr_db": snr}),
    ], ids=["CorpusItem", "EvalRecord"])
    def test_snr_is_a_number_or_clean(self, build):
        for snr in (math.inf, 0.0, -5.0, 18.0):
            build(snr)
        for snr in (math.nan, -math.inf):
            with pytest.raises(RevtimeError, match=f"snr_db must be a number or \\+inf, "
                                                   f"got {snr!r}"):
                build(snr)

    def test_sample_rate_below_one_hertz_raises(self):
        # int() would truncate it to a rate of 0.
        with pytest.raises(RevtimeError, match="sample_rate must be finite and positive"):
            AudioBuffer([0.1, 0.2], 0.5)
