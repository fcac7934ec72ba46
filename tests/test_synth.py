import numpy as np
import pytest

from conftest import SR
from revtime.signal_core import active_speech_level
from revtime.synth import babble_noise, shaped_noise, synthetic_speech


class TestSyntheticSpeech:
    def test_deterministic(self):
        a = synthetic_speech(2.0, SR, seed=1)
        b = synthetic_speech(2.0, SR, seed=1)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self):
        a = synthetic_speech(2.0, SR, seed=1)
        b = synthetic_speech(2.0, SR, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_has_on_off_structure(self):
        buf = synthetic_speech(3.0, SR, seed=3)
        frame = SR // 100
        rms = np.sqrt(np.mean(
            buf.samples[:len(buf) // frame * frame].reshape(-1, frame) ** 2,
            axis=1))
        # pauses sit far below the bursts but above digital zero
        assert rms.min() > 0
        assert rms.max() / rms.min() > 30

    def test_peak_normalized(self):
        buf = synthetic_speech(2.0, SR, seed=4)
        assert np.max(np.abs(buf.samples)) == pytest.approx(0.5)

    def test_active_level_measurable(self):
        buf = synthetic_speech(2.0, SR, seed=5)
        level = active_speech_level(buf)
        assert -40 < level < 0


class TestNoises:
    def test_shaped_noise_tilt(self):
        buf = shaped_noise(8.0, SR, seed=6)
        spectrum = np.abs(np.fft.rfft(buf.samples))
        freqs = np.fft.rfftfreq(len(buf), 1 / SR)

        def band_power(lo, hi):
            sel = (freqs >= lo) & (freqs < hi)
            return np.mean(spectrum[sel] ** 2)

        # -6 dB/octave amplitude slope: power ratio 4 per octave
        ratio = band_power(200, 400) / band_power(400, 800)
        assert 10 * np.log10(ratio) == pytest.approx(6.0, abs=1.5)

    def test_shaped_noise_deterministic(self):
        assert np.array_equal(shaped_noise(1.0, SR, 7).samples,
                              shaped_noise(1.0, SR, 7).samples)

    def test_babble_is_sum_of_shifted_copies(self):
        source = synthetic_speech(4.0, SR, seed=8)
        babble = babble_noise(source, seed=9)
        assert len(babble) == len(source)
        rms = np.sqrt(np.mean(babble.samples ** 2))
        assert rms == pytest.approx(0.1, rel=1e-6)
        # modulation depth well below single-talker speech
        frame = SR // 100
        n = len(babble) // frame * frame
        frame_rms = np.sqrt(np.mean(
            babble.samples[:n].reshape(-1, frame) ** 2, axis=1))
        source_rms = np.sqrt(np.mean(
            source.samples[:n].reshape(-1, frame) ** 2, axis=1))
        assert (frame_rms.std() / frame_rms.mean()
                < source_rms.std() / source_rms.mean())
