import numpy as np
import pytest

from conftest import SR, traced_peak
from revtime import synth
from revtime.errors import RevtimeError
from revtime.signal_core import AudioBuffer, active_speech_level
from revtime.synth import babble_noise, shaped_noise, synthetic_speech


# The allocating generators, kept as oracles for the in-place ones: every
# value is computed by the same operation in the same order, so the outputs
# must agree byte for byte.
def reference_tilted_noise(rng, n, sample_rate, tilt_db_per_octave, corner_hz):
    x = rng.standard_normal(n)
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    ratio = np.maximum(freqs, corner_hz) / corner_hz
    spectrum *= ratio ** (tilt_db_per_octave / 6.0206)
    shaped = np.fft.irfft(spectrum, n=n)
    return shaped / (np.sqrt(np.mean(np.square(shaped))) + 1e-30)


def reference_synthetic_speech(duration_s, sample_rate, seed):
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    out = np.zeros(n)
    tilt = rng.uniform(-7.0, -4.0)
    attack = max(1, int(synth.ATTACK_S * sample_rate))
    release = max(1, int(synth.RELEASE_S * sample_rate))
    cursor = int(rng.uniform(*synth.PAUSE_RANGE) * sample_rate * 0.5)
    while cursor < n:
        blen = int(rng.uniform(*synth.BURST_RANGE) * sample_rate)
        blen = min(blen, n - cursor)
        if blen > attack + release:
            burst = reference_tilted_noise(rng, blen, sample_rate, tilt, 300.0)
            env = np.ones(blen)
            env[:attack] = 0.5 - 0.5 * np.cos(np.pi * np.arange(attack) / attack)
            env[-release:] = 0.5 + 0.5 * np.cos(np.pi * np.arange(release) / release)
            am_hz = rng.uniform(2.5, 5.0)
            t = np.arange(blen) / sample_rate
            env *= 1.0 + 0.4 * np.sin(2.0 * np.pi * am_hz * t + rng.uniform(0, 2 * np.pi))
            out[cursor:cursor + blen] = rng.uniform(0.5, 1.0) * burst * env
        cursor += blen + int(rng.uniform(*synth.PAUSE_RANGE) * sample_rate)
    floor = 10.0 ** (synth.SPEECH_FLOOR_DB / 20.0)
    out += floor * rng.standard_normal(n)
    peak = np.max(np.abs(out))
    if peak == 0.0:
        raise RevtimeError("generated signal is silent; duration too short?")
    return AudioBuffer(0.5 * out / peak, sample_rate)


def reference_shaped_noise(duration_s, sample_rate, seed):
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    x = reference_tilted_noise(rng, n, sample_rate, -6.0, 50.0)
    return AudioBuffer(0.1 * x, sample_rate)


def reference_babble_noise(source, seed):
    rng = np.random.default_rng(seed)
    mix = np.zeros(len(source))
    for _ in range(8):
        shift = int(rng.integers(0, len(source)))
        mix += rng.uniform(0.3, 1.0) * np.roll(source.samples, shift)
    rms = np.sqrt(np.mean(np.square(mix)))
    return AudioBuffer(0.1 * mix / rms, source.sample_rate)


# Durations from shorter than the shortest burst to the demo's 9 s noises.
ORACLE_DURATIONS = (0.08, 0.5, 2.3, 9.0)
ORACLE_SEEDS = (1, 17, 2024)


@pytest.mark.parametrize("rate", [16000, 48000])
class TestMatchesReference:
    def test_tilted_noise(self, rate):
        for seed in ORACLE_SEEDS:
            for n, tilt, corner in ((1, -6.0, 50.0), (4001, -5.3, 300.0),
                                    (rate // 3, -6.9, 300.0), (9 * rate, -6.0, 50.0)):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = synth._tilted_noise(rng, n, rate, tilt, corner)
                want = reference_tilted_noise(ref_rng, n, rate, tilt, corner)
                assert got.tobytes() == want.tobytes()
                # the same draws, so the caller's next draw is unchanged too
                assert rng.random() == ref_rng.random()

    def test_speech_and_noises(self, rate):
        for seed in ORACLE_SEEDS:
            for duration in ORACLE_DURATIONS:
                speech = synthetic_speech(duration, rate, seed)
                assert speech.samples.tobytes() == reference_synthetic_speech(
                    duration, rate, seed).samples.tobytes()
                assert shaped_noise(duration, rate, seed).samples.tobytes() == \
                    reference_shaped_noise(duration, rate, seed).samples.tobytes()
                assert babble_noise(speech, seed + 1).samples.tobytes() == \
                    reference_babble_noise(speech, seed + 1).samples.tobytes()


class TestWorkMemory:
    """At the demo's 9 s noise length, each generator keeps its output and
    at most one work array of that length alive: AudioBuffer's copy of the
    output is that one. The allocating versions peaked at 5.0 (shaped
    noise), 3.0 (speech) and 3.0 (babble) output lengths; the in-place ones
    at about 2.06, 2.03 and 2.01."""

    BOUND = 2.5
    SECONDS = 9.0

    def assert_within_bound(self, fn, *args):
        buf, peak = traced_peak(fn, *args)
        assert peak <= self.BOUND * buf.samples.nbytes

    def test_shaped_noise(self):
        self.assert_within_bound(shaped_noise, self.SECONDS, SR, 3)

    def test_synthetic_speech(self):
        self.assert_within_bound(synthetic_speech, self.SECONDS, SR, 3)

    def test_babble_noise(self):
        self.assert_within_bound(babble_noise, synthetic_speech(self.SECONDS, SR, 5), 4)


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
