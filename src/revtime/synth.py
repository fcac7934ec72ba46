"""Seeded synthetic signals for the zero-asset demo corpus.

The "speech" here is amplitude-modulated noise bursts with pauses. It has
the on/off structure the decay statistics need but it is not speech, so any
accuracy numbers measured on it are qualitative only.

Each generator works in place, keeping its output and at most one work
array of that length alive, which bounds the demo's peak memory. Every
value is still computed by the same operations in the same order as the
allocating versions the tests keep as references, so outputs are
bit-identical to theirs.
"""

from __future__ import annotations

import numpy as np

from .errors import RevtimeError
from .signal_core import AudioBuffer, _check_finite

# Burst/pause structure, in seconds. Dense on/off alternation gives every
# utterance many decay endpoints, which keeps the NSV statistic tight.
BURST_RANGE = (0.10, 0.28)
PAUSE_RANGE = (0.06, 0.16)
ATTACK_S = 0.015
RELEASE_S = 0.012

# Low-level noise floor baked into "anechoic" speech, like a quiet recording
# chain. It keeps log-spectra off the hard digital floor and must stay well
# above 16-bit quantization noise so estimates computed from written files
# match estimates computed in memory.
SPEECH_FLOOR_DB = -55.0


def _tilted_noise(rng: np.random.Generator, n: int, sample_rate: int,
                  tilt_db_per_octave: float, corner_hz: float) -> np.ndarray:
    """White Gaussian noise with a spectral tilt above corner_hz."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    tilt = np.fft.rfftfreq(n, 1.0 / sample_rate)
    np.maximum(tilt, corner_hz, out=tilt)
    tilt /= corner_hz
    np.power(tilt, tilt_db_per_octave / 6.0206, out=tilt)
    spectrum *= tilt
    del tilt
    shaped = np.fft.irfft(spectrum, n=n)
    del spectrum
    shaped /= np.sqrt(np.mean(np.square(shaped))) + 1e-30
    return shaped


def synthetic_speech(duration_s: float, sample_rate: int, seed: int) -> AudioBuffer:
    """Speech-like test signal: tilted-noise bursts with sharp releases."""
    _check_finite("duration_s", duration_s)
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    out = np.zeros(n)
    tilt = rng.uniform(-7.0, -4.0)  # per-talker spectral slope
    attack = max(1, int(ATTACK_S * sample_rate))
    release = max(1, int(RELEASE_S * sample_rate))
    cursor = int(rng.uniform(*PAUSE_RANGE) * sample_rate * 0.5)
    while cursor < n:
        blen = int(rng.uniform(*BURST_RANGE) * sample_rate)
        blen = min(blen, n - cursor)
        if blen > attack + release:
            burst = _tilted_noise(rng, blen, sample_rate, tilt, 300.0)
            env = np.ones(blen)
            env[:attack] = 0.5 - 0.5 * np.cos(np.pi * np.arange(attack) / attack)
            env[-release:] = 0.5 + 0.5 * np.cos(np.pi * np.arange(release) / release)
            am_hz = rng.uniform(2.5, 5.0)
            t = np.arange(blen) / sample_rate
            env *= 1.0 + 0.4 * np.sin(2.0 * np.pi * am_hz * t + rng.uniform(0, 2 * np.pi))
            out[cursor:cursor + blen] = rng.uniform(0.5, 1.0) * burst * env
        cursor += blen + int(rng.uniform(*PAUSE_RANGE) * sample_rate)
    noise = rng.standard_normal(n)
    noise *= 10.0 ** (SPEECH_FLOOR_DB / 20.0)
    out += noise
    del noise
    peak = max(out.max(), -out.min())
    if peak == 0.0:
        raise RevtimeError("generated signal is silent; duration too short?")
    out *= 0.5
    out /= peak
    return AudioBuffer(out, sample_rate)


def shaped_noise(duration_s: float, sample_rate: int, seed: int) -> AudioBuffer:
    """Stationary Gaussian noise shaped to -6 dB/octave above 50 Hz."""
    _check_finite("duration_s", duration_s)
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    x = _tilted_noise(rng, n, sample_rate, -6.0, 50.0)
    x *= 0.1
    return AudioBuffer(x, sample_rate)


def babble_noise(source: AudioBuffer, seed: int) -> AudioBuffer:
    """Sum of eight shifted, attenuated copies of a held-out speech signal."""
    rng = np.random.default_rng(seed)
    mix = np.zeros(len(source))
    for _ in range(8):
        shift = int(rng.integers(0, len(source)))
        copy = np.roll(source.samples, shift)
        copy *= rng.uniform(0.3, 1.0)
        mix += copy
        del copy
    rms = np.sqrt(np.mean(np.square(mix)))
    mix *= 0.1
    mix /= rms
    return AudioBuffer(mix, source.sample_rate)
