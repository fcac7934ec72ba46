import time

import numpy as np
import pytest

from revtime.signal_core import AudioBuffer
from revtime.synth import synthetic_speech

SR = 16000

# The keys of the training report that train writes beside its model and
# demo writes per variant, in their order.
TRAINING_REPORT_KEYS = ["variant", "n_pairs", "n_skipped", "rms_residual_s",
                        "t60_train_max", "grid", "target", "order", "seed"]


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory):
    """One full desk-scale demo: train both variants, build the 180-item
    corpus plus the clean held-out set, evaluate, report."""
    from revtime.cli import main

    out = tmp_path_factory.mktemp("demo")
    start = time.perf_counter()
    code = main(["demo", "--out", str(out), "--seed", "7", "--quiet"])
    elapsed = time.perf_counter() - start
    assert code == 0
    return out, elapsed


def exponential_rir(t60: float, sample_rate: int = SR, length_factor: float = 1.25,
                    seed: int | None = None) -> AudioBuffer:
    """RIR with an exact exponential envelope: analytic T60 by construction.

    An amplitude envelope exp(-t/tau) decays at (20/ln10)/tau dB/s, so
    tau = t60 / (3 ln 10). With seed=None the envelope itself is the RIR
    (deterministic, exactly linear EDC); otherwise it modulates white noise.
    """
    tau = t60 / (3.0 * np.log(10.0))
    n = int(round(length_factor * t60 * sample_rate))
    t = np.arange(n) / sample_rate
    env = np.exp(-t / tau)
    if seed is not None:
        env = env * np.random.default_rng(seed).standard_normal(n)
    return AudioBuffer(env, sample_rate)


@pytest.fixture(scope="session")
def speech():
    return synthetic_speech(2.5, SR, seed=11)


@pytest.fixture(scope="session")
def short_speech():
    return synthetic_speech(1.5, SR, seed=12)
