"""Shared test inputs. A test takes its models, training speech and corpus
input files from the builders here, passing its own durations, seeds and
settings, rather than writing them by hand."""

import os
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import revtime
from revtime import trainer
from revtime.estimator import VARIANTS, EstimatorConfig, MappingModel
from revtime.eval_harness import run_eval_paired
from revtime.signal_core import AudioBuffer, save_wav
from revtime.synth import synthetic_speech

SR = 16000

# The keys of the training report that train writes beside its model and
# demo writes per variant, in their order.
TRAINING_REPORT_KEYS = ["variant", "n_pairs", "n_skipped", "rms_residual_s",
                        "t60_train_max", "grid", "target", "order", "seed"]

# Criterion 11's small demo: both variants trained and evaluated in ~3 s.
SMALL_DEMO_ARGS = ["--seed", "3", "--talkers", "1", "--utterances", "2",
                   "--t60-list", "0.3,0.7", "--train-rooms", "2", "--quiet"]


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


def fresh_process_env(**extra) -> dict:
    """The environment for a fresh Python process that imports this
    checkout's revtime, plus the extra variables given."""
    src = str(Path(revtime.__file__).resolve().parents[1])
    env = {**os.environ, **extra}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def cpu_settings() -> dict:
    """The CPU settings README's reproducibility contract is tested under:
    name -> (extra environment of a fresh process, None), or (None, why the
    setting does not apply on this machine)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        __cpu_dispatch__, __cpu_features__ = (), {}
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    avx512 = [f for f in found if f == "X86_V4" or f.startswith("AVX512")]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    dynamic_openblas = ("openblas" in blas.get("name", "")
                        and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))
    return {
        "avx512_off": ({"NPY_DISABLE_CPU_FEATURES": " ".join(avx512)}, None) if avx512
        else (None, f"numpy found no AVX-512 group among {found}"),
        "openblas_haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, None)
        if dynamic_openblas and __cpu_features__.get("AVX2")
        else (None, f"numpy's BLAS {blas.get('name')!r} has no Haswell kernel to force "
                    "on this CPU"),
    }


def traced_peak(fn, *args):
    """fn(*args) under tracemalloc: its result and the peak bytes traced
    during the call above the level at its start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


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


def make_model(coefficients=(0.5,), variant="mel_band", target="t60",
               t60_train_max=0.95, **config) -> MappingModel:
    """A mapping of these coefficients (by default the constant 0.5 s) under
    the default EstimatorConfig of variant with the fields in config
    replaced."""
    return MappingModel(coefficients=np.asarray(coefficients, dtype=float),
                        t60_train_max=t60_train_max, target=target,
                        config=replace(EstimatorConfig.default(variant), **config))


@pytest.fixture(scope="session")
def model_files(tmp_path_factory):
    """make_model() of each variant saved as <variant>.json."""
    root = tmp_path_factory.mktemp("models")
    paths = {variant: root / f"{variant}.json" for variant in VARIANTS}
    for variant, path in paths.items():
        make_model(variant=variant).save(path)
    return paths


@pytest.fixture(scope="session")
def model_file(model_files):
    """The constant 0.5 s mel_band model file."""
    return model_files["mel_band"]


def write_speech(directory, utterances):
    """Training speech: synthetic speech as u0.wav, u1.wav, ... in directory
    (made if missing), one per (seconds, seed) or (seconds, seed,
    sample_rate) in utterances; the rate defaults to SR."""
    directory.mkdir(parents=True, exist_ok=True)
    for u, utterance in enumerate(utterances):
        seconds, seed, rate = (*utterance, SR)[:3]
        save_wav(synthetic_speech(seconds, rate, seed=seed), directory / f"u{u}.wav")
    return directory


def write_corpus_inputs(directory, speech=(), rirs=(), noises=()):
    """The input files of a build-corpus run, written into directory (made if
    missing): s0.wav, s1.wav, ... synthetic speech of each (seconds, seed)
    in speech; r0.wav, ... a float32 exponential_rir of each (t60, seed) in
    rirs; n0.wav, ... each AudioBuffer in noises."""
    directory.mkdir(parents=True, exist_ok=True)
    for i, (seconds, seed) in enumerate(speech):
        save_wav(synthetic_speech(seconds, SR, seed=seed), directory / f"s{i}.wav")
    for i, (t60, seed) in enumerate(rirs):
        save_wav(exponential_rir(t60, seed=seed), directory / f"r{i}.wav", fmt="float32")
    for i, noise in enumerate(noises):
        save_wav(noise, directory / f"n{i}.wav")
    return directory


def write_manifest_text(path, rows):
    """A manifest of rows of text as given, malformed ones included (a row
    eval_harness.write_manifest rejects, or a spelling it does not write)."""
    path.write_text("speech,rir,noise,snr_db,noise_type\n"
                    + "".join(",".join(row) + "\n" for row in rows))
    return path


@pytest.fixture
def no_rooms(monkeypatch):
    """Make every room simulation fail the test: train, simulate-rir and
    demo all simulate through trainer.build_training_set or
    trainer.save_rooms."""
    def no_room(room):
        raise AssertionError("a room was simulated")

    monkeypatch.setattr(trainer, "image_method_rir", no_room)


def run_one(items, model, jobs=1):
    """run_eval_paired with a single model: (records, failures)."""
    return run_eval_paired(items, [model], jobs=jobs)[model.variant_tag]


@pytest.fixture(scope="session")
def speech():
    return synthetic_speech(2.5, SR, seed=11)


@pytest.fixture(scope="session")
def short_speech():
    return synthetic_speech(1.5, SR, seed=12)
