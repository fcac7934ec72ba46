"""Zero-asset demo: synthesize speech, noise and rooms, train both
estimator variants, build a noisy and a clean held-out corpus, evaluate
and report."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .estimator import VARIANTS, EstimatorConfig
from .eval_harness import (
    build_corpus,
    evaluate_to_dir,
    rtf_table,
    run_eval_paired,
    write_manifest,
    write_records,
)
from .signal_core import save_wav
from .synth import babble_noise, shaped_noise, synthetic_speech
from .trainer import _check_pair_count, check_targets, default_t60_grid, save_rooms, train_model

SR = 16000
HELDOUT_T60S = (0.3, 0.45, 0.6, 0.75, 0.9)


def _make_assets(root: Path, seed: int, talkers: int, utterances: int,
                 t60_list, snr_list, train_utterances: int) -> dict:
    """Write synthetic speech, noises, impulse responses and manifests."""
    rng = np.random.default_rng(seed)

    def subseed() -> int:
        return int(rng.integers(2 ** 31))

    train_dir = root / "train_speech"
    speech_dir = root / "speech"
    noise_dir = root / "noise"
    for d in (train_dir, speech_dir, noise_dir):
        d.mkdir(parents=True, exist_ok=True)

    for u in range(train_utterances):
        save_wav(synthetic_speech(2.0 + 0.5 * u, SR, subseed()),
                 train_dir / f"train_u{u}.wav")

    eval_speech = []
    for t in range(talkers):
        for u in range(utterances):
            dur = 2.0 + 0.5 * ((t * utterances + u) % 4)
            name = f"eval_t{t}_u{u}.wav"
            save_wav(synthetic_speech(dur, SR, subseed()), speech_dir / name)
            eval_speech.append(f"speech/{name}")

    heldout_speech = []
    for u in range(2):
        name = f"heldout_u{u}.wav"
        save_wav(synthetic_speech(2.4 + 0.7 * u, SR, subseed()), speech_dir / name)
        heldout_speech.append(f"speech/{name}")

    babble_source = synthetic_speech(9.0, SR, subseed())
    save_wav(shaped_noise(9.0, SR, subseed()), noise_dir / "white.wav")
    save_wav(babble_noise(babble_source, subseed()), noise_dir / "babble.wav")
    noises = {"synthetic_white": "noise/white.wav",
              "synthetic_babble": "noise/babble.wav"}

    eval_rirs = [f"rirs/{path.name}" for path, _, _ in
                 save_rooms(root / "rirs", "eval", rng, t60_list, 1, SR, "--t60-list")]
    heldout_rirs = [f"rirs/{path.name}" for path, _, _ in
                    save_rooms(root / "rirs", "heldout", rng, HELDOUT_T60S, 1, SR, "held-out T60")]

    manifest = root / "corpus_manifest.csv"
    write_manifest([(speech, rir, noise, snr, noise_type)
                    for speech in eval_speech for rir in eval_rirs
                    for noise_type, noise in noises.items() for snr in snr_list],
                   manifest)
    heldout_manifest = root / "heldout_manifest.csv"
    write_manifest([(speech, rir, "", math.inf, "none")
                    for speech in heldout_speech for rir in heldout_rirs],
                   heldout_manifest)

    return {"train_speech": train_dir, "manifest": manifest,
            "heldout_manifest": heldout_manifest}


def run_demo(out, *, seed: int, talkers: int, utterances: int, t60_list,
             snr_list, train_t60_max: float, train_rooms: int,
             train_utterances: int, order: int, jobs: int, say) -> None:
    """Run the whole chain into out: assets/, models/, corpus/,
    heldout_corpus/ and results/ (records.csv, heldout_records.csv,
    report.csv, boxplot.dat). The same arguments give byte-identical files
    apart from the cpu_time column of the records. say receives the
    progress lines. A training grid or --t60-list that fails check_targets,
    or too few possible training pairs, fails before anything is
    synthesized or simulated.
    """
    out = Path(out)
    results = out / "results"
    grid = default_t60_grid(train_t60_max)
    check_targets(grid, "--train-t60-max")
    _check_pair_count(len(grid) * train_rooms * train_utterances, order)
    check_targets(t60_list, "--t60-list")

    say("[1/5] synthesizing speech, noise and impulse responses")
    assets = _make_assets(out / "assets", seed, talkers, utterances, t60_list,
                          snr_list, train_utterances)

    say("[2/5] training both variants")
    models = []
    for variant in VARIANTS:
        model, report = train_model(
            assets["train_speech"], EstimatorConfig.default(variant, SR), grid,
            train_rooms, seed, out / "models" / f"{variant}.json", order=order)
        models.append(model)
        say(f"  {variant}: {report['n_pairs']} pairs ({report['n_skipped']} "
            f"skipped), rms residual {report['rms_residual_s']:.3f} s")

    say("[3/5] building the corpora")
    items = build_corpus(assets["manifest"], out / "corpus")
    heldout = build_corpus(assets["heldout_manifest"], out / "heldout_corpus")
    say(f"  {len(items)} noisy items, {len(heldout)} clean held-out items")

    say("[4/5] evaluating the noisy corpus")
    eval_results = evaluate_to_dir(items, models, results, jobs=jobs)

    say("[5/5] evaluating the held-out corpus")
    heldout_results = run_eval_paired(heldout, models, jobs=jobs)
    for variant, (records, failures) in heldout_results.items():
        n_failed = len(failures) + len(eval_results[variant][1])
        if n_failed:
            say(f"  {variant}: {n_failed} items failed")
        med = float(np.median([abs(r.error) for r in records]))
        say(f"  {variant}: held-out median |error| = {med:.3f} s")
    write_records([r for records, _ in heldout_results.values() for r in records],
                  results / "heldout_records.csv")
    say(rtf_table([r for records, _ in eval_results.values() for r in records]))
    say(f"deterministic report files: {results / 'report.csv'} "
        f"{results / 'boxplot.dat'}")
