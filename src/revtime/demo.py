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
from .trainer import _check_pair_count, default_t60_grid, draw_rooms, save_rooms, train_model

SR = 16000
HELDOUT_T60S = (0.3, 0.45, 0.6, 0.75, 0.9)


def _make_assets(root: Path, seed: int, talkers: int, utterances: int,
                 t60_list, snr_list, train_utterances: int, say) -> dict:
    """Draw every speech and noise seed, then every room, from the seed's
    generator; then say the first stage and write synthetic speech, noises,
    impulse responses and manifests under root. A --t60-list that
    draw_rooms rejects fails before anything is written."""
    rng = np.random.default_rng(seed)

    def subseed() -> int:
        return int(rng.integers(2 ** 31))

    # (file name, seconds, seed) of every utterance, in draw order.
    train = [(f"train_u{u}.wav", 2.0 + 0.5 * u, subseed()) for u in range(train_utterances)]
    evals = [(f"eval_t{t}_u{u}.wav", 2.0 + 0.5 * ((t * utterances + u) % 4), subseed())
             for t in range(talkers) for u in range(utterances)]
    heldout = [(f"heldout_u{u}.wav", 2.4 + 0.7 * u, subseed()) for u in range(2)]
    babble_seed, white_seed, mix_seed = subseed(), subseed(), subseed()
    eval_rooms = draw_rooms(rng, t60_list, 1, SR, "--t60-list")
    heldout_rooms = draw_rooms(rng, HELDOUT_T60S, 1, SR, "held-out T60")
    # Noise covers the longest eval utterance convolved with the longest eval room.
    noise_s = max(9.0, max(s for _, s, _ in evals)
                  + max(spec.rir_length for _, _, spec in eval_rooms))

    say("[1/5] synthesizing speech, noise and impulse responses")
    for directory, utts in (("train_speech", train), ("speech", evals + heldout)):
        (root / directory).mkdir(parents=True, exist_ok=True)
        for name, seconds, s in utts:
            save_wav(synthetic_speech(seconds, SR, s), root / directory / name)

    (root / "noise").mkdir(exist_ok=True)
    # The white noise is written before the babble source is made, and the
    # source is freed before the babble is written, so no two noise-length
    # transients overlap.
    save_wav(shaped_noise(noise_s, SR, white_seed), root / "noise" / "white.wav")
    save_wav(babble_noise(synthetic_speech(noise_s, SR, babble_seed), mix_seed),
             root / "noise" / "babble.wav")
    noises = {"synthetic_white": "noise/white.wav",
              "synthetic_babble": "noise/babble.wav"}

    eval_rirs = [f"rirs/{path.name}" for path, _, _ in
                 save_rooms(root / "rirs", "eval", eval_rooms)]
    heldout_rirs = [f"rirs/{path.name}" for path, _, _ in
                    save_rooms(root / "rirs", "heldout", heldout_rooms)]

    manifest = root / "corpus_manifest.csv"
    write_manifest([(f"speech/{speech}", rir, noise, snr, noise_type)
                    for speech, _, _ in evals for rir in eval_rirs
                    for noise_type, noise in noises.items() for snr in snr_list],
                   manifest)
    heldout_manifest = root / "heldout_manifest.csv"
    write_manifest([(f"speech/{speech}", rir, "", math.inf, "none")
                    for speech, _, _ in heldout for rir in heldout_rirs],
                   heldout_manifest)

    return {"train_speech": root / "train_speech", "manifest": manifest,
            "heldout_manifest": heldout_manifest}


def run_demo(out, *, seed: int, talkers: int, utterances: int, t60_list,
             snr_list, train_t60_max: float, train_rooms: int,
             train_utterances: int, order: int, jobs: int, say) -> None:
    """Run the whole chain into out: assets/, models/, corpus/,
    heldout_corpus/ and results/ (records.csv, heldout_records.csv,
    report.csv, boxplot.dat). The same arguments give byte-identical files
    apart from the cpu_time column of the records. say receives the
    progress lines. Both variants train on one draw of the training rooms.
    Too few possible training pairs, or a training grid or --t60-list that
    draw_rooms rejects, fails before anything is written or simulated.
    """
    out = Path(out)
    results = out / "results"
    grid = default_t60_grid(train_t60_max)
    _check_pair_count(len(grid) * train_rooms * train_utterances, order)
    rooms = draw_rooms(seed, grid, train_rooms, SR, "--train-t60-max")
    assets = _make_assets(out / "assets", seed, talkers, utterances, t60_list,
                          snr_list, train_utterances, say)

    say("[2/5] training both variants")
    models = []
    for variant in VARIANTS:
        model, report = train_model(
            assets["train_speech"], EstimatorConfig.default(variant, SR), rooms, seed,
            out / "models" / f"{variant}.json", order=order)
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
