"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with -s or -rA to see them)."""

import statistics
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import SMALL_DEMO_ARGS, SR, exponential_rir, make_model, write_corpus_inputs
from revtime.cli import main
from revtime.estimator import (
    BandSpectrogram,
    EstimatorConfig,
    NsvStatistic,
    decay_gradients,
    map_nsv_to_t60,
    nsv,
    nsv_from_audio,
)
from revtime.eval_harness import build_corpus, read_records, rtf, write_manifest
from revtime.room_acoustics import (
    RoomSpec,
    image_method_rir,
    schroeder_edc,
    t60_from_edc,
)
from revtime.signal_core import (
    active_speech_level,
    convolve,
    load_json,
    load_wav,
)
from revtime.synth import shaped_noise, synthetic_speech
from revtime.trainer import RoomSampler


def _records_by_variant(path):
    by = {}
    for rec in read_records(path):
        by.setdefault(rec.variant, []).append(rec)
    return by


def test_criterion_01_gradient_oracle():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    for _ in range(100):
        n_bands = int(rng.integers(4, 30))
        n_frames = int(rng.integers(10, 60))
        w = int(rng.integers(2, min(9, n_frames)))
        values = rng.uniform(-100, 0, size=(n_bands, n_frames))
        times = np.arange(n_frames) * 0.016
        spec = BandSpectrogram(values, 0.016)
        grads = decay_gradients(spec, w)
        for b in range(n_bands):
            for i in range(n_frames - w + 1):
                t = times[i:i + w]
                design = np.stack([np.ones(w), t], axis=1)
                slope = np.linalg.solve(design.T @ design,
                                        design.T @ values[b, i:i + w])[1]
                assert grads.slopes[b, i] == pytest.approx(
                    slope, rel=1e-9, abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\ncriterion 01 gradient oracle: PASS "
          f"(100 spectrograms vs per-window fits, {elapsed:.2f} s)")


def test_criterion_02_nsv_oracle():
    rng = np.random.default_rng(43)
    checked = 0
    for _ in range(50):
        slopes = rng.normal(scale=rng.uniform(1, 300), size=(12, 50))
        mask = rng.random(size=(12, 50)) < rng.uniform(0.2, 0.9)
        flat = [s for s, m in zip(slopes.ravel(), mask.ravel()) if m and s < 0]
        if len(flat) < 2:
            continue
        stat = nsv(slopes[mask])
        assert stat.value == pytest.approx(statistics.pvariance(flat), rel=1e-12)
        checked += 1
    assert checked >= 40
    print(f"criterion 02 NSV oracle: PASS ({checked} random matrices vs "
          "flat-list population variance, rel 1e-12)")


def test_criterion_03_schroeder_accuracy():
    worst = 0.0
    for t60 in (0.1, 0.25, 0.5, 0.75, 1.0, 1.4, 1.7, 2.0):
        measured = t60_from_edc(schroeder_edc(exponential_rir(t60, seed=11)), SR)
        worst = max(worst, abs(measured / t60 - 1))
        assert measured == pytest.approx(t60, rel=0.02)
    print(f"criterion 03 Schroeder accuracy: PASS (T60 0.1..2.0 s, "
          f"worst deviation {worst:.2%} <= 2%)")


def test_criterion_04_image_method_closed_loop():
    rng = np.random.default_rng(44)
    sampler = RoomSampler()
    deviations = []
    for t60 in (0.2, 0.5, 0.8, 1.2, 1.5, 1.85):
        spec = sampler.sample(rng, t60, SR)
        measured = t60_from_edc(schroeder_edc(image_method_rir(spec)), SR)
        deviations.append(abs(measured / t60 - 1))
        assert measured == pytest.approx(t60, rel=0.20)
    print(f"criterion 04 image-method closed loop: PASS (6 random rooms, "
          f"worst deviation {max(deviations):.2%} <= 20%)")


def test_criterion_05_mixing_calibration(tmp_path):
    write_corpus_inputs(tmp_path, [(2.5, 45)], [(0.4, 21)], [shaped_noise(3.5, SR, seed=46)])
    targets = (-1.0, 12.0, 18.0)
    manifest = tmp_path / "manifest.csv"
    write_manifest([("s0.wav", "r0.wav", "n0.wav", snr, "synthetic_white") for snr in targets],
                   manifest)
    items = build_corpus(manifest, tmp_path / "built")
    reverberant = convolve(load_wav(tmp_path / "s0.wav"), load_wav(tmp_path / "r0.wav"))
    worst = 0.0
    entries = load_json(tmp_path / "built" / "items.json")
    for item, entry, target in zip(items, entries, targets, strict=True):
        mixed = load_wav(item.mix_path)
        extracted = mixed.samples / entry["output_gain"] - reverberant.samples
        realized = (active_speech_level(reverberant)
                    - 20 * np.log10(np.sqrt(np.mean(extracted ** 2))))
        worst = max(worst, abs(realized - target))
        assert realized == pytest.approx(target, abs=0.1)
    print(f"criterion 05 corpus mixing calibration: PASS (build_corpus at "
          f"-1/12/18 dB, worst error {worst:.4f} dB <= 0.1)")


def test_criterion_06_monotone_trend():
    dims, src, mic = (5.0, 4.0, 3.0), (1.2, 2.7, 1.4), (3.6, 1.3, 1.5)
    cfg = EstimatorConfig.default("mel_band")
    nsvs, trues = [], []
    for t60 in (0.2, 0.4, 0.6, 0.8, 1.0, 1.2):
        length = max(0.3, 1.3 * t60)
        spec = RoomSpec(dims, src, mic, t60, SR, length)
        rir = image_method_rir(spec)
        true = t60_from_edc(schroeder_edc(rir), SR)
        for seed in (200, 201):
            reverberant = convolve(synthetic_speech(2.5, SR, seed), rir.buf)
            nsvs.append(nsv_from_audio(reverberant, cfg).value)
            trues.append(true)
    rho = float(spearmanr(trues, nsvs).statistic)
    assert len(nsvs) >= 12
    assert abs(rho) >= 0.9
    assert rho < 0  # NSV shrinks as T60 grows
    print(f"criterion 06 monotone trend: PASS (Spearman rho {rho:.3f}, "
          f"|rho| >= 0.9 over {len(nsvs)} items)")


def test_criterion_07_closed_loop_estimation(demo_run):
    out, elapsed = demo_run
    heldout = _records_by_variant(out / "results" / "heldout_records.csv")
    desk = _records_by_variant(out / "results" / "records.csv")
    med_clean = float(np.median([abs(r.error) for r in heldout["mel_band"]]))
    at_18 = [abs(r.error) for r in desk["mel_band"] if r.snr_db == 18.0]
    med_18 = float(np.median(at_18))
    assert med_clean <= 0.2
    assert len(at_18) == 60
    assert med_18 <= 0.35
    assert elapsed <= 600.0
    print(f"criterion 07 closed-loop estimation: PASS (noise-free held-out "
          f"median |err| {med_clean:.3f} <= 0.2 s, 18 dB desk median "
          f"{med_18:.3f} <= 0.35 s, full run {elapsed:.0f} s <= 600 s)")


def test_criterion_08_noise_bias_direction(demo_run):
    out, _ = demo_run
    desk = _records_by_variant(out / "results" / "records.csv")
    full = desk["full_band"]
    med = {snr: float(np.median([r.t60_est for r in full if r.snr_db == snr]))
           for snr in (-1.0, 18.0)}
    assert med[-1.0] > med[18.0]
    print(f"criterion 08 noise-bias direction: PASS (full_band median "
          f"estimate {med[-1.0]:.3f} s at -1 dB > {med[18.0]:.3f} s at 18 dB)")


def test_criterion_09_clamp_behavior():
    model = make_model([-0.75, 0.0])  # constant negative output
    t60, flags = map_nsv_to_t60(NsvStatistic(250.0, 10, 20), model)
    assert t60 == 0.0
    assert flags == ("clamped",)
    print("criterion 09 clamp behavior: PASS (negative mapping output "
          "returns exactly 0.0 s)")


def test_criterion_10_rtf_ordering(demo_run):
    out, _ = demo_run
    desk = _records_by_variant(out / "results" / "records.csv")
    rtf_full = rtf(desk["full_band"])
    rtf_mel = rtf(desk["mel_band"])
    assert rtf_mel < rtf_full < 0.1
    print(f"criterion 10 RTF ordering: PASS (mel_band {rtf_mel:.5f} < "
          f"full_band {rtf_full:.5f} < 0.1, sequential timing)")


def test_criterion_11_demo_determinism(tmp_path):
    for sub in ("a", "b"):
        assert main(["demo", "--out", str(tmp_path / sub), *SMALL_DEMO_ARGS]) == 0
    for name in ("report.csv", "boxplot.dat"):
        a = (tmp_path / "a" / "results" / name).read_bytes()
        b = (tmp_path / "b" / "results" / name).read_bytes()
        assert a == b, f"{name} differs between identical-seed runs"
    print("criterion 11 determinism: PASS (demo --seed 3 twice, report.csv "
          "and boxplot.dat byte-identical)")
