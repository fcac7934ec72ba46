"""End-to-end behavior of trained models, sharing the session demo run."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import SR, TRAINING_REPORT_KEYS, run_one
from revtime.estimator import VARIANTS, MappingModel, estimate_t60
from revtime.eval_harness import load_items, run_eval_paired
from revtime.room_acoustics import image_method_rir, schroeder_edc, t60_from_edc
from revtime.signal_core import convolve, save_wav
from revtime.synth import synthetic_speech
from revtime.trainer import RoomSampler

@pytest.fixture(scope="module")
def demo_models(demo_run):
    out, _ = demo_run
    return {v: MappingModel.load(out / "models" / f"{v}.json")
            for v in ("full_band", "mel_band")}


def demo_reports(out) -> dict:
    """The training report demo writes beside each model, by variant."""
    return {v: json.loads((out / "models" / f"{v}.report.json").read_text())
            for v in VARIANTS}


def test_training_residual_bound(demo_run):
    out, _ = demo_run
    report = demo_reports(out)
    for variant, entry in report.items():
        assert entry["rms_residual_s"] <= 0.2, variant
        assert entry["t60_train_max"] == 0.95


def test_training_report_entries_are_train_reports(demo_run):
    out, _ = demo_run
    report = demo_reports(out)
    assert sorted(report) == ["full_band", "mel_band"]
    for variant, entry in report.items():
        assert list(entry) == TRAINING_REPORT_KEYS
        assert entry["variant"] == variant
        assert entry["grid"][-1] == entry["t60_train_max"]


def test_dry_speech_estimates_near_zero(demo_models):
    dry = synthetic_speech(2.5, SR, seed=600)
    result = estimate_t60(dry, demo_models["mel_band"])
    assert result.t60 <= 0.2


def test_half_second_room_within_150ms(demo_models):
    rng = np.random.default_rng(77)
    room = RoomSampler().sample(rng, 0.5, SR)
    rir = image_method_rir(room)
    true = t60_from_edc(schroeder_edc(rir), SR)
    reverberant = convolve(synthetic_speech(2.6, SR, seed=601), rir.buf)
    result = estimate_t60(reverberant, demo_models["mel_band"])
    assert result.t60 == pytest.approx(0.5, abs=0.15)
    assert result.t60 == pytest.approx(true, abs=0.15)


def test_estimates_bit_identical_across_runs(demo_models, demo_run):
    out, _ = demo_run
    items = load_items(out / "heldout_corpus")
    model = demo_models["mel_band"]
    r1, _ = run_one(items, model)
    r2, _ = run_one(items, model)
    assert [r.t60_est for r in r1] == [r.t60_est for r in r2]


def test_paired_eval_matches_single_model_estimates(demo_models, demo_run):
    out, _ = demo_run
    items = load_items(out / "heldout_corpus")
    models = list(demo_models.values())
    paired = run_eval_paired(items, models)
    for model in models:
        single, failures = run_one(items, model)
        records, pfailures = paired[model.variant_tag]
        assert not failures and not pfailures
        assert [r.t60_est for r in records] == [r.t60_est for r in single]
        assert [r.item_id for r in records] == [r.item_id for r in single]


def test_failed_items_are_counted_not_dropped(demo_models, tmp_path, demo_run):
    out, _ = demo_run
    items = load_items(out / "heldout_corpus")
    # corrupt one item so its audio is shorter than the estimator minimum
    bad_path = tmp_path / "tiny.wav"
    save_wav(synthetic_speech(0.4, SR, seed=5), bad_path)
    broken = [replace(items[0], item_id="broken", mix_path=str(bad_path))]
    records, failures = run_one(items + broken, demo_models["mel_band"])
    assert len(records) + len(failures) == len(items) + 1
    assert failures[0][0] == "broken"
    assert "shorter" in failures[0][1]
