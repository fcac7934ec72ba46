import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (SMALL_DEMO_ARGS, SR, TRAINING_REPORT_KEYS, cpu_settings, exponential_rir,
                      fresh_process_env, make_model, write_corpus_inputs,
                      write_manifest_text, write_speech)
from revtime import cli
from revtime.cli import main
from revtime.demo import HELDOUT_T60S
from revtime.estimator import MappingModel, StftConfig
from revtime.errors import RevtimeError
from revtime.eval_harness import read_manifest, read_records, write_manifest
from revtime.room_acoustics import measure_t60
from revtime.signal_core import AudioBuffer, load_wav, save_wav
from revtime.synth import synthetic_speech
from revtime.trainer import RoomSampler, default_t60_grid

# Manifest rows over the files write_corpus_inputs names.
CLEAN = ("s0.wav", "r0.wav", "", math.inf, "none")
NOISY = ("s0.wav", "r0.wav", "n0.wav", 12, "fan")
NOISY_TEXT = ("s0.wav", "r0.wav", "n0.wav", "12", "fan")


@pytest.fixture(scope="module")
def audio_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "utt.wav"
    save_wav(synthetic_speech(1.8, SR, seed=31), path)
    return path


@pytest.fixture(scope="module")
def speech_dir(tmp_path_factory):
    return write_speech(tmp_path_factory.mktemp("speech"), [(1.6, 40), (1.6, 41)])


@pytest.fixture(scope="module")
def short_speech_dir(tmp_path_factory):
    return write_speech(tmp_path_factory.mktemp("short_speech"), [(0.45, 40), (0.45, 41)])


@pytest.fixture(scope="module")
def mixed_speech_dir(tmp_path_factory):
    return write_speech(tmp_path_factory.mktemp("mixed_speech"), [(0.45, 40), (1.6, 41)])


def run_build_corpus(directory, rows=None) -> int:
    """build-corpus of directory/m.csv into directory/corpus, the manifest
    written from rows first if they are given."""
    if rows is not None:
        write_manifest(rows, directory / "m.csv")
    return main(["build-corpus", "--manifest", str(directory / "m.csv"),
                 "--out", str(directory / "corpus"), "--quiet"])


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "revtime" in capsys.readouterr().out

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag_is_usage_error(self, audio_file, model_file):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(audio_file), "--model", str(model_file),
                  "--frobnicate"])
        assert exc.value.code == 1


@pytest.mark.parametrize("argv, expected", [
    (["estimate", "{audio}", "--model", "{model}"], 0),
    (["simulate-rir", "--t60", "inf", "--out", "{out}"], 1),
    (["simulate-rir", "--t60", "0.5", "--t60", "0.5", "--out", "{out}"], 1),
    (["estimate", "{short}", "--model", "{model}"], 2),
], ids=["ok", "usage_error", "revtime_error", "estimation_error"])
def test_console_entry_exit_code(tmp_path, monkeypatch, capsys, audio_file, model_file,
                                 argv, expected):
    """The `revtime` console script, cli.entry, exits with main's code."""
    save_wav(synthetic_speech(0.4, SR, seed=32), tmp_path / "short.wav")
    paths = {"audio": audio_file, "model": model_file, "out": tmp_path / "out",
             "short": tmp_path / "short.wav"}
    monkeypatch.setattr(sys, "argv", ["revtime", *(a.format(**paths) for a in argv)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == expected
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestEstimate:
    def test_plain_output(self, audio_file, model_file, capsys):
        code = main(["estimate", str(audio_file), "--model", str(model_file)])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("t60_seconds=0.5 ")
        assert "nsv=" in out and "flags=" in out

    def test_json_matches_plain(self, audio_file, model_file, capsys):
        main(["estimate", str(audio_file), "--model", str(model_file)])
        plain = capsys.readouterr().out.strip()
        main(["estimate", str(audio_file), "--model", str(model_file), "--json"])
        data = json.loads(capsys.readouterr().out)
        fields = dict(kv.split("=") for kv in plain.split())
        assert data["t60_seconds"] == float(fields["t60_seconds"])
        assert data["nsv"] == float(fields["nsv"])

    def test_missing_model_exits_one(self, audio_file, capsys):
        code = main(["estimate", str(audio_file), "--model", "/nope/model.json"])
        assert code == 1
        assert "/nope/model.json" in capsys.readouterr().err

    def test_missing_audio_exits_one(self, model_file, capsys):
        code = main(["estimate", "/nope/a.wav", "--model", str(model_file)])
        assert code == 1

    def test_estimator_failure_exits_two(self, tmp_path, model_file, capsys):
        too_short = tmp_path / "short.wav"
        save_wav(synthetic_speech(0.4, SR, seed=32), too_short)
        code = main(["estimate", str(too_short), "--model", str(model_file)])
        assert code == 2
        assert "estimation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("variant, overrides, seconds, expected", [
        ("full_band", {"window_frames": 100}, 1.2, "74 frames, need at least 100"),
        ("mel_band", {"stft": StftConfig.for_sample_rate(SR, 200.0, 200.0)}, 1.5,
         "need at least 10 frames"),
    ], ids=["slope_window", "noise_floor"])
    def test_input_too_short_for_model_exits_two(self, tmp_path, capsys, variant,
                                                 overrides, seconds, expected):
        """Audio over min_duration_s but too short for the model's slope
        window or noise-floor estimate is an estimation failure."""
        model = tmp_path / "model.json"
        make_model(variant=variant, **overrides).save(model)
        audio = tmp_path / "utt.wav"
        save_wav(synthetic_speech(seconds, SR, seed=33), audio)
        code = main(["estimate", str(audio), "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert "estimation failed" in err and expected in err, err

    @pytest.mark.parametrize("coefficients, target", [
        ([400.0], "log_t60"), ([1e308, 1e308], "t60"),
    ], ids=["log_t60", "t60"])
    def test_overflowing_mapping_fails_each_estimate(self, tmp_path, audio_file, tiny_corpus,
                                                     capsys, coefficients, target):
        """A mapping that overflows is an estimation failure: estimate exits
        2 and evaluate records one failure per item."""
        model = tmp_path / "model.json"
        make_model(coefficients, target=target).save(model)
        code = main(["estimate", str(audio_file), "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("estimation failed: ") and "not a finite T60" in err, err
        out = tmp_path / "results"
        assert main(["evaluate", "--corpus", str(tiny_corpus), "--model", str(model),
                     "--out", str(out)]) == 0
        assert "mel_band: 2 items failed" in capsys.readouterr().out
        assert len((out / "records.csv").read_text().splitlines()) == 1


class TestSimulateRir:
    def test_writes_wav_and_sidecar(self, tmp_path, capsys):
        out = tmp_path / "rirs"
        code = main(["simulate-rir", "--out", str(out), "--t60", "0.4",
                     "--seed", "5", "--quiet"])
        assert code == 0
        wavs = sorted(out.glob("*.wav"))
        assert len(wavs) == 1
        text = wavs[0].with_suffix(".json").read_text()
        sidecar = json.loads(text)
        assert sidecar["measured_t60"] == pytest.approx(0.4, rel=0.2)
        assert sidecar["room"]["target_t60"] == 0.4
        assert "max_image_order" not in text

    @pytest.mark.parametrize("t60", [2.2, 3.0])
    def test_room_clamped_at_max_dim_reaches_its_target(self, tmp_path, capsys, t60):
        """Rooms this long have sides clamped at 10 m; the simulator lowers
        the absorption to reach the target anyway."""
        out = tmp_path / "rirs"
        code = main(["simulate-rir", "--out", str(out), "--t60", str(t60),
                     "--sample-rate", "8000", "--quiet"])
        assert code == 0, capsys.readouterr().err
        sidecar = json.loads((out / f"rir_t60_{t60:.3f}_room0.json").read_text())
        assert max(sidecar["room"]["dims"]) == pytest.approx(10.0)
        assert sidecar["measured_t60"] == pytest.approx(t60, rel=0.2)

    @pytest.mark.parametrize("targets", [("0.5", "0.5"), ("0.3001", "0.3004")],
                             ids=["equal", "same_stem"])
    def test_repeated_target_fails_before_any_room(self, tmp_path, no_rooms, capsys,
                                                   targets):
        out = tmp_path / "rirs"
        code = main(["simulate-rir", "--out", str(out), "--t60", targets[0],
                     "--t60", targets[1], "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --t60 ") and targets[0] in err
        assert not out.exists()


def test_rir_sidecars_hold_the_build_corpus_label(tmp_path, demo_run, capsys):
    """Every sidecar's measured_t60 that simulate-rir and demo write is the
    Schroeder T60 of its stored float32 WAV, bit for bit: the t60_true that
    build-corpus gives every item of that WAV."""
    rirs = tmp_path / "rirs"
    assert main(["simulate-rir", "--out", str(rirs), "--t60", "0.3", "--t60", "0.45",
                 "--rooms-per-t60", "2", "--seed", "3", "--quiet"]) == 0
    out, _ = demo_run
    labels = {}
    for corpus in ("corpus", "heldout_corpus"):
        for item in json.loads((out / corpus / "items.json").read_text()):
            labels.setdefault(item["rir_path"], set()).add(item["t60_true"])
    demo_wavs = sorted((out / "assets" / "rirs").glob("*.wav"))
    assert set(labels) == {str(wav) for wav in demo_wavs}
    wavs = sorted(rirs.glob("*.wav")) + demo_wavs
    assert len(wavs) == 14
    for wav in wavs:
        measured = json.loads(wav.with_suffix(".json").read_text())["measured_t60"]
        assert measured == measure_t60(load_wav(wav)), wav.name
        assert labels.get(str(wav), {measured}) == {measured}, wav.name


def test_demo_noise_covers_its_longest_target(tmp_path):
    """A --t60-list target whose room outlasts the 9 s noise once convolved
    with the longest eval utterance (3.5 s + 1.0 x 5.6 s) still builds."""
    out = tmp_path / "d"
    assert main(["demo", "--out", str(out), "--talkers", "1", "--utterances", "4",
                 "--t60-list", "0.5,5.6", "--snr-list", "12", "--train-t60-max", "0.5",
                 "--train-rooms", "2", "--order", "0", "--quiet"]) == 0
    assert len(load_wav(out / "assets" / "noise" / "white.wav")) > 9 * SR


def test_demo_train_t60_max_sharing_a_room_name_with_a_step_runs(tmp_path, capsys):
    """--train-t60-max 0.9002 trains on 0.1 .. 0.8 and 0.9002, not on both
    0.9 and 0.9002 (one room name), which check_targets would reject."""
    out = tmp_path / "d"
    assert main(["demo", "--out", str(out), "--talkers", "1", "--utterances", "1",
                 "--t60-list", "0.5", "--snr-list", "12", "--train-t60-max", "0.9002",
                 "--train-rooms", "1", "--train-utterances", "2", "--order", "0",
                 "--quiet"]) == 0, capsys.readouterr().err
    report = json.loads((out / "models" / "mel_band.report.json").read_text())
    assert report["grid"] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9002]


def test_demo_draws_each_room_once(tmp_path, monkeypatch):
    """Criterion 11's small demo draws its 20 training rooms (10 grid points
    x --train-rooms 2) once for both variants, then its 2 --t60-list rooms
    and the 5 held-out rooms: one RoomSampler.sample call per room."""
    sample = RoomSampler.sample
    calls = []

    def counting_sample(self, *args):
        calls.append(args)
        return sample(self, *args)

    monkeypatch.setattr(RoomSampler, "sample", counting_sample)
    assert main(["demo", "--out", str(tmp_path / "d"), *SMALL_DEMO_ARGS]) == 0
    assert len(calls) == len(default_t60_grid(0.95)) * 2 + 2 + len(HELDOUT_T60S) == 27


def test_demo_names_its_rirs_and_reports_as_simulate_rir_and_train_do(demo_run):
    """demo's RIRs are <prefix>_t60_<t60:.3f>_room<r> WAV and sidecar pairs,
    and each model has its <variant>.report.json beside it."""
    out, _ = demo_run
    stems = [f"{prefix}_t60_{t60:.3f}_room0"
             for prefix, t60s in (("eval", (0.3, 0.5, 0.7, 0.9, 1.1)),
                                  ("heldout", HELDOUT_T60S)) for t60 in t60s]
    assert (sorted(p.name for p in (out / "assets" / "rirs").iterdir())
            == sorted(f"{stem}.{ext}" for stem in stems for ext in ("json", "wav")))
    assert sorted(p.name for p in (out / "models").iterdir()) == [
        "full_band.json", "full_band.report.json", "mel_band.json", "mel_band.report.json"]


class TestTrainCli:
    @pytest.mark.parametrize("t60_max,grid", [
        (0.95, "0.2,0.4,0.6,0.8,0.95"),
        (1.85, "0.5,0.9,1.3,1.6,1.85"),
    ])
    def test_train_stamps_t60_max(self, tmp_path, speech_dir, capsys, t60_max, grid):
        model_path = tmp_path / "model.json"
        code = main([
            "train", "--speech-dir", str(speech_dir),
            "--out", str(model_path), "--variant", "mel_band", "--grid", grid,
            "--rooms-per-t60", "1", "--order", "0", "--seed", "3", "--quiet",
        ])
        assert code == 0
        data = json.loads(model_path.read_text())
        assert data["t60_train_max"] == t60_max
        assert data["variant"] == "mel_band"
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert report["n_pairs"] == 10
        assert report["t60_train_max"] == t60_max

    def test_grid_top_is_stamped(self, tmp_path, speech_dir, capsys):
        model_path = tmp_path / "model.json"
        code = main(["train", "--speech-dir", str(speech_dir), "--out", str(model_path),
                     "--grid", "0.3,0.6,1.2", "--rooms-per-t60", "2", "--order", "0",
                     "--quiet"])
        assert code == 0, capsys.readouterr().err
        assert MappingModel.load(model_path).t60_train_max == 1.2
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert list(report) == TRAINING_REPORT_KEYS
        assert report["t60_train_max"] == 1.2
        assert report["grid"] == [0.3, 0.6, 1.2]

    def test_t60_max_sharing_a_room_name_with_a_step_trains(self, tmp_path, speech_dir,
                                                            capsys):
        """A --t60-max that rounds to a 0.1 s step's room name replaces that
        step in the default grid instead of failing check_targets."""
        model_path = tmp_path / "model.json"
        code = main(["train", "--speech-dir", str(speech_dir), "--out", str(model_path),
                     "--t60-max", "0.30001", "--rooms-per-t60", "2", "--order", "0",
                     "--quiet"])
        assert code == 0, capsys.readouterr().err
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert report["grid"] == [0.1, 0.2, 0.30001]

    def test_frame_longer_than_dry_speech_trains(self, tmp_path, speech_dir, capsys):
        """A 1.7 s frame (27200 samples) is longer than both 1.6 s utterances
        (25600 samples) but not than either in a 0.9 s room, which gives
        each full_band utterance enough frames for a pair: 5 rooms x 2
        utterances, the 10 pairs order 0 needs."""
        model_path = tmp_path / "model.json"
        code = main(["train", "--speech-dir", str(speech_dir), "--out", str(model_path),
                     "--frame-ms", "1700", "--variant", "full_band", "--grid", "0.9",
                     "--rooms-per-t60", "5", "--order", "0", "--quiet"])
        assert code == 0, capsys.readouterr().err
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert (report["n_pairs"], report["n_skipped"]) == (10, 0)

    def test_t60_max_with_grid_fails_before_any_room(self, tmp_path, speech_dir, no_rooms,
                                                     capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--speech-dir", str(speech_dir),
                  "--out", str(tmp_path / "m.json"), "--t60-max", "1.2",
                  "--grid", "0.3,0.6,1.2"])
        assert exc.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_train_creates_parent_of_out(self, tmp_path, speech_dir, capsys):
        model_path = tmp_path / "new" / "nested" / "model.json"
        code = main([
            "train", "--speech-dir", str(speech_dir), "--out", str(model_path),
            "--grid", "0.2,0.4,0.6,0.8,0.95", "--rooms-per-t60", "1",
            "--order", "0", "--quiet",
        ])
        assert code == 0, capsys.readouterr().err
        assert MappingModel.load(model_path).variant_tag == "mel_band"
        assert model_path.with_suffix(".report.json").is_file()

    def test_config_file_merged_under_flags(self, tmp_path, capsys):
        cfg = tmp_path / "revtime.conf"
        cfg.write_text("# defaults\nseed=11\nquiet=true\n")
        out = tmp_path / "rirs"
        code = main(["simulate-rir", "--out", str(out), "--t60", "0.3",
                     "--config", str(cfg)])
        assert code == 0
        assert capsys.readouterr().out == ""  # quiet came from config
        # explicit flag wins over config
        code = main(["simulate-rir", "--out", str(tmp_path / "r2"),
                     "--t60", "0.3", "--config", str(cfg), "--seed", "12"])
        assert code == 0
        a = next((out).glob("*.json")).read_text()
        b = next((tmp_path / "r2").glob("*.json")).read_text()
        assert a != b  # different seeds produce different rooms

    def test_train_creates_parent_of_pairs_csv(self, tmp_path, speech_dir, capsys):
        pairs_csv = tmp_path / "new" / "p.csv"
        code = main([
            "train", "--speech-dir", str(speech_dir),
            "--out", str(tmp_path / "model.json"), "--pairs-csv", str(pairs_csv),
            "--grid", "0.2,0.4,0.6,0.8,0.95", "--rooms-per-t60", "1",
            "--order", "0", "--quiet",
        ])
        assert code == 0, capsys.readouterr().err
        assert pairs_csv.read_text().startswith("nsv,t60_true,")

    def test_mixed_sample_rates_fail_before_any_room(self, tmp_path, no_rooms, capsys):
        speech_dir = write_speech(tmp_path / "speech", [(1.6, 40, 16000), (1.6, 41, 8000)])
        model_path = tmp_path / "model.json"
        code = main(["train", "--speech-dir", str(speech_dir), "--out", str(model_path),
                     "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert "mixed sample rates: [8000, 16000]" in err and "Traceback" not in err
        assert not model_path.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("bogus_key=1\n")
        code = main(["simulate-rir", "--out", str(tmp_path / "r"),
                     "--t60", "0.3", "--config", str(cfg)])
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err


@pytest.mark.parametrize("command, option", [
    (["simulate-rir", "--t60", "0.4", "--rooms-per-t60", "0"], "--rooms-per-t60"),
    (["train", "--rooms-per-t60", "0"], "--rooms-per-t60"),
    (["train", "--order", "-1"], "--order"),
    (["train", "--grid="], "--grid"),
    (["demo", "--talkers", "0"], "--talkers"),
    (["demo", "--utterances", "0"], "--utterances"),
    (["demo", "--train-rooms", "0"], "--train-rooms"),
    (["demo", "--train-utterances", "0"], "--train-utterances"),
    (["demo", "--order", "-1"], "--order"),
    (["demo", "--jobs", "0"], "--jobs"),
    (["demo", "--t60-list="], "--t60-list"),
    (["demo", "--snr-list="], "--snr-list"),
    (["evaluate", "--jobs", "0"], "--jobs"),
    (["simulate-rir", "--t60", "0.4", "--sample-rate", "0"], "--sample-rate"),
    (["simulate-rir", "--t60", "0.4", "--sample-rate", "-5"], "--sample-rate"),
], ids=["rir_rooms", "train_rooms", "train_order", "train_grid", "demo_talkers",
        "demo_utterances", "demo_train_rooms", "demo_train_utterances", "demo_order",
        "demo_jobs", "demo_t60_list", "demo_snr_list", "evaluate_jobs",
        "rir_sample_rate_zero", "rir_sample_rate_negative"])
def test_bad_count_or_empty_list_is_usage_error(tmp_path, speech_dir, model_file, no_rooms,
                                                capsys, command, option):
    """A count below its minimum or an empty list exits 1 with a usage line
    before any room is simulated or any file is written."""
    out = tmp_path / "out"
    required = {"simulate-rir": ["--out", str(out)],
                "train": ["--speech-dir", str(speech_dir), "--out", str(out / "m.json")],
                "demo": ["--out", str(out)],
                "evaluate": ["--corpus", str(tmp_path), "--model", str(model_file),
                             "--out", str(out)]}[command[0]]
    with pytest.raises(SystemExit) as exc:
        main([*command, *required, "--quiet"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: revtime {command[0]}")
    assert f"argument {option}: " in err
    assert not out.exists()


@pytest.mark.parametrize("command, expected", [
    (["train", "--grid", "0.3,nan"], "argument --grid: must be finite and > 0, got nan"),
    (["train", "--grid", "0.3,-0.5", "--rooms-per-t60", "4"],
     "argument --grid: must be finite and > 0, got -0.5"),
    (["train", "--t60-max", "inf"], "argument --t60-max: must be finite and > 0, got inf"),
    (["train", "--t60-max", "nan"], "argument --t60-max: must be finite and > 0, got nan"),
    (["simulate-rir", "--t60", "0.3", "--t60", "inf"],
     "argument --t60: must be finite and > 0, got inf"),
    (["demo", "--t60-list", "0.3,nan"], "argument --t60-list: must be finite and > 0"),
    (["demo", "--train-t60-max", "0"], "argument --train-t60-max: must be finite and > 0"),
    (["demo", "--snr-list", "nan"],
     "argument --snr-list: must be a finite number, inf or clean, got 'nan'"),
    (["demo", "--snr-list=12,-inf"], "argument --snr-list: must be a finite number"),
    (["train", "--snr-margin", "nan", "--grid", "0.3,0.5,0.7"],
     "argument --snr-margin: must be finite, got nan"),
    (["train", "--frame-ms", "0"], "argument --frame-ms: must be finite and > 0, got 0"),
    (["train", "--hop-ms", "-4"], "argument --hop-ms: must be finite and > 0, got -4"),
    (["train", "--hop-ms", "100"],
     "error: --hop-ms 100 is longer than --frame-ms 32 at 16000 Hz (need 0 < hop"),
    (["train", "--rooms-per-t60", "-0"], "argument --rooms-per-t60: must be at least 1, got 0"),
    (["demo", "--order", " -2"], "argument --order: must be at least 0, got -2"),
    (["train", "--t60-max", "0.05", "--rooms-per-t60", "4"],
     "error: need at least 30 pairs to fit order 2, got 8"),
    (["train", "--n-mel-bands", "500"], "error: 500 bands exceed the 257 available bins"),
    (["train", "--frame-ms", "1", "--hop-ms", "1"],
     "error: 23 bands exceed the 9 available bins"),
    (["demo", "--train-t60-max", "0.01"],
     "error: need at least 30 pairs to fit order 2, got 9"),
    (["demo", "--train-t60-max", "0.1", "--train-rooms", "1", "--train-utterances", "1"],
     "error: need at least 30 pairs to fit order 2, got 1"),
    (["demo", "--t60-list", "0.3,0.3"],
     "error: --t60-list 0.3 gives the same room name (0.300) as another --t60-list"),
    (["demo", "--t60-list", "0.3001,0.3004"],
     "error: --t60-list 0.3001 gives the same room name (0.300) as another --t60-list"),
    (["simulate-rir", "--t60", "100"], "error: --t60 100 is above 10 s"),
    (["simulate-rir", "--t60", "0.01"], "error: room cannot achieve target T60"),
    (["train", "--grid", "0.5,100"], "error: --grid 100 is above 10 s"),
    (["train", "--t60-max", "11"], "error: --t60-max 11 is above 10 s"),
    (["demo", "--t60-list", "0.5,100"], "error: --t60-list 100 is above 10 s"),
    (["demo", "--train-t60-max", "11"], "error: --train-t60-max 11 is above 10 s"),
    (["demo", "--t60-list", "0.01,0.5"], "error: room cannot achieve target T60"),
    (["demo", "--train-t60-max", "0.03", "--train-rooms", "10", "--order", "0"],
     "error: room cannot achieve target T60"),
    (["train", "--grid", "0.5,0.5"],
     "error: --grid 0.5 gives the same room name (0.500) as another --grid"),
    (["train", "--grid", "0.3001,0.3004"],
     "error: --grid 0.3001 gives the same room name (0.300) as another --grid"),
    (["train", "--frame-ms", "5000", "--hop-ms", "16"],
     "error: training needs 82304 samples of reverberant speech, but the longest utterance "
     "convolved with the longest room gives 40799\n"),
    (["train", "--frame-ms", "1e9", "--hop-ms", "1e9"],
     "error: training needs 160000000000 samples of reverberant speech, but the longest "
     "utterance convolved with the longest room gives 40799\n"),
    (["train", "--window-frames", "400"],
     "error: training needs 102656 samples of reverberant speech, but the longest "
     "utterance convolved with the longest room gives 40799\n"),
    (["train", "--frame-ms", "300", "--hop-ms", "300"],
     "error: training needs 48000 samples of reverberant speech, but the longest "
     "utterance convolved with the longest room gives 40799\n"),
    (["train", "--speech-dir", "{short}", "--grid", "0.2,0.3,0.4", "--rooms-per-t60", "5",
      "--order", "0"],
     "error: training needs 16000 samples of reverberant speech, but the longest "
     "utterance convolved with the longest room gives 13599\n"),
    (["train", "--speech-dir", "{mixed}", "--grid", "0.3,0.5", "--rooms-per-t60", "8",
      "--variant", "full_band"],
     "error: need at least 30 pairs to fit order 2, got 16\n"),
    (["train", "--out", "{tmp}"], "error: the model path {tmp} is a directory\n"),
    (["train", "--pairs-csv", "{tmp}"], "error: the pairs CSV path {tmp} is a directory\n"),
    (["train", "--pairs-csv", "{out}/m.json"],
     "error: the model and the pairs CSV would both be written to {out}/m.json\n"),
], ids=["grid_nan", "grid_negative", "t60_max_inf", "t60_max_nan", "rir_t60_inf",
        "demo_t60_nan", "demo_train_t60_max_zero", "demo_snr_nan", "demo_snr_minus_inf",
        "snr_margin_nan", "frame_ms_zero", "hop_ms_negative", "hop_longer_than_frame",
        "rooms_minus_zero", "demo_order_negative", "too_few_pairs", "too_many_bands",
        "frame_too_short", "demo_too_few_pairs", "demo_one_pair", "demo_t60_repeated",
        "demo_t60_same_stem", "rir_t60_above_limit", "rir_t60_unreachable",
        "grid_above_limit", "t60_max_above_limit", "demo_t60_above_limit",
        "demo_train_t60_max_above_limit", "demo_t60_unreachable",
        "demo_train_t60_unreachable", "grid_repeated", "grid_same_stem",
        "frame_longer_than_speech", "frame_too_large_for_memory", "window_longer_than_speech",
        "too_few_frames_for_noise_floor", "speech_shorter_than_min_duration",
        "too_few_pairs_reach_min_samples",
        "model_path_is_directory", "pairs_csv_is_directory", "pairs_csv_is_model"])
def test_bad_value_fails_before_any_room(tmp_path, speech_dir, short_speech_dir,
                                         mixed_speech_dir, no_rooms, capsys, command,
                                         expected):
    """A bad number on the command line, a hop longer than the frame, the
    longest training utterance in the longest room (25600 samples plus
    15200 for the 0.95 s default grid top) shorter than the estimator's
    min_samples, too few training pairs (for train: utterance-room pairs
    that reach min_samples), more Mel bands than FFT bins, a target T60
    above MAX_TARGET_T60 or one the room sampler cannot reach, two targets
    that share a room name, or train outputs at one path or at a directory
    exits 1 with one message and no traceback before any room is simulated
    or the output directory is made. {tmp}, {out}, {short} and {mixed} in a
    case stand for tmp_path, the output directory, two 0.45 s utterances
    and one 0.45 s and one 1.6 s utterance. A case's own flags follow the
    required ones, so they win."""
    out = tmp_path / "out"
    paths = {"tmp": tmp_path, "out": out, "short": short_speech_dir,
             "mixed": mixed_speech_dir}
    command = [token.format(**paths) for token in command]
    expected = expected.format(**paths)
    required = {"simulate-rir": ["--out", str(out)],
                "train": ["--speech-dir", str(speech_dir), "--out", str(out / "m.json")],
                "demo": ["--out", str(out)]}[command[0]]
    try:
        code = main([command[0], *required, *command[1:], "--quiet"])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.wav")) and not list(tmp_path.rglob("*.json"))
    assert not out.exists()


@pytest.mark.parametrize("exc, expected", [
    (MemoryError("Unable to allocate 2.98 GiB for an array"),
     "error: Unable to allocate 2.98 GiB for an array\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_memory_error_exits_1_without_traceback(tmp_path, monkeypatch, capsys, exc, expected):
    def out_of_memory(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_simulate_rir", out_of_memory)
    assert main(["simulate-rir", "--out", str(tmp_path / "r"), "--t60", "0.4"]) == 1
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("text", ["inf", "+inf", "clean"])
def test_snr_list_takes_clean_like_a_manifest(tmp_path, monkeypatch, text):
    seen = {}
    monkeypatch.setattr(cli, "run_demo", lambda out, **kw: seen.update(kw))
    assert main(["demo", "--out", str(tmp_path / "d"), f"--snr-list=12,{text}"]) == 0
    assert seen["snr_list"] == [12.0, float("inf")]


class TestConfigFile:
    """A config file is turned into flags placed before the user's own, so
    argparse applies every type, choice and precedence rule to it."""

    def test_explicit_flag_equal_to_default_wins(self, tmp_path):
        cfg = tmp_path / "c.conf"
        cfg.write_text("rooms_per_t60=2\n")
        out = tmp_path / "rirs"
        code = main(["simulate-rir", "--t60", "0.3", "--rooms-per-t60", "1",
                     "--out", str(out), "--config", str(cfg), "--quiet"])
        assert code == 0
        assert len(list(out.glob("*.wav"))) == 1

    def test_malformed_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("rooms-per-t60 = abc\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate-rir", "--t60", "0.3", "--out", str(tmp_path / "r"),
                  "--config", str(cfg)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: revtime simulate-rir")
        assert "argument --rooms-per-t60: invalid int value: 'abc'" in err

    def test_help_is_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("help=1\n")
        code = main(["simulate-rir", "--t60", "0.3", "--out", str(tmp_path / "r"),
                     "--config", str(cfg)])
        assert code == 1
        assert "unknown config key: help" in capsys.readouterr().err

    def test_bad_choice_fails_before_any_room(self, tmp_path, no_rooms, capsys):
        speech_dir = write_speech(tmp_path / "speech", [(1.6, 40)])
        cfg = tmp_path / "c.conf"
        cfg.write_text("target=seconds\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--speech-dir", str(speech_dir),
                  "--out", str(tmp_path / "m.json"), "--config", str(cfg)])
        assert exc.value.code == 1
        assert "argument --target: invalid choice: 'seconds'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, quiet", [
        ("true", True), ("YES", True), ("on", True), ("1", True),
        ("false", False), ("no", False), ("off", False), ("0", False),
    ])
    def test_boolean_values(self, tmp_path, capsys, value, quiet):
        cfg = tmp_path / "c.conf"
        cfg.write_text(f"quiet={value}\n")
        code = main(["simulate-rir", "--t60", "0.3", "--out", str(tmp_path / "r"),
                     "--config", str(cfg)])
        assert code == 0
        assert (capsys.readouterr().out == "") == quiet

    def test_bad_boolean_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("quiet=maybe\n")
        out = tmp_path / "r"
        code = main(["simulate-rir", "--t60", "0.3", "--out", str(out),
                     "--config", str(cfg)])
        assert code == 1
        assert "quiet: 'maybe'" in capsys.readouterr().err
        assert not out.exists()

    def test_json_key(self, tmp_path, audio_file, model_file, capsys):
        cfg = tmp_path / "c.conf"
        cfg.write_text("json=yes\n")
        code = main(["estimate", str(audio_file), "--model", str(model_file),
                     "--config", str(cfg)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["t60_seconds"] == 0.5

    def test_negative_list_reaches_demo(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setattr(cli, "run_demo", lambda out, **kw: seen.update(kw))
        cfg = tmp_path / "c.conf"
        cfg.write_text("snr_list=-1,12\n")
        assert main(["demo", "--out", str(tmp_path / "d"), "--config", str(cfg)]) == 0
        assert seen["snr_list"] == [-1.0, 12.0]


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = write_corpus_inputs(tmp_path_factory.mktemp("cli_corpus"), [(1.6, 60), (1.6, 61)],
                               [(0.4, 61)])
    assert run_build_corpus(root, [CLEAN, ("s1.wav", *CLEAN[1:])]) == 0
    return root / "corpus"


class TestEvaluateAndRtf:
    @pytest.fixture
    def models(self, model_files):
        return [str(model_files["full_band"]), str(model_files["mel_band"])]

    def test_two_model_comparison_table(self, tiny_corpus, models, tmp_path, capsys):
        out = tmp_path / "results"
        code = main(["evaluate", "--corpus", str(tiny_corpus),
                     "--model", models[0], "--model", models[1],
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "full_band" in text and "mel_band" in text
        assert (out / "records.csv").exists()
        assert (out / "report.csv").exists()
        assert (out / "boxplot.dat").exists()

    def test_item_no_model_estimates_still_writes_records(self, tmp_path, models, capsys):
        # 0.2 s of speech through a 0.5 s RIR is under the 1 s minimum.
        write_corpus_inputs(tmp_path, [(0.2, 62)], [(0.4, 61)])
        assert run_build_corpus(tmp_path, [CLEAN]) == 0
        out = tmp_path / "results"
        code = main(["evaluate", "--corpus", str(tmp_path / "corpus"),
                     "--model", models[0], "--model", models[1], "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "full_band: 1 items failed" in text and "mel_band: 1 items failed" in text
        for name, header in (("records.csv", "item_id,variant,"),
                             ("report.csv", "variant,noise_type,")):
            lines = (out / name).read_text().splitlines()
            assert len(lines) == 1 and lines[0].startswith(header), name

    def test_item_shorter_than_slope_window_is_one_failure(self, tmp_path, capsys):
        # 0.7 s of speech through a 0.5 s RIR passes the 1 s minimum but
        # has 74 frames, under the model's 100-frame slope window.
        write_corpus_inputs(tmp_path, [(0.7, 63), (2.5, 64)], [(0.4, 61)])
        assert run_build_corpus(tmp_path, [CLEAN, ("s1.wav", *CLEAN[1:])]) == 0
        model = tmp_path / "full_band.json"
        make_model(variant="full_band", window_frames=100).save(model)
        out = tmp_path / "results"
        code = main(["evaluate", "--corpus", str(tmp_path / "corpus"),
                     "--model", str(model), "--out", str(out)])
        assert code == 0
        assert "full_band: 1 items failed" in capsys.readouterr().out
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("item0001,full_band,")

    def test_rtf_subcommand_one_row_per_variant(self, tiny_corpus, models, tmp_path, capsys):
        out = tmp_path / "results2"
        main(["evaluate", "--corpus", str(tiny_corpus), "--model", models[0],
              "--model", models[1], "--out", str(out), "--quiet"])
        capsys.readouterr()
        code = main(["rtf", "--records", str(out / "records.csv")])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 3  # header + 2 variants
        assert lines[1].startswith("full_band")
        assert lines[2].startswith("mel_band")


@pytest.mark.parametrize("command", [
    ["simulate-rir", "--t60", "0.3", "--out", "{out}", "--config", "{path}"],
    ["build-corpus", "--manifest", "{path}", "--out", "{out}"],
    ["rtf", "--records", "{path}"],
], ids=["config", "manifest", "records"])
def test_non_text_input_exits_one(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xff\xfe\x00\x01")
    argv = [arg.format(path=path, out=tmp_path / "out") for arg in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


_GOOD_ITEM = {"item_id": "x", "speech_path": "s.wav", "rir_path": "r.wav",
              "noise_path": "", "snr_db": "inf", "noise_type": "none",
              "t60_true": 0.4, "mix_path": "x.wav"}


@pytest.mark.parametrize("text, expected", [
    ('[{"item_id": "x"}]', ["entry 0", "snr_db"]),
    ("item_id,snr_db\nx,12\n", ["not valid JSON"]),
    ('{"item_id": "x"}', ["JSON list"]),
    ("[1]", ["entry 0 is not a JSON object"]),
    (json.dumps([_GOOD_ITEM, {**_GOOD_ITEM, "t60_true": -1.0}]),
     ["entry 1", "t60_true must be finite and positive, got -1.0"]),
    # Python's json reads the NaN and Infinity tokens as floats.
    (json.dumps([_GOOD_ITEM, {**_GOOD_ITEM, "t60_true": float("nan")}]),
     ["items.json: entry 1", "t60_true must be finite and positive, got nan"]),
    (json.dumps([{**_GOOD_ITEM, "t60_true": float("inf")}]),
     ["items.json: entry 0", "t60_true must be finite and positive, got inf"]),
], ids=["missing_key", "not_json", "not_a_list", "not_an_object", "bad_value",
        "nan_t60_true", "inf_t60_true"])
def test_evaluate_malformed_items_json_exits_one(tmp_path, model_file, capsys,
                                                 text, expected):
    """A malformed items.json is an `error:` line and exit 1, not a traceback."""
    (tmp_path / "items.json").write_text(text)
    code = main(["evaluate", "--corpus", str(tmp_path), "--model",
                 str(model_file), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert all(part in err for part in expected), err
    assert not (tmp_path / "out").exists()


_RECORDS_HEADER = ("item_id,variant,noise_type,snr_db,t60_true,t60_est,error,"
                   "cpu_time,audio_duration,flags\n")
_GOOD_ROW = "x,mel_band,none,inf,0.4,0.5,0.1,0.001,2.0,\n"


@pytest.mark.parametrize("text, expected", [
    (_RECORDS_HEADER.replace("noise_type,", "") + _GOOD_ROW.replace("none,", ""),
     ["row 0 is missing key(s) noise_type"]),
    (_RECORDS_HEADER + _GOOD_ROW.replace("0.5", "abc"), ["row 0", "t60_est 'abc'"]),
    (_RECORDS_HEADER + _GOOD_ROW + "y,mel_band,none\n", ["row 1", "t60_true"]),
    (_RECORDS_HEADER + _GOOD_ROW + _GOOD_ROW.replace("0.001", "nan"),
     ["row 1", "cpu_time must be finite and non-negative, got nan"]),
    (_RECORDS_HEADER + _GOOD_ROW.replace("none,inf", "none,nan"),
     ["row 0", "snr_db must be a number or +inf, got nan"]),
], ids=["missing_column", "bad_float", "short_row", "nan_cpu_time", "nan_snr_db"])
def test_rtf_malformed_records_exits_one(tmp_path, capsys, text, expected):
    """A malformed records file is an `error:` line naming the row and the
    key, and exit 1."""
    path = tmp_path / "records.csv"
    path.write_text(text)
    code = main(["rtf", "--records", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: {path}") and "Traceback" not in captured.err
    assert all(part in captured.err for part in expected), captured.err
    assert captured.out == ""


def _simulate_rir_config(path):
    """The flags a config file gives simulate-rir."""
    args = cli._build_parser().parse_args(["simulate-rir", "--t60", "0.3", "--out", "r"])
    return cli._config_tokens(path, args)


@pytest.mark.parametrize("read, text, edit, message", [
    (read_manifest, "speech,rir,noise,snr_db,noise_type\na.wav,b.wav,,clean,none\n",
     ("speech,", ""), "manifest missing columns: ['speech']"),
    (read_records, _RECORDS_HEADER + _GOOD_ROW,
     ("item_id,", ""), "row 0 is missing key(s) item_id"),
    (_simulate_rir_config, "quiet=true\nseed=3\n",
     ("quiet", "quite"), "unknown config key: quite"),
], ids=["manifest", "records", "config"])
def test_utf8_bom_reads_as_the_file_without_it(tmp_path, read, text, edit, message):
    """A leading UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports
    write, is not part of the first name; a name really wrong still is."""
    plain, bom, broken = (tmp_path / name for name in ("plain", "bom", "broken"))
    plain.write_text(text, encoding="utf-8")
    bom.write_text("\ufeff" + text, encoding="utf-8")
    broken.write_text("\ufeff" + text.replace(*edit, 1), encoding="utf-8")
    assert read(bom) == read(plain)
    with pytest.raises(RevtimeError, match=re.escape(message)):
        read(broken)


def _without(key):
    return lambda model: {k: v for k, v in model.items() if k != key}


@pytest.mark.parametrize("corrupt, expected", [
    (lambda model: "variant=mel_band\n", ["not valid JSON"]),
    (_without("stft"), ["missing key(s) stft"]),
    (_without("coefficients"), ["missing key(s) coefficients"]),
    (lambda model: {**model, "n_mel_bands": "many"}, ["n_mel_bands 'many'"]),
    (lambda model: {**model, "stft": {**model["stft"], "hop_ms": 16.0}},
     ["stft has unknown key(s) hop_ms"]),
    (lambda model: {**model, "snr_margin": float("nan")}, ["snr_margin"]),
    (lambda model: {**model, "t60_train_max": float("nan")}, ["t60_train_max"]),
    (lambda model: {**model, "stft": {**model["stft"], "frame_len": 512.9}},
     ["frame_len 512.9"]),
    (lambda model: {**model, "stft": {**model["stft"], "hop": True}}, ["hop True"]),
    (lambda model: {**model, "coefficients": [True, 0.1]}, ["coefficients [True, 0.1]"]),
], ids=["not_json", "no_stft", "no_coefficients", "bad_n_mel_bands", "unknown_stft_key",
        "nan_snr_margin", "nan_t60_train_max", "fractional_frame_len", "boolean_hop",
        "boolean_coefficient"])
def test_estimate_malformed_model_exits_one(tmp_path, audio_file, model_file, capsys,
                                            corrupt, expected):
    """A malformed model file is an `error:` line naming the file, and exit 1."""
    model = corrupt(json.loads(Path(model_file).read_text()))
    path = tmp_path / "model.json"
    path.write_text(model if isinstance(model, str) else json.dumps(model))
    code = main(["estimate", str(audio_file), "--model", str(path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}")
    assert all(part in err for part in expected), err


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: a fresh `import revtime.cli` leaves no
    scipy module in sys.modules."""
    probe = ("import sys, revtime.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=fresh_process_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_estimates_independent_of_blas_thread_count(tmp_path, demo_run):
    """`estimate --json` prints the same bytes with one or two OpenBLAS
    threads, on a demo item and on 60 s of speech, which spans hundreds of
    the front-end's frame blocks."""
    out, _ = demo_run
    long_wav = tmp_path / "long60.wav"
    save_wav(synthetic_speech(60.0, SR, seed=1), long_wav)
    for wav in (out / "heldout_corpus" / "item0000.wav", long_wav):
        for variant in ("full_band", "mel_band"):
            stdout = []
            for threads in ("1", "2"):
                result = subprocess.run(
                    [sys.executable, "-m", "revtime.cli", "estimate", str(wav),
                     "--model", str(out / "models" / f"{variant}.json"), "--json"],
                    env=fresh_process_env(OPENBLAS_NUM_THREADS=threads),
                    capture_output=True, text=True, timeout=120)
                assert result.returncode == 0, result.stderr
                stdout.append(result.stdout)
            assert json.loads(stdout[0])["t60_seconds"] > 0.0
            assert stdout[0] == stdout[1], (wav.name, variant)


# A float in a text output: digits with a point, an exponent, or both.
FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def cpu_setting_demos(tmp_path_factory):
    """Criterion 11's small demo in fresh processes run side by side: as is
    and under every CPU setting that applies here. Returns name -> its
    --out, or for a setting not run, the reason."""
    base = tmp_path_factory.mktemp("cpu_settings")
    runs = {"as_is": ({}, None), **cpu_settings()}
    procs = {name: subprocess.Popen(
                [sys.executable, "-m", "revtime.cli", "demo", "--out", str(base / name),
                 *SMALL_DEMO_ARGS],
                env=fresh_process_env(**extra), stderr=subprocess.PIPE, text=True)
             for name, (extra, _) in runs.items() if extra is not None}
    errors = {name: proc.communicate(timeout=600)[1] for name, proc in procs.items()}
    for name, proc in procs.items():
        assert proc.returncode == 0, (name, errors[name])
    return {name: base / name if extra is not None else reason
            for name, (extra, reason) in runs.items()}


def contract_view(out: Path, rel: Path):
    """A text output of the run in out as the contract compares it: out
    written as <out>, a CSV's cpu_time column dropped, then split into the
    text around the floats and the floats."""
    text = (out / rel).read_text().replace(str(out), "<out>")
    rows = list(csv.reader(io.StringIO(text))) if rel.suffix == ".csv" else [[]]
    if "cpu_time" in rows[0]:
        col = rows[0].index("cpu_time")
        text = "\n".join(",".join(row[:col] + row[col + 1:]) for row in rows)
    return FLOAT.split(text), [float(x) for x in FLOAT.findall(text)]


@pytest.mark.parametrize("setting", ["avx512_off", "openblas_haswell"])
def test_demo_reproducible_across_cpu_settings(cpu_setting_demos, setting):
    """README's contract across CPUs, with numpy's AVX-512 loops off or
    OpenBLAS's Haswell kernel forced: the same files, every WAV byte for
    byte, and every other output the same text (item ids, counts, flags)
    with floats (labels, coefficients, estimates and what derives from
    them) within 1e-12 relative, or 1e-12 absolute near 0. cpu_time and
    the --out path are not compared."""
    out = cpu_setting_demos[setting]
    if isinstance(out, str):
        pytest.skip(out)
    as_is = cpu_setting_demos["as_is"]
    files = sorted(p.relative_to(as_is) for p in as_is.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    for rel in files:
        if rel.suffix == ".wav":
            assert (as_is / rel).read_bytes() == (out / rel).read_bytes(), rel
            continue
        text, floats = contract_view(as_is, rel)
        text_here, floats_here = contract_view(out, rel)
        assert text_here == text, rel
        np.testing.assert_allclose(floats_here, floats, rtol=1e-12, atol=1e-12,
                                   err_msg=str(rel))


class TestBuildCorpusCli:
    NOISE = synthetic_speech(2.0, SR, seed=64)

    def test_missing_noise_file_exits_one(self, tmp_path, capsys):
        write_corpus_inputs(tmp_path, [(1.6, 62)], [(0.4, 63)])
        code = run_build_corpus(tmp_path, [CLEAN, ("s0.wav", "r0.wav", "gone.wav", 12, "fan")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 1" in err and "gone.wav" in err
        assert not list((tmp_path / "corpus").glob("item*"))

    def test_unlabelable_rir_names_row_before_writing(self, tmp_path, capsys):
        write_corpus_inputs(tmp_path, [(1.6, 62)])
        impulse = AudioBuffer(np.concatenate([[1.0], np.zeros(50)]), SR)
        save_wav(impulse, tmp_path / "impulse.wav", fmt="float32")
        code = run_build_corpus(tmp_path, [("s0.wav", "impulse.wav", "", math.inf, "none")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 0" in err and "impulse.wav" in err and "Traceback" not in err
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("column", ["speech", "rir"])
    def test_missing_file_names_row_before_writing(self, tmp_path, capsys, column):
        write_corpus_inputs(tmp_path, [(1.6, 62)], [(0.4, 63)], [self.NOISE])
        row = {"speech": "s0.wav", "rir": "r0.wav", "noise": "n0.wav", column: "gone.wav"}
        code = run_build_corpus(tmp_path, [NOISY, (*row.values(), 12, "fan")])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 1" in err and "gone.wav" in err
        assert not list((tmp_path / "corpus").glob("item*"))

    def test_minus_inf_snr_row_exits_one(self, tmp_path, capsys):
        write_corpus_inputs(tmp_path, [(1.6, 62)], [(0.4, 63)], [self.NOISE])
        write_manifest_text(tmp_path / "m.csv", [NOISY_TEXT, (*NOISY_TEXT[:3], "-inf", "fan")])
        code = run_build_corpus(tmp_path)
        assert code == 1
        assert "row 1: snr_db" in capsys.readouterr().err
        assert not list((tmp_path / "corpus").glob("*.wav"))

    def test_unknown_noise_type_names_row_before_writing(self, tmp_path, capsys):
        write_corpus_inputs(tmp_path, [(1.6, 62)], [(0.4, 63)], [self.NOISE])
        write_manifest_text(tmp_path / "m.csv", [NOISY_TEXT, (*NOISY_TEXT[:4], "fann")])
        code = run_build_corpus(tmp_path)
        assert code == 1
        assert "row 1: unknown noise_type 'fann'" in capsys.readouterr().err
        assert not list((tmp_path / "corpus").glob("item*"))

    @pytest.mark.parametrize("noise, expected", [
        (synthetic_speech(0.5, SR, seed=64), "is shorter than speech"),
        (synthetic_speech(2.0, SR // 2, seed=64), "sample-rate mismatch"),
    ], ids=["short", "rate"])
    def test_noise_error_names_row_and_file(self, tmp_path, capsys, noise, expected):
        write_corpus_inputs(tmp_path, [(1.6, 62)], [(0.4, 63)], [noise])
        code = run_build_corpus(tmp_path, [CLEAN, NOISY])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: row 1: noise {tmp_path / 'n0.wav'}: " in err
        assert expected in err

    @pytest.mark.parametrize("kind, expected", [
        ("short_noise", "is shorter than speech"),
        ("noise_rate", "sample-rate mismatch"),
        ("bad_rir", "unreadable WAV file"),
        ("rir_rate", "sample-rate mismatch"),
    ])
    def test_bad_row_fails_before_any_item(self, tmp_path, capsys, kind, expected):
        """A row whose files cannot make an item stops build-corpus before
        the first item is written, however late in the manifest it comes."""
        write_corpus_inputs(tmp_path, [(1.6, 62)], [(0.4, 63)],
                            [synthetic_speech(3.0, SR, seed=64)])
        rir, noise = "r0.wav", "n0.wav"
        if kind == "short_noise":
            save_wav(synthetic_speech(0.5, SR, seed=64), tmp_path / "bad.wav")
            noise = "bad.wav"
        elif kind == "noise_rate":
            save_wav(synthetic_speech(3.0, SR // 2, seed=64), tmp_path / "bad.wav")
            noise = "bad.wav"
        elif kind == "bad_rir":
            (tmp_path / "bad.wav").write_bytes(b"not a wav file")
            rir = "bad.wav"
        else:
            save_wav(exponential_rir(0.4, SR // 2, seed=63), tmp_path / "bad.wav",
                     fmt="float32")
            rir = "bad.wav"
        code = run_build_corpus(tmp_path, [NOISY, ("s0.wav", rir, noise, 12, "fan")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 1: ") and expected in err, err
        assert not list((tmp_path / "corpus").glob("item*"))

    def test_relative_out_evaluates_from_another_directory(self, tmp_path, model_file,
                                                           monkeypatch, capsys):
        build = write_corpus_inputs(tmp_path / "build", [(1.6, 62)], [(0.4, 63)])
        write_manifest([CLEAN], build / "m.csv")
        monkeypatch.chdir(build)
        assert main(["build-corpus", "--manifest", "m.csv", "--out", "d/corpus",
                     "--quiet"]) == 0
        [item] = json.loads((build / "d" / "corpus" / "items.json").read_text())
        for key in ("speech_path", "rir_path", "mix_path"):
            assert Path(item[key]).is_absolute(), item[key]
        (tmp_path / "other").mkdir()
        monkeypatch.chdir(tmp_path / "other")
        code = main(["evaluate", "--corpus", "../build/d/corpus",
                     "--model", str(model_file), "--out", "eval", "--quiet"])
        assert code == 0, capsys.readouterr().err
        assert (tmp_path / "other" / "eval" / "records.csv").is_file()
