import csv
import dataclasses
import json
import struct

import numpy as np
import pytest

from conftest import SR, TRAINING_REPORT_KEYS, write_speech
from revtime.errors import RevtimeError
from revtime.estimator import EstimatorConfig, MappingModel, NsvStatistic, map_nsv_to_t60
from revtime.room_acoustics import image_method_rir, measure_t60, schroeder_edc, t60_from_edc
from revtime.signal_core import _from_fields, _write_rows, load_wav, save_wav
from revtime.synth import synthetic_speech
from revtime.trainer import (
    MAX_TARGET_T60,
    RoomSampler,
    TrainingPair,
    build_training_set,
    check_targets,
    default_t60_grid,
    draw_rooms,
    fit_mapping,
    save_rooms,
    speech_files,
    train_model,
)

@pytest.fixture(scope="module")
def speech_dir(tmp_path_factory):
    return write_speech(tmp_path_factory.mktemp("train_speech"), [(1.8, 50), (2.2, 51)])


def synthetic_pairs(coeffs, nsv_values, noise=0.0, seed=0):
    """Pairs generated exactly from a known polynomial in log10(NSV)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i, v in enumerate(nsv_values):
        x = np.log10(v)
        t60 = float(np.polynomial.polynomial.polyval(x, coeffs))
        t60 += noise * rng.standard_normal()
        pairs.append(TrainingPair(v, t60, f"room{i}", f"utt{i}"))
    return pairs


CFG = EstimatorConfig.default("mel_band")


class TestDefaultGrid:
    def test_short_profile(self):
        grid = default_t60_grid(0.95)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == 0.95
        assert len(grid) == 10

    def test_extended_profile(self):
        grid = default_t60_grid(1.85)
        assert grid[-1] == 1.85
        assert max(grid) == 1.85


    @pytest.mark.parametrize("t60_max, grid", [
        (0.95, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]),
        (0.5, [0.1, 0.2, 0.3, 0.4, 0.5]),
        (0.3, [0.1, 0.2, 0.3]),
        (0.7, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
        (1.85, [round(0.1 * k, 1) for k in range(1, 19)] + [1.85]),
        (0.05, [0.05]),
        (0.30001, [0.1, 0.2, 0.30001]),
        (0.2999, [0.1, 0.2, 0.2999]),
    ])
    def test_grid_passes_check_targets(self, t60_max, grid):
        """The 0.1 s steps up to t60_max, less one that shares t60_max's
        room name, then t60_max: a grid check_targets accepts."""
        assert default_t60_grid(t60_max) == grid
        check_targets(grid, "--t60-max")

    @pytest.mark.parametrize("t60_max", [float("nan"), float("inf"), 0.0, -0.5])
    def test_bad_top_rejected(self, t60_max):
        with pytest.raises(RevtimeError, match=f"T60 must be finite and positive, got {t60_max}"):
            default_t60_grid(t60_max)


class TestRoomSampler:
    @pytest.mark.parametrize("t60", [float("nan"), float("inf"), 0.0, -0.5])
    def test_bad_target_rejected(self, t60):
        with pytest.raises(RevtimeError, match=f"T60 must be finite and positive, got {t60}"):
            RoomSampler().sample(np.random.default_rng(0), t60, SR)

    def test_deterministic(self):
        a = RoomSampler().sample(np.random.default_rng(3), 0.6, SR)
        b = RoomSampler().sample(np.random.default_rng(3), 0.6, SR)
        assert a == b

    def test_positions_inside(self):
        rng = np.random.default_rng(4)
        for t60 in (0.1, 0.5, 1.85):
            spec = RoomSampler().sample(rng, t60, SR)
            assert all(0 < p < d for p, d in zip(spec.source, spec.dims))
            assert all(0 < p < d for p, d in zip(spec.mic, spec.dims))
            assert spec.rir_length >= t60


class TestRirLength:
    """The sampler simulates each room for its target T60 and no longer."""

    TARGETS = np.round(np.linspace(0.1, 2.0, 20), 3)

    @pytest.fixture(scope="class")
    def specs(self):
        rng = np.random.default_rng(37)
        return [RoomSampler().sample(rng, t60, SR) for t60 in self.TARGETS]

    def test_length_is_the_target(self, specs):
        for t60, spec in zip(self.TARGETS, specs):
            assert spec.rir_length == max(RoomSampler.rir_length_min, t60)

    def test_label_matches_a_longer_simulation(self, specs):
        """The label's fit stops at -35 dB, 25 dB above a response cut at
        T60, where the tail left out lowers the Schroeder curve by
        10 log10(1 - 10^-2.5), about 0.014 dB. Rooms whose decay runs past
        their target keep less margin, so the bound is 1% of the label
        measured from the same room simulated for 1.3 x its target (and at
        least rir_length_min)."""
        for spec in specs:
            longer = dataclasses.replace(
                spec, rir_length=max(spec.rir_length, 1.3 * spec.target_t60))
            label, reference = (t60_from_edc(schroeder_edc(image_method_rir(s)), SR)
                                for s in (spec, longer))
            assert label == pytest.approx(reference, rel=0.01), spec


class TestFitMapping:
    def test_recovers_known_quadratic(self):
        coeffs = [1.2, -0.4, 0.05]
        nsv_values = np.logspace(2, 6, 40)
        pairs = synthetic_pairs(coeffs, nsv_values)
        model, rms = fit_mapping(pairs, CFG, 0.95, order=2)
        assert np.allclose(model.coefficients, coeffs, atol=1e-8)
        assert rms == pytest.approx(0.0, abs=1e-8)

    def test_order_zero_is_mean(self):
        pairs = synthetic_pairs([0.5], np.logspace(2, 5, 12), noise=0.05, seed=1)
        model, _ = fit_mapping(pairs, CFG, 0.95, order=0)
        expected = np.mean([p.t60_true for p in pairs])
        assert model.coefficients[0] == pytest.approx(expected, rel=1e-12)

    def test_duplicated_dataset_same_coefficients(self):
        pairs = synthetic_pairs([1.2, -0.15], np.logspace(2, 5, 24), noise=0.02, seed=2)
        m1, _ = fit_mapping(pairs, CFG, 0.95, order=1)
        m2, _ = fit_mapping(pairs + pairs, CFG, 0.95, order=1)
        assert np.allclose(m1.coefficients, m2.coefficients, rtol=1e-9)

    def test_too_few_pairs(self):
        pairs = synthetic_pairs([0.5], np.logspace(2, 5, 12))
        with pytest.raises(RevtimeError, match="pairs"):
            fit_mapping(pairs, CFG, 0.95, order=2)

    def test_degenerate_design(self):
        pairs = [TrainingPair(100.0, 0.5 + 0.01 * i, f"r{i}", "u") for i in range(25)]
        with pytest.raises(RevtimeError, match="rank"):
            fit_mapping(pairs, CFG, 0.95, order=1)

    def test_unknown_target_rejected(self):
        pairs = synthetic_pairs([0.5], np.logspace(2, 5, 12))
        with pytest.raises(RevtimeError, match="target must be"):
            fit_mapping(pairs, CFG, 0.95, order=0, target="seconds")

    def test_train_max_override_stamped(self):
        pairs = synthetic_pairs([0.5], np.logspace(2, 5, 12))
        model, _ = fit_mapping(pairs, CFG, 1.85, order=0)
        assert model.t60_train_max == 1.85

    def test_log_target_residual_in_seconds(self):
        coeffs = [-0.3, -0.05]
        nsv_values = np.logspace(2, 6, 30)
        pairs = []
        for i, v in enumerate(nsv_values):
            t60 = 10.0 ** float(np.polynomial.polynomial.polyval(np.log10(v), coeffs))
            pairs.append(TrainingPair(v, t60, f"r{i}", "u"))
        model, rms = fit_mapping(pairs, CFG, 0.95, order=1, target="log_t60")
        assert model.target == "log_t60"
        assert np.allclose(model.coefficients, coeffs, atol=1e-9)
        assert rms == pytest.approx(0.0, abs=1e-9)

    def test_mapping_roundtrips_training_pairs(self):
        pairs = synthetic_pairs([1.6, -0.2], np.logspace(2.5, 5.5, 20),
                                noise=0.03, seed=5)
        model, rms = fit_mapping(pairs, CFG, 0.95, order=1)
        residuals = []
        for p in pairs:
            t60, _ = map_nsv_to_t60(NsvStatistic(p.nsv, 2, 2), model)
            residuals.append(p.t60_true - t60)
        assert np.sqrt(np.mean(np.square(residuals))) <= rms + 1e-12


class TestPairsCsv:
    PAIRS = [TrainingPair(5483.167421530637, 1 / 3, "t60_0.300_room0", "u0"),
             TrainingPair(2e-3, 0.95, "room, with a comma", 'utt "quoted"')]

    def test_roundtrip(self, tmp_path):
        _write_rows(TrainingPair, self.PAIRS, tmp_path / "pairs.csv")
        with open(tmp_path / "pairs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [_from_fields(TrainingPair, row, "pairs") for row in rows] == self.PAIRS

    def test_header_and_line_ends(self, tmp_path):
        _write_rows(TrainingPair, self.PAIRS[:1], tmp_path / "pairs.csv")
        assert (tmp_path / "pairs.csv").read_bytes() == (
            b"nsv,t60_true,room_id,utt_id\r\n"
            b"5483.167421530637,0.3333333333333333,t60_0.300_room0,u0\r\n")


class TestBuildTrainingSet:
    GRID = [0.3, 0.6]

    def test_same_seed_identical_pairs(self, speech_dir):
        a, _ = build_training_set(speech_dir, draw_rooms(9, self.GRID, 1, SR), CFG)
        b, _ = build_training_set(speech_dir, draw_rooms(9, self.GRID, 1, SR), CFG)
        assert a == b
        assert len(a) == len(self.GRID) * 1 * 2

    def test_labels_are_measured_not_targets(self, speech_dir):
        pairs, _ = build_training_set(speech_dir, draw_rooms(9, self.GRID, 1, SR), CFG)
        targets = set(self.GRID)
        assert all(p.t60_true not in targets for p in pairs)
        assert all(abs(p.t60_true - g) < 0.25 * g
                   for p, g in zip(pairs, [0.3, 0.3, 0.6, 0.6]))

    def test_grid_capped_at_095_stays_under_115(self, speech_dir):
        pairs, _ = build_training_set(speech_dir, draw_rooms(10, [0.95], 2, SR), CFG)
        assert max(p.t60_true for p in pairs) < 1.5

    def test_empty_dir(self, tmp_path):
        with pytest.raises(RevtimeError, match="no WAV"):
            build_training_set(tmp_path, draw_rooms(0, [0.5], 1, SR), CFG)

    @pytest.mark.parametrize("grid, message", [
        ([], "t60_grid must not be empty"),
        ([20.0], "t60_grid 20 is above 10 s"),
        ([0.5, 0.5], "t60_grid 0.5 gives the same room name"),
    ], ids=["empty", "above_limit", "repeated"])
    def test_bad_grid_fails_before_any_room(self, speech_dir, no_rooms, grid, message):
        with pytest.raises(RevtimeError, match=f"^{message}"):
            build_training_set(speech_dir, draw_rooms(0, grid, 1, SR), CFG)

    def test_rooms_at_another_rate_fail_before_any_room(self, speech_dir, no_rooms):
        """The rooms come from the caller, so their rate is checked against
        the speech's."""
        with pytest.raises(RevtimeError,
                           match="^rooms drawn at 8000 Hz cannot train on 16000 Hz speech"):
            build_training_set(speech_dir, draw_rooms(0, [0.5], 1, 8000), CFG)

    def test_full_determinism_through_fit(self, speech_dir):
        grids = default_t60_grid(0.5)
        models = []
        for _ in range(2):
            pairs, _ = build_training_set(speech_dir, draw_rooms(4, grids, 1, SR), CFG)
            model, _ = fit_mapping(pairs, CFG, 0.5, order=0)
            models.append(model)
        assert np.array_equal(models[0].coefficients, models[1].coefficients)


class TestDrawRooms:
    GRID = (0.2, 0.5, 0.9)

    def test_specs_match_interleaved_loop(self):
        rng = np.random.default_rng(11)
        expected = [(t60, r, RoomSampler().sample(rng, t60, SR))
                    for t60 in self.GRID for r in range(3)]
        assert draw_rooms(11, self.GRID, 3, SR) == expected

    def test_draws_every_room_and_simulates_none(self, no_rooms):
        rooms = draw_rooms(11, self.GRID, 3, SR)
        assert [(t60, r) for t60, r, _ in rooms] == [(t60, r) for t60 in self.GRID
                                                     for r in range(3)]

    def test_int_seed_draws_as_its_generator(self):
        assert draw_rooms(11, self.GRID, 2, SR) == draw_rooms(
            np.random.default_rng(11), self.GRID, 2, SR)


def test_save_rooms_writes_each_room_and_its_sidecar(tmp_path):
    rooms = draw_rooms(5, (0.2, 0.3), 2, 8000)
    got = list(save_rooms(tmp_path, "x", rooms))
    for (path, t60, label), (t60_drawn, r, spec) in zip(got, rooms, strict=True):
        assert t60 == t60_drawn and path == tmp_path / f"x_t60_{t60:.3f}_room{r}.wav"
        # fmt chunk: format tag 3 (IEEE float), 32 bits per sample.
        tag, *_, bits = struct.unpack_from("<HHIIHH", path.read_bytes(), 20)
        assert (tag, bits) == (3, 32)
        sidecar = json.loads(path.with_suffix(".json").read_text())
        assert list(sidecar) == ["room", "measured_t60"]
        assert sidecar["room"] == json.loads(json.dumps(dataclasses.asdict(spec)))
        assert sidecar["measured_t60"] == label == measure_t60(load_wav(path))
    assert len(list(tmp_path.iterdir())) == 2 * len(got)


@pytest.mark.parametrize("t60s, message", [
    ([], "--t60 must not be empty"),
    ([0.01], "room cannot achieve target T60"),
], ids=["empty", "unreachable"])
def test_save_rooms_rejects_targets_before_making_out(tmp_path, no_rooms, t60s, message):
    out = tmp_path / "out"
    with pytest.raises(RevtimeError, match=f"^{message}"):
        list(save_rooms(out, "x", draw_rooms(0, t60s, 1, SR, "--t60")))
    assert not out.exists()


class TestTrainModel:
    GRID = [0.2, 0.4, 0.6, 0.8, 0.95]

    def test_writes_model_report_and_pairs(self, tmp_path, speech_dir):
        model_path = tmp_path / "a" / "m.json"
        model, report = train_model(speech_dir, CFG, draw_rooms(3, self.GRID, 1, SR), 3,
                                    model_path, order=0, pairs_csv=tmp_path / "b" / "p.csv")
        loaded = MappingModel.load(model_path)
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.t60_train_max == 0.95
        saved = json.loads((tmp_path / "a" / "m.report.json").read_text())
        assert list(saved) == TRAINING_REPORT_KEYS and saved == report
        with open(tmp_path / "b" / "p.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == report["n_pairs"]

    def test_parents_made_before_the_first_room(self, tmp_path, speech_dir, no_rooms):
        with pytest.raises(AssertionError, match="a room was simulated"):
            train_model(speech_dir, CFG, draw_rooms(3, self.GRID, 1, SR), 3,
                        tmp_path / "a" / "m.json", order=0, pairs_csv=tmp_path / "b" / "p.csv")
        assert (tmp_path / "a").is_dir() and (tmp_path / "b").is_dir()
        assert not list(tmp_path.rglob("*.*"))


def test_targets_up_to_the_limit_pass():
    check_targets([0.1, MAX_TARGET_T60], "--t60")
    with pytest.raises(RevtimeError, match=r"^--t60 10\.001 is above 10 s"):
        check_targets([0.1, MAX_TARGET_T60 + 0.001], "--t60")


def test_speech_files_match_the_suffix_in_any_case(tmp_path):
    for name, seed in (("U0.WAV", 60), ("u1.wav", 61)):
        save_wav(synthetic_speech(0.5, SR, seed=seed), tmp_path / name)
    (tmp_path / "notes.txt").write_text("not audio")
    assert speech_files(tmp_path) == ([tmp_path / "U0.WAV", tmp_path / "u1.wav"], SR)
