import dataclasses
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import (SR, make_model, run_one, traced_peak, write_corpus_inputs,
                      write_manifest_text)
from revtime import eval_harness, signal_core
from revtime.errors import RevtimeError
from revtime.estimator import VARIANTS
from revtime.eval_harness import (
    PEAK_TARGET,
    BoxStats,
    CorpusItem,
    EvalRecord,
    box_stats,
    build_corpus,
    evaluate_to_dir,
    load_items,
    read_manifest,
    read_records,
    rtf,
    run_eval_paired,
    write_manifest,
    write_records,
    write_report,
)
from revtime.room_acoustics import schroeder_edc, t60_from_edc
from revtime.signal_core import (
    AudioBuffer,
    active_speech_level,
    convolve,
    load_wav,
    noise_gain_for_snr,
    save_wav,
)
from revtime.synth import shaped_noise, synthetic_speech


def reference_build_corpus(manifest, out_dir) -> list:
    """The per-row corpus builder: every row loads, convolves and
    level-measures its own (speech, RIR) pair and loads its own noise."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = read_manifest(manifest)
    t60_cache = {}
    items, entries = [], []
    for idx, row in enumerate(rows):
        speech = load_wav(row["speech"])
        rir = load_wav(row["rir"])
        if rir.sample_rate != speech.sample_rate:
            raise RevtimeError(
                f"sample-rate mismatch between {row['speech']} and {row['rir']}"
            )
        if row["rir"] not in t60_cache:
            t60_cache[row["rir"]] = t60_from_edc(
                schroeder_edc(rir), rir.sample_rate
            )
        t60_true = t60_cache[row["rir"]]
        reverberant = convolve(speech, rir)
        if math.isfinite(row["snr_db"]):
            noise = load_wav(row["noise"])
            gain = noise_gain_for_snr(reverberant, noise, row["snr_db"])
            mix = reverberant.samples + gain * noise.samples[:len(reverberant)]
        else:
            gain = 0.0
            mix = reverberant.samples
        peak = float(np.max(np.abs(mix)))
        if peak == 0.0:
            raise RevtimeError(f"row {idx}: mix is silent")
        output_gain = PEAK_TARGET / peak
        mix_buf = AudioBuffer(output_gain * mix, speech.sample_rate)

        item_id = f"item{idx:04d}"
        mix_path = out / f"{item_id}.wav"
        save_wav(mix_buf, mix_path)
        item = CorpusItem(
            item_id=item_id,
            speech_path=row["speech"],
            rir_path=row["rir"],
            noise_path=row["noise"],
            snr_db=row["snr_db"],
            noise_type=row["noise_type"],
            t60_true=t60_true,
            mix_path=str(mix_path),
        )
        entry = item.to_dict()
        entry.update({
            "speech_level_db": active_speech_level(reverberant),
            "noise_gain": gain,
            "output_gain": output_gain,
        })
        items.append(item)
        entries.append(entry)
    with open(out / "items.json", "w") as fh:
        json.dump(entries, fh, indent=2)
        fh.write("\n")
    return items


def count_calls(monkeypatch, name):
    """Wrap eval_harness.<name> and return the list its calls append to."""
    calls = []
    real = getattr(eval_harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(eval_harness, name, counted)
    return calls


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small real corpus: 2 utterances x 1 impulse-like RIR x {clean, noisy}."""
    root = write_corpus_inputs(tmp_path_factory.mktemp("corpus_assets"),
                               [(1.6, 70), (1.9, 71)], [(0.4, 21)],
                               [shaped_noise(4.0, SR, seed=77)])
    write_manifest([row for speech in ("s0.wav", "s1.wav")
                    for row in ((speech, "r0.wav", "n0.wav", 12, "synthetic_white"),
                                (speech, "r0.wav", "", math.inf, "none"))],
                   root / "manifest.csv")
    out = root / "built"
    items = build_corpus(root / "manifest.csv", out)
    return root, out, items


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        speech, rir, noise = (str(tmp_path / name) for name in ("a,b.wav", "r.wav", "n.wav"))
        rows = [(speech, rir, noise, -1.5, "fan"),
                (speech, rir, noise, 12.25, "synthetic_babble"),
                (speech, rir, noise, 12.3456789, "fan"),
                (speech, rir, noise, 1234567.0, "fan"),
                (speech, rir, "", math.inf, "none")]
        path = tmp_path / "m.csv"
        write_manifest(rows, path)
        text = path.read_bytes()
        assert text.startswith(b"speech,rir,noise,snr_db,noise_type\n") and b"\r" not in text
        assert [tuple(row.values()) for row in read_manifest(path)] == rows

    @pytest.mark.parametrize("row, message", [
        (("s.wav", "r.wav", "n.wav", -math.inf, "fan"),
         "row 1: snr_db must be a finite number, inf or clean, got '-inf'"),
        (("s.wav", "r.wav", "n.wav", math.nan, "fan"),
         "row 1: snr_db must be a finite number, inf or clean, got 'nan'"),
        (("s.wav", "r.wav", "", 12, "fan"), "row 1: a finite SNR needs a noise path"),
        (("s.wav", "r.wav", "n.wav", 12, "traffic"), "row 1: unknown noise_type 'traffic'"),
    ], ids=["minus_inf", "nan", "no_noise", "unknown_noise_type"])
    def test_write_rejects_what_read_rejects(self, tmp_path, row, message):
        path = tmp_path / "m.csv"
        with pytest.raises(RevtimeError, match=re.escape(message)):
            write_manifest([("s.wav", "r.wav", "", math.inf, "none"), row], path)
        assert not path.exists()

    @pytest.mark.parametrize("noise, snr, noise_type, text", [
        ("", "clean", "none", "inf"), ("", "+inf", "none", "inf"),
        ("n.wav", " 12 ", "fan", "12"), ("n.wav", "loud", "fan", None),
    ], ids=["clean", "plus_inf", "padded", "loud"])
    def test_write_takes_every_snr_spelling_read_takes(self, tmp_path, noise, snr,
                                                       noise_type, text):
        """A text SNR is parsed as read_manifest parses it and written in its
        canonical spelling; one read_manifest rejects names its row."""
        path = tmp_path / "m.csv"
        rows = [("s.wav", "r.wav", "", math.inf, "none"), ("a.wav", "b.wav", noise, snr, noise_type)]
        if text is None:
            with pytest.raises(RevtimeError, match=re.escape(
                    "row 1: snr_db must be a finite number, inf or clean, got 'loud'")):
                write_manifest(rows, path)
            assert not path.exists()
            return
        write_manifest(rows, path)
        assert path.read_text().splitlines()[2].split(",")[3] == text
        assert read_manifest(path)[1]["snr_db"] == float(text)

    def test_demo_manifests_keep_their_text(self, demo_run):
        # The text demo's manifests had when demo wrote the CSV by hand.
        assets = demo_run[0] / "assets"
        eval_rirs = sorted(f"rirs/{p.name}" for p in (assets / "rirs").glob("eval_*.wav"))
        heldout_rirs = sorted(f"rirs/{p.name}"
                              for p in (assets / "rirs").glob("heldout_*.wav"))
        assert len(eval_rirs) == len(heldout_rirs) == 5
        noises = {"synthetic_white": "noise/white.wav",
                  "synthetic_babble": "noise/babble.wav"}
        header = "speech,rir,noise,snr_db,noise_type\n"
        corpus = header + "".join(
            f"speech/eval_t{t}_u{u}.wav,{rir},{noise},{snr:g},{noise_type}\n"
            for t in range(2) for u in range(3) for rir in eval_rirs
            for noise_type, noise in noises.items() for snr in (-1.0, 12.0, 18.0))
        heldout = header + "".join(f"speech/heldout_u{u}.wav,{rir},,inf,none\n"
                                   for u in range(2) for rir in heldout_rirs)
        assert (assets / "corpus_manifest.csv").read_bytes() == corpus.encode()
        assert (assets / "heldout_manifest.csv").read_bytes() == heldout.encode()

    @pytest.mark.parametrize("manifest, corpus", [
        ("corpus_manifest.csv", "corpus"), ("heldout_manifest.csv", "heldout_corpus"),
    ], ids=["corpus", "heldout"])
    def test_demo_manifests_rebuild_their_corpora(self, demo_run, tmp_path, manifest,
                                                  corpus):
        """Each manifest demo writes rebuilds its corpus WAV for WAV, with the
        same labels; only the mix paths differ."""
        made = demo_run[0] / corpus
        rebuilt = tmp_path / corpus
        build_corpus(demo_run[0] / "assets" / manifest, rebuilt)
        wavs = sorted(p.name for p in made.glob("*.wav"))
        assert wavs and sorted(p.name for p in rebuilt.glob("*.wav")) == wavs
        for name in wavs:
            assert (rebuilt / name).read_bytes() == (made / name).read_bytes(), name
        assert ([dataclasses.replace(item, mix_path="") for item in load_items(rebuilt)]
                == [dataclasses.replace(item, mix_path="") for item in load_items(made)])

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("speech,rir\na,b\n")
        with pytest.raises(RevtimeError, match="missing columns"):
            read_manifest(path)

    def test_clean_sentinel(self, tmp_path):
        path = write_manifest_text(tmp_path / "m.csv", [("a.wav", "b.wav", "", "clean", "none")])
        rows = read_manifest(path)
        assert math.isinf(rows[0]["snr_db"])
        assert rows[0]["noise"] == ""

    def test_finite_snr_requires_noise(self, tmp_path):
        path = write_manifest_text(tmp_path / "m.csv", [("a.wav", "b.wav", "", "12", "fan")])
        with pytest.raises(RevtimeError, match="noise path"):
            read_manifest(path)

    @pytest.mark.parametrize("snr", ["-inf", "nan", "-Infinity", "infinity", "twelve"])
    def test_rejects_snr_that_is_not_finite_or_clean(self, tmp_path, snr):
        # A -inf row used to be built as a clean mix (noise gain 0) and
        # reported as snr_db = inf under its noise type.
        path = write_manifest_text(tmp_path / "m.csv", [
            ("a.wav", "b.wav", "n.wav", "12", "fan"),
            ("a.wav", "b.wav", "n.wav", snr, "fan"),
        ])
        with pytest.raises(RevtimeError, match="row 1: snr_db"):
            read_manifest(path)

    @pytest.mark.parametrize("row", ["a.wav,b.wav", "a.wav,b.wav,n.wav,12,fan,extra"])
    def test_rejects_row_with_wrong_column_count(self, tmp_path, row):
        path = write_manifest_text(tmp_path / "m.csv",
                                   [("a.wav", "b.wav", "", "inf", "none"), row.split(",")])
        with pytest.raises(RevtimeError, match="row 1: expected 5 columns"):
            read_manifest(path)

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_corpus_item_rejects_nan_and_minus_inf(self, snr):
        with pytest.raises(RevtimeError, match="snr_db"):
            CorpusItem(item_id="i", speech_path="s.wav", rir_path="r.wav",
                       noise_path="n.wav", snr_db=snr, noise_type="fan",
                       t60_true=0.5, mix_path="m.wav")


class TestBuildCorpus:
    def test_identity_convolution_clean_item(self, tmp_path):
        write_corpus_inputs(tmp_path, [(1.5, 90)])
        impulse = AudioBuffer(np.concatenate([[1.0], np.zeros(50)]), SR)
        save_wav(impulse, tmp_path / "impulse.wav", fmt="float32")
        write_manifest([("s0.wav", "impulse.wav", "", math.inf, "none")], tmp_path / "m.csv")
        # A unit impulse has no decay to fit, so labeling fails loudly.
        with pytest.raises(RevtimeError, match="too few EDC samples"):
            build_corpus(tmp_path / "m.csv", tmp_path / "out")

    def test_identity_convolution_with_decaying_rir(self, corpus):
        root, out, items = corpus
        # clean items must equal convolve(speech, rir) to PCM16 precision
        clean = [it for it in items if math.isinf(it.snr_db)]
        item = clean[0]
        speech = load_wav(item.speech_path)
        rir = load_wav(item.rir_path)
        expected = convolve(speech, rir)
        entry = json.loads((out / "items.json").read_text())[items.index(item)]
        mixed = load_wav(item.mix_path)
        assert len(mixed) == len(expected)
        assert np.max(np.abs(
            mixed.samples - entry["output_gain"] * expected.samples
        )) <= 1.0 / 32768

    def test_snr_calibration_from_files(self, corpus):
        root, out, items = corpus
        noisy = [it for it in items if it.snr_db == 12.0][0]
        speech = load_wav(noisy.speech_path)
        rir = load_wav(noisy.rir_path)
        reverberant = convolve(speech, rir)
        entry = json.loads((out / "items.json").read_text())[items.index(noisy)]
        mixed = load_wav(noisy.mix_path)
        extracted = (mixed.samples / entry["output_gain"]
                     - reverberant.samples)
        realized = (active_speech_level(reverberant)
                    - 20 * np.log10(np.sqrt(np.mean(extracted ** 2))))
        assert realized == pytest.approx(12.0, abs=0.1)

    def test_t60_true_from_rir(self, corpus):
        root, out, items = corpus
        assert all(it.t60_true == pytest.approx(0.4, rel=0.05) for it in items)

    def test_items_json_roundtrip(self, corpus):
        root, out, items = corpus
        assert load_items(out) == items

    def test_items_json_keys_that_are_not_fields_are_ignored(self, corpus, tmp_path):
        root, out, items = corpus
        entries = json.loads((out / "items.json").read_text())
        (tmp_path / "items.json").write_text(
            json.dumps([{**entry, "room": "lab"} for entry in entries]))
        assert load_items(tmp_path) == items

    def test_items_json_without_mix_gains_still_loads(self, corpus, tmp_path):
        # Older corpora's items.json held only the CorpusItem fields.
        root, out, items = corpus
        (tmp_path / "items.json").write_text(json.dumps([it.to_dict() for it in items]))
        assert load_items(tmp_path) == items


class TestBuildCorpusReuse:
    """build_corpus realizes each run of (speech, RIR) rows once and must
    write exactly the files of the per-row reference builder."""

    # (speech, rir) runs A, B, A, C: one speech with two RIRs, a pair that
    # comes back after another, clean rows and two noises at two SNRs.
    # n0.wav is the white noise, n1.wav the fan.
    ROWS = [
        ("s0.wav", "r0.wav", "", math.inf, "none"),
        ("s0.wav", "r0.wav", "n0.wav", 12, "synthetic_white"),
        ("s0.wav", "r0.wav", "n1.wav", 0, "fan"),
        ("s0.wav", "r1.wav", "n1.wav", 12, "fan"),
        ("s0.wav", "r1.wav", "", math.inf, "none"),
        ("s0.wav", "r1.wav", "n0.wav", 0, "synthetic_white"),
        ("s0.wav", "r0.wav", "n0.wav", 0, "synthetic_white"),
        ("s0.wav", "r0.wav", "n1.wav", 12, "fan"),
        ("s1.wav", "r1.wav", "", math.inf, "none"),
        ("s1.wav", "r1.wav", "n0.wav", 12, "synthetic_white"),
    ]
    N_PAIR_RUNS = 4

    @pytest.fixture(scope="class")
    def assets(self, tmp_path_factory):
        return write_corpus_inputs(tmp_path_factory.mktemp("reuse_assets"),
                                   [(1.6, 80), (1.9, 81)], [(0.4, 82), (0.7, 83)],
                                   [shaped_noise(4.0, SR, seed=84),
                                    shaped_noise(4.0, SR, seed=85)])

    @staticmethod
    def _snapshot(out):
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    def test_files_identical_to_reference(self, assets, monkeypatch):
        manifest = assets / "m.csv"
        write_manifest(self.ROWS, manifest)
        # Both builders write to the same directory: paths are in the files.
        out = assets / "built"
        ref_items = reference_build_corpus(manifest, out)
        ref = self._snapshot(out)
        convolved = count_calls(monkeypatch, "convolve")
        items = build_corpus(manifest, out)
        new = self._snapshot(out)
        assert items == ref_items
        assert sorted(new) == sorted([f"item{i:04d}.wav" for i in range(len(self.ROWS))]
                                     + ["items.json"])
        assert list(new) == list(ref)
        for name in ref:
            assert new[name] == ref[name], name
        assert len(convolved) == self.N_PAIR_RUNS

    def test_loads_each_input_once_per_run(self, assets, monkeypatch):
        manifest = assets / "m_loads.csv"
        write_manifest(self.ROWS, manifest)
        loaded = count_calls(monkeypatch, "load_wav")
        levels = count_calls(monkeypatch, "active_speech_level")
        remeasured = []
        real_level = signal_core.active_speech_level
        monkeypatch.setattr(signal_core, "active_speech_level",
                            lambda buf: remeasured.append(buf) or real_level(buf))
        build_corpus(manifest, assets / "built_loads")
        # Each distinct RIR once to label it, then speech + RIR per pair
        # run, and each noise file once.
        assert len(loaded) == 2 + 2 * self.N_PAIR_RUNS + 2
        # One level per pair run, handed to noise_gain_for_snr on every
        # noisy row rather than measured again there.
        assert len(levels) == self.N_PAIR_RUNS
        assert remeasured == []

    def test_peak_memory_holds_one_pair(self, assets):
        """Beyond the noise files, the traced peak of a build stays within 5
        reverberant lengths of float64 (the longest speech convolved with
        the longest RIR): one pair's buffers at a time, convolve's and
        save_wav's work copies included. Holding the last pair's buffers
        while the next pair convolves peaks at about 6.4."""
        manifest = assets / "m_peak.csv"
        write_manifest(self.ROWS, manifest)
        _, peak = traced_peak(build_corpus, manifest, assets / "built_peak")
        lengths = {name: len(load_wav(assets / name)) for name in
                   ("s0.wav", "s1.wav", "r0.wav", "r1.wav", "n0.wav", "n1.wav")}
        reverberant = (max(lengths["s0.wav"], lengths["s1.wav"])
                       + max(lengths["r0.wav"], lengths["r1.wav"]) - 1)
        noises = 8 * (lengths["n0.wav"] + lengths["n1.wav"])
        assert peak - noises <= 5 * 8 * reverberant

    def test_silent_clean_row_still_reported(self, assets):
        save_wav(AudioBuffer(np.zeros(SR), SR), assets / "silent.wav")
        manifest = assets / "m_silent.csv"
        write_manifest([self.ROWS[0], ("silent.wav", "r0.wav", "", math.inf, "none")], manifest)
        with pytest.raises(RevtimeError,
                           match=r"row 1: speech .*silent\.wav: no active frames"):
            build_corpus(manifest, assets / "built_silent")

    def test_silent_speech_on_noisy_row_names_row_and_speech(self, assets):
        save_wav(AudioBuffer(np.zeros(SR), SR), assets / "silent.wav")
        manifest = assets / "m_silent_noisy.csv"
        write_manifest([self.ROWS[0], ("silent.wav", "r0.wav", "n1.wav", 12, "fan")], manifest)
        with pytest.raises(RevtimeError,
                           match=r"row 1: speech .*silent\.wav: no active frames"):
            build_corpus(manifest, assets / "built_silent_noisy")

    def test_unlabelable_rir_fails_before_output(self, assets):
        impulse = AudioBuffer(np.concatenate([[1.0], np.zeros(50)]), SR)
        save_wav(impulse, assets / "impulse.wav", fmt="float32")
        manifest = assets / "m_impulse.csv"
        write_manifest([self.ROWS[0], ("s1.wav", "r1.wav", "n1.wav", 12, "fan"),
                        ("s0.wav", "impulse.wav", "", math.inf, "none")], manifest)
        with pytest.raises(RevtimeError, match=r"row 2: rir .*impulse\.wav: too few"):
            build_corpus(manifest, assets / "built_impulse")
        assert not (assets / "built_impulse").exists()

    def test_sample_rate_mismatch_before_convolution(self, assets, monkeypatch):
        save_wav(synthetic_speech(1.0, 8000, seed=86), assets / "s8k.wav")
        manifest = assets / "m_rate.csv"
        write_manifest([("s8k.wav", "r0.wav", "", math.inf, "none")], manifest)
        convolved = count_calls(monkeypatch, "convolve")
        with pytest.raises(RevtimeError, match="sample-rate mismatch between"):
            build_corpus(manifest, assets / "built_rate")
        assert convolved == []


def timeless(records):
    return [dataclasses.replace(r, cpu_time=0.0) for r in records]


class TestRunEval:
    def test_constant_estimator_errors(self, corpus):
        _, _, items = corpus
        model = make_model([0.5])
        records, failures = run_one(items, model)
        assert len(records) + len(failures) == len(items)
        for rec in records:
            true = next(it.t60_true for it in items if it.item_id == rec.item_id)
            assert rec.t60_est == 0.5
            assert rec.error == pytest.approx(0.5 - true, abs=1e-12)
            assert rec.cpu_time >= 0
            assert rec.audio_duration > 0

    def test_estimates_deterministic_across_runs(self, corpus):
        _, _, items = corpus
        model = make_model()
        r1, _ = run_one(items, model)
        r2, _ = run_one(items, model)
        assert [r.t60_est for r in r1] == [r.t60_est for r in r2]

    def test_parallel_matches_sequential(self, corpus):
        _, _, items = corpus
        model = make_model()
        seq, _ = run_one(items, model, jobs=1)
        par, _ = run_one(items, model, jobs=2)
        assert [r.item_id for r in seq] == [r.item_id for r in par]
        assert [r.t60_est for r in seq] == [r.t60_est for r in par]


class TestPairedEval:
    def test_loads_each_item_once(self, corpus, monkeypatch):
        _, _, items = corpus
        models = [make_model([0.2, 0.05], v) for v in VARIANTS]
        single = {m.variant_tag: run_one(items, m) for m in models}
        loaded = count_calls(monkeypatch, "load_wav")
        paired = run_eval_paired(items, models)
        assert len(loaded) == len(items)
        for tag, (records, failures) in paired.items():
            ref_records, ref_failures = single[tag]
            assert records
            assert timeless(records) == timeless(ref_records)
            assert failures == ref_failures

    def test_process_pool_matches_sequential(self, corpus, tmp_path):
        _, _, items = corpus
        tiny = tmp_path / "tiny.wav"
        save_wav(synthetic_speech(0.4, SR, seed=5), tiny)
        broken = dataclasses.replace(items[0], item_id="broken", mix_path=str(tiny))
        items = [*items[:2], broken, *items[2:]]
        models = [make_model([0.2, 0.05], v) for v in VARIANTS]
        seq = run_eval_paired(items, models, jobs=1)
        par = run_eval_paired(items, models, jobs=2)
        assert list(par) == list(seq) == ["full_band", "mel_band"]
        for tag, (records, failures) in seq.items():
            assert len(records) == len(items) - 1
            assert [f[0] for f in failures] == ["broken"]
            assert timeless(par[tag][0]) == timeless(records)
            assert par[tag][1] == failures

    def test_duplicate_variants_rejected(self, corpus, tmp_path):
        _, _, items = corpus
        with pytest.raises(RevtimeError, match="distinct variant tags"):
            run_eval_paired(items, [make_model(), make_model()])
        with pytest.raises(RevtimeError, match="distinct variant tags"):
            evaluate_to_dir(items, [make_model(), make_model()], tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestEvaluateToDir:
    def test_variant_without_records_keeps_the_others(self, corpus, tmp_path):
        _, _, items = corpus
        mel = make_model([0.5], "mel_band")
        # Every item is shorter than its minimum.
        too_short = make_model(variant="full_band", min_duration_s=100.0)
        results = evaluate_to_dir(items, [too_short, mel], tmp_path / "both")
        records, failures = results["mel_band"]
        assert len(records) == len(items) and failures == []
        assert results["full_band"][0] == []
        assert [f[0] for f in results["full_band"][1]] == [it.item_id for it in items]
        assert read_records(tmp_path / "both" / "records.csv") == records
        # The report is the one the working model gives on its own.
        evaluate_to_dir(items, [mel], tmp_path / "alone")
        for name in ("report.csv", "boxplot.dat"):
            assert ((tmp_path / "both" / name).read_bytes()
                    == (tmp_path / "alone" / name).read_bytes()), name


class TestBoxStats:
    def _records(self, errors, **kw):
        return [
            EvalRecord(item_id=f"i{i}", variant="mel_band",
                       noise_type=kw.get("noise_type", "fan"),
                       snr_db=kw.get("snr_db", 12.0), t60_true=5.0,
                       t60_est=5.0 + e, error=e, cpu_time=0.01,
                       audio_duration=2.0)
            for i, e in enumerate(errors)
        ]

    def test_hand_computed_five_values(self):
        stats = box_stats(self._records([1.0, 2.0, 3.0, 4.0, 5.0]))
        s = stats[("fan", 12.0)]
        assert s.median == 3.0
        assert s.q25 == 2.0
        assert s.q75 == 4.0
        assert s.whisker_lo == 1.0
        assert s.whisker_hi == 5.0
        assert s.n_outliers == 0

    def test_single_record(self):
        s = box_stats(self._records([0.7]))[("fan", 12.0)]
        assert (s.median, s.q25, s.q75, s.whisker_lo, s.whisker_hi) == (0.7,) * 5
        assert s.n == 1

    def test_far_outlier_counted(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]
        iqr = 2.0
        outlier = 4.0 + 10 * iqr
        s = box_stats(self._records(base + [outlier]))[("fan", 12.0)]
        assert s.n_outliers == 1
        assert s.whisker_hi == 5.0

    def test_permutation_invariant(self):
        errors = list(np.random.default_rng(12).normal(size=40))
        a = box_stats(self._records(errors))[("fan", 12.0)]
        b = box_stats(self._records(errors[::-1]))[("fan", 12.0)]
        assert a == b

    def test_groups_split(self):
        records = (self._records([1.0, 2.0], noise_type="fan")
                   + self._records([5.0, 6.0], noise_type="babble"))
        stats = box_stats(records)
        assert set(stats) == {("fan", 12.0), ("babble", 12.0)}


class TestRtf:
    def test_single_record(self):
        rec = EvalRecord(item_id="a", variant="v", noise_type="fan", snr_db=0.0,
                         t60_true=0.5, t60_est=0.5, error=0.0,
                         cpu_time=0.5, audio_duration=10.0)
        assert rtf([rec]) == 0.05

    def test_duration_weighted_identity(self):
        rng = np.random.default_rng(13)
        records = [
            EvalRecord(item_id=f"i{i}", variant="v", noise_type="fan",
                       snr_db=0.0, t60_true=0.5, t60_est=0.5, error=0.0,
                       cpu_time=float(rng.uniform(0.001, 0.1)),
                       audio_duration=float(rng.uniform(1.0, 5.0)))
            for i in range(20)
        ]
        total = rtf(records)
        weighted = (sum(r.audio_duration * (r.cpu_time / r.audio_duration)
                        for r in records)
                    / sum(r.audio_duration for r in records))
        assert total == pytest.approx(weighted, rel=1e-12)

    def test_empty_records(self):
        with pytest.raises(RevtimeError):
            rtf([])


class TestReport:
    def _stats(self):
        return {
            "mel_band": {
                ("fan", 12.0): BoxStats(0.1, 0.05, 0.2, 0.0, 0.3, 10, 1),
                ("fan", 18.0): BoxStats(0.05, 0.02, 0.1, 0.0, 0.2, 10, 0),
            },
            "full_band": {
                ("fan", 12.0): BoxStats(0.4, 0.2, 0.6, 0.1, 0.9, 10, 2),
                ("fan", 18.0): BoxStats(0.2, 0.1, 0.3, 0.05, 0.5, 10, 0),
            },
        }

    def test_csv_roundtrip_full_precision(self, tmp_path):
        stats = {"mel_band": {("fan", 12.0): BoxStats(
            0.5 + 1e-17, 1 / 3, 2 / 3, -1 / 7, 0.9, 5, 0)}}
        write_report(stats, tmp_path / "r.csv", tmp_path / "b.dat")
        import csv
        with open(tmp_path / "r.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        s = stats["mel_band"][("fan", 12.0)]
        assert float(row["median"]) == s.median
        assert float(row["q25"]) == s.q25
        assert float(row["q75"]) == s.q75
        assert float(row["whisker_lo"]) == s.whisker_lo
        assert int(row["n"]) == 5

    def test_row_cardinality(self, tmp_path):
        write_report(self._stats(), tmp_path / "r.csv", tmp_path / "b.dat")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + groups x variants
        dat = [l for l in (tmp_path / "b.dat").read_text().splitlines()
               if l and not l.startswith("#")]
        assert len(dat) == 4

    def test_empty_variant_set_header_only(self, tmp_path):
        write_report({}, tmp_path / "r.csv", tmp_path / "b.dat")
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("variant,noise_type,snr_db,median")


class TestRecordsIo:
    def test_roundtrip(self, tmp_path):
        records = [
            EvalRecord(item_id="a", variant="mel_band", noise_type="fan",
                       snr_db=-1.0, t60_true=1 / 3, t60_est=0.5,
                       error=0.5 - 1 / 3, cpu_time=0.0123,
                       audio_duration=2.5, flags="clamped"),
        ]
        write_records(records, tmp_path / "rec.csv")
        loaded = read_records(tmp_path / "rec.csv")
        assert loaded == records

    def test_columns_that_are_not_fields_are_ignored(self, tmp_path):
        (tmp_path / "rec.csv").write_text(
            "item_id,variant,noise_type,snr_db,t60_true,t60_est,error,cpu_time,"
            "audio_duration,flags,host\n"
            "a,full_band,none,inf,0.4,0.5,0.1,0.001,2.0,,lab-1\n")
        [record] = read_records(tmp_path / "rec.csv")
        assert record == EvalRecord(item_id="a", variant="full_band", noise_type="none",
                                    snr_db=math.inf, t60_true=0.4, t60_est=0.5,
                                    error=0.1, cpu_time=0.001, audio_duration=2.0)
