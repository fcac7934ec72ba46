"""Manifest-driven corpus construction, estimator evaluation, error
statistics and real-time-factor measurement."""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import EstimationError, RevtimeError
from .estimator import MappingModel, estimate_t60
from .signal_core import (
    AudioBuffer,
    _check_finite,
    _from_fields,
    _is_finite,
    _write_csv,
    _write_rows,
    active_speech_level,
    convolve,
    load_json,
    load_wav,
    noise_gain_for_snr,
    read_lines,
    save_json,
    save_wav,
    wav_info,
)
from .room_acoustics import measure_t60

NOISE_TYPES = ("ambient", "fan", "babble", "synthetic_white", "synthetic_babble", "none")
MANIFEST_FIELDS = ("speech", "rir", "noise", "snr_db", "noise_type")

# The record fields errors are grouped by in the box-plot report.
GROUP_BY = ("noise_type", "snr_db")

# Every mix is scaled to this peak before the 16-bit write (gain recorded in
# items.json). Convolution outputs are small, so writing them unscaled would
# park quantization noise near the signal's own noise floor and estimates
# from files would drift from estimates computed in memory.
PEAK_TARGET = 0.89


def _check_snr(snr) -> None:
    """The SNR rule of corpus items and records: finite dB, or +inf for a
    clean mix; NaN and -inf raise RevtimeError."""
    if snr != math.inf and not _is_finite(snr, "any"):
        raise RevtimeError(f"snr_db must be a number or +inf, got {snr!r}")


@dataclass(frozen=True)
class CorpusItem:
    """One noisy reverberant utterance with its ground-truth label."""

    item_id: str
    speech_path: str
    rir_path: str
    noise_path: str
    snr_db: float
    noise_type: str
    t60_true: float
    mix_path: str

    def __post_init__(self):
        _check_finite("t60_true", self.t60_true)
        _check_snr(self.snr_db)
        if self.noise_type not in NOISE_TYPES:
            raise RevtimeError(f"unknown noise_type {self.noise_type!r}")

    def to_dict(self) -> dict:
        # JSON has no infinity; float() reads "inf" back.
        return {**asdict(self),
                "snr_db": self.snr_db if math.isfinite(self.snr_db) else "inf"}


@dataclass(frozen=True)
class EvalRecord:
    """Outcome of one estimate: error, timing, and grouping keys."""

    item_id: str
    variant: str
    noise_type: str
    snr_db: float
    t60_true: float
    t60_est: float
    error: float
    cpu_time: float
    audio_duration: float
    flags: str = ""

    def __post_init__(self):
        _check_snr(self.snr_db)
        _check_finite("t60_true", self.t60_true)
        _check_finite("t60_est", self.t60_est, "non-negative")
        _check_finite("error", self.error, "any")
        _check_finite("cpu_time", self.cpu_time, "non-negative")
        _check_finite("audio_duration", self.audio_duration)


@dataclass(frozen=True)
class BoxStats:
    """Five-number box summary with 1.5*IQR whiskers."""

    median: float
    q25: float
    q75: float
    whisker_lo: float
    whisker_hi: float
    n: int
    n_outliers: int

    def __post_init__(self):
        if not (self.q25 <= self.median <= self.q75):
            raise RevtimeError("quartiles must bracket the median")


def _parse_snr(text: str) -> float:
    """A finite SNR in dB, or inf for a clean row ("inf", "+inf", "clean");
    anything else raises ValueError (the CLI's --snr-list takes the same)."""
    text = text.strip().lower()
    if text in ("inf", "+inf", "clean"):
        return math.inf
    try:
        snr = float(text)
    except ValueError:
        snr = math.nan
    if not _is_finite(snr, "any"):
        raise ValueError(f"must be a finite number, inf or clean, got {text!r}")
    return snr


def _check_row(idx, snr_text: str, noise: str, noise_type: str) -> float:
    """The rule every manifest row keeps, read or written: an SNR that
    _parse_snr takes, a noise path if that SNR is finite, and a known
    noise_type. Returns the SNR; a broken rule raises RevtimeError naming
    the row."""
    try:
        snr = _parse_snr(snr_text)
    except ValueError as exc:
        raise RevtimeError(f"row {idx}: snr_db {exc}") from None
    if math.isfinite(snr) and not noise:
        raise RevtimeError(f"row {idx}: a finite SNR needs a noise path")
    if noise_type not in NOISE_TYPES:
        raise RevtimeError(f"row {idx}: unknown noise_type {noise_type!r}")
    return snr


def read_manifest(path):
    """Parse a corpus manifest CSV into rows whose paths are absolute (read
    relative to the manifest). A malformed row raises RevtimeError naming it."""
    base = Path(path).absolute().parent
    rows = []
    reader = csv.DictReader(read_lines(path))
    missing = set(MANIFEST_FIELDS) - set(reader.fieldnames or ())
    if missing:
        raise RevtimeError(f"manifest missing columns: {sorted(missing)}")
    for idx, raw in enumerate(reader):
        if None in raw or None in raw.values():
            raise RevtimeError(f"row {idx}: expected {len(reader.fieldnames)} columns")
        noise, noise_type = raw["noise"].strip(), raw["noise_type"].strip()
        snr = _check_row(idx, raw["snr_db"], noise, noise_type)
        rows.append({
            "speech": str(base / raw["speech"].strip()),
            "rir": str(base / raw["rir"].strip()),
            "noise": str(base / noise) if noise else "",
            "snr_db": snr,
            "noise_type": noise_type,
        })
    if not rows:
        raise RevtimeError(f"manifest {path} has no rows")
    return rows


def write_manifest(rows, path) -> None:
    """Write (speech, rir, noise, snr_db, noise_type) rows as the corpus
    manifest CSV that read_manifest reads. Paths are written as given (a
    relative one is read relative to the manifest). An SNR is a number or
    any text read_manifest takes ("clean", " 12 "); a whole-number SNR is
    written as an integer and any other by repr, a clean row's as inf, so
    every SNR reads back as the same float. Every row is checked by
    read_manifest's rule before the file is opened, so a row it would
    reject raises RevtimeError naming the row and nothing is written."""
    lines = []
    for idx, (speech, rir, noise, snr, noise_type) in enumerate(rows):
        snr = _check_row(idx, snr if isinstance(snr, str) else repr(float(snr)),
                         str(noise).strip(), str(noise_type).strip())
        text = str(int(snr)) if snr.is_integer() else repr(snr)
        lines.append([speech, rir, noise, text, noise_type])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([MANIFEST_FIELDS, *lines])


def _check_files(rows) -> dict:
    """Check the manifest's files from their WAV headers, each distinct path
    read once. Every file must load; then, row by row, an RIR must be at
    its speech's sample rate, and a noise mixed at a finite SNR at that rate
    too and at least as long as the reverberant speech (speech + RIR - 1
    frames). Last, each distinct RIR is loaded and its T60 label measured.
    A failure raises RevtimeError naming the row; returns the labels by RIR
    path."""
    headers = {}
    for idx, row in enumerate(rows):
        for path in filter(None, (row["speech"], row["rir"], row["noise"])):
            if path in headers:
                continue
            if not Path(path).is_file():
                raise RevtimeError(f"row {idx}: no such file {path}")
            try:
                headers[path] = wav_info(path)
            except RevtimeError as exc:
                raise RevtimeError(f"row {idx}: {exc}") from exc
    for idx, row in enumerate(rows):
        (rate, n_speech), (rir_rate, n_rir) = headers[row["speech"]], headers[row["rir"]]
        if rir_rate != rate:
            raise RevtimeError(f"row {idx}: sample-rate mismatch between {row['speech']} "
                               f"({rate} Hz) and {row['rir']} ({rir_rate} Hz)")
        if not math.isfinite(row["snr_db"]):
            continue
        noise_rate, n_noise = headers[row["noise"]]
        if noise_rate != rate:
            raise RevtimeError(f"row {idx}: noise {row['noise']}: sample-rate mismatch: "
                               f"speech {rate} Hz vs noise {noise_rate} Hz")
        if n_noise < n_speech + n_rir - 1:
            raise RevtimeError(f"row {idx}: noise {row['noise']}: noise ({n_noise} "
                               f"samples) is shorter than speech convolved with its "
                               f"RIR ({n_speech + n_rir - 1})")
    labels = {}
    for idx, row in enumerate(rows):
        if row["rir"] not in labels:
            try:
                labels[row["rir"]] = measure_t60(load_wav(row["rir"]))
            except RevtimeError as exc:
                raise RevtimeError(f"row {idx}: rir {row['rir']}: {exc}") from exc
    return labels


def build_corpus(manifest, out_dir) -> list:
    """Realize every manifest row: convolve speech with its impulse
    response, mix noise at the target SNR, and write the mix as
    itemNNNN.wav. items.json, written once after the last row, holds one
    entry per item: its CorpusItem fields (with the Schroeder-measured true
    T60) plus the speech level, noise gain and output gain of the mix.

    A (speech, RIR) pair is loaded, convolved and level-measured once and
    reused while the following rows name the same pair; noise files are
    loaded once per build. Beyond the noise files, one pair's buffers are
    alive at a time: its speech and RIR until they are convolved, its
    reverberant speech until the pair changes, and the current row's mix,
    with the 16-bit copy save_wav writes, until the mix is written. With
    convolve's and save_wav's work arrays, the traced peak is about 4.3
    times the longest reverberant speech in float64. Rows grouped by
    (speech, RIR) build fastest, but any row order gives the same files: a
    pair that comes back after another is simply convolved again. Every
    recorded path is absolute, so the corpus can be evaluated from any
    working directory.

    Every file is checked from its header, and every RIR labeled, before
    out_dir is created; only silent speech, a silent mix, or a noise silent
    over the speech span fails when its row is reached.
    """
    rows = read_manifest(manifest)
    labels = _check_files(rows)
    out = Path(out_dir).absolute()
    out.mkdir(parents=True, exist_ok=True)
    noises = {}
    pair = None
    items, entries = [], []
    # One pair's buffers are alive at a time: the last pair's reverberant
    # speech is dropped before the next pair loads, the speech and RIR once
    # convolved, and each mix once written.
    for idx, row in enumerate(rows):
        if (row["speech"], row["rir"]) != pair:
            reverberant = None
            speech = load_wav(row["speech"])
            rir = load_wav(row["rir"])
            pair = (row["speech"], row["rir"])
            reverberant = convolve(speech, rir)
            del speech, rir
            try:
                level = active_speech_level(reverberant)
            except RevtimeError as exc:
                raise RevtimeError(f"row {idx}: speech {row['speech']}: {exc}") from exc
        # The mix is built and scaled in place in one array; a clean row copies
        # the reverberant speech, which later rows may reuse.
        if math.isfinite(row["snr_db"]):
            if row["noise"] not in noises:
                noises[row["noise"]] = load_wav(row["noise"])
            noise = noises[row["noise"]]
            try:
                gain = noise_gain_for_snr(reverberant, noise, row["snr_db"],
                                          speech_level_db=level)
            except RevtimeError as exc:
                raise RevtimeError(f"row {idx}: noise {row['noise']}: {exc}") from exc
            mix = noise.samples[:len(reverberant)] * gain
            mix += reverberant.samples
        else:
            gain = 0.0
            mix = reverberant.samples.copy()
        peak = float(max(mix.max(), -mix.min()))
        if peak == 0.0:
            raise RevtimeError(f"row {idx}: mix is silent")
        output_gain = PEAK_TARGET / peak
        mix *= output_gain
        mix_buf = AudioBuffer(mix, reverberant.sample_rate)

        item_id = f"item{idx:04d}"
        mix_path = out / f"{item_id}.wav"
        save_wav(mix_buf, mix_path)
        del mix, mix_buf
        item = CorpusItem(
            item_id=item_id,
            speech_path=row["speech"],
            rir_path=row["rir"],
            noise_path=row["noise"],
            snr_db=row["snr_db"],
            noise_type=row["noise_type"],
            t60_true=labels[row["rir"]],
            mix_path=str(mix_path),
        )
        items.append(item)
        entries.append({**item.to_dict(), "speech_level_db": level,
                        "noise_gain": gain, "output_gain": output_gain})
    save_json(entries, out / "items.json")
    return items


def load_items(corpus_dir) -> list:
    """Read a corpus's items.json; a malformed file or entry raises
    RevtimeError naming the entry index and the offending key."""
    index = Path(corpus_dir) / "items.json"
    entries = load_json(index)
    if not isinstance(entries, list):
        raise RevtimeError(f"{index} must hold a JSON list of items")
    return [_from_fields(CorpusItem, entry, f"{index}: entry {i}")
            for i, entry in enumerate(entries)]


def _eval_one(item: CorpusItem, buf: AudioBuffer, model: MappingModel):
    """Estimate one loaded item: ("ok", record) or ("err", (item_id, message))."""
    # perf_counter, not process_time: per-item estimates run in about a
    # millisecond while CPU clocks on many hosts tick at 10 ms. In the
    # sequential reference mode the wall time of this compute-only region
    # is the CPU time. The call is timed twice and the minimum kept, which
    # rejects preemption spikes on busy machines; estimates are
    # deterministic so the repeat returns the identical result.
    try:
        start = time.perf_counter()
        result = estimate_t60(buf, model)
        mid = time.perf_counter()
        estimate_t60(buf, model)
        cpu = min(mid - start, time.perf_counter() - mid)
    except EstimationError as exc:
        return ("err", (item.item_id, str(exc)))
    return ("ok", EvalRecord(
        item_id=item.item_id,
        variant=model.variant_tag,
        noise_type=item.noise_type,
        snr_db=item.snr_db,
        t60_true=item.t60_true,
        t60_est=result.t60,
        error=result.t60 - item.t60_true,
        cpu_time=cpu,
        audio_duration=buf.duration,
        flags="|".join(result.flags),
    ))


def _paired_worker(args):
    idx, item, models = args
    buf = load_wav(item.mix_path)
    # Rotate model order per item so no variant always runs cold after the
    # file load; otherwise the comparison bakes in a cache-warmth bias.
    k = idx % len(models)
    return [(model.variant_tag, _eval_one(item, buf, model))
            for model in models[k:] + models[:k]]


def _variant_tags(models) -> list:
    """The models' variant tags, which paired evaluation needs distinct."""
    tags = [m.variant_tag for m in models]
    if len(set(tags)) != len(tags):
        raise RevtimeError("paired evaluation needs distinct variant tags")
    return tags


def run_eval_paired(items, models, jobs: int = 1):
    """Evaluate one or more models over the same items, back to back per
    item. Only the estimate calls themselves are timed.

    Timing each variant on the same item under the same conditions makes
    the aggregate CPU times directly comparable; the variants' real-time
    factors come out of one pass instead of widely separated runs. Returns
    {variant_tag: (records, failures)}, where failed items are
    (item_id, message) pairs. jobs=1 is the sequential reference mode whose
    per-item CPU times feed the real-time-factor measurement.
    """
    models = list(models)
    results = {tag: ([], []) for tag in _variant_tags(models)}
    args = [(idx, item, models) for idx, item in enumerate(items)]
    if jobs <= 1:
        batches = map(_paired_worker, args)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(_paired_worker, args))
    for batch in batches:
        for tag, (status, payload) in batch:
            records, failures = results[tag]
            (records if status == "ok" else failures).append(payload)
    return results


def evaluate_to_dir(items, models, out_dir, jobs: int = 1) -> dict:
    """run_eval_paired, then write records.csv and the box-plot report
    (report.csv, boxplot.dat; errors grouped by noise type and SNR) into
    out_dir, which is made once the variant tags are known to be distinct.
    A variant that estimated no item is left out of the report. Returns
    run_eval_paired's {variant_tag: (records, failures)}.
    """
    models = list(models)
    _variant_tags(models)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = run_eval_paired(items, models, jobs=jobs)
    write_records([r for records, _ in results.values() for r in records],
                  out / "records.csv")
    stats = {tag: box_stats(records) for tag, (records, _) in results.items() if records}
    write_report(stats, out / "report.csv", out / "boxplot.dat")
    return results


def box_stats(records):
    """Box summaries of the estimate errors per (noise_type, snr_db) group.

    Quartiles use linear interpolation; whiskers reach the most extreme data
    within 1.5*IQR of the box and everything beyond counts as an outlier.
    """
    if not records:
        raise RevtimeError("no records to summarize")
    groups = {}
    for rec in records:
        key = tuple(getattr(rec, k) for k in GROUP_BY)
        groups.setdefault(key, []).append(float(rec.error))
    out = {}
    for key in sorted(groups):
        data = np.asarray(groups[key])
        q25, med, q75 = np.percentile(data, [25.0, 50.0, 75.0])
        iqr = q75 - q25
        inside = data[(data >= q25 - 1.5 * iqr) & (data <= q75 + 1.5 * iqr)]
        out[key] = BoxStats(
            median=float(med),
            q25=float(q25),
            q75=float(q75),
            whisker_lo=float(inside.min()),
            whisker_hi=float(inside.max()),
            n=int(data.size),
            n_outliers=int(data.size - inside.size),
        )
    return out


def rtf(records) -> float:
    """Real-time factor: total CPU time over total audio duration."""
    if not records:
        raise RevtimeError("no records to compute an RTF from")
    return sum(r.cpu_time for r in records) / sum(r.audio_duration for r in records)


def rtf_table(records) -> str:
    """Plain-text table of real-time factor, CPU and audio seconds per variant."""
    by_variant = {}
    for r in records:
        by_variant.setdefault(r.variant, []).append(r)
    lines = [f"{'variant':<12} {'rtf':>10} {'cpu_s':>10} {'audio_s':>10}"]
    for variant in sorted(by_variant):
        recs = by_variant[variant]
        lines.append(f"{variant:<12} {rtf(recs):>10.5f} "
                     f"{sum(r.cpu_time for r in recs):>10.3f} "
                     f"{sum(r.audio_duration for r in recs):>10.1f}")
    return "\n".join(lines)


def write_records(records, path) -> None:
    """Write EvalRecords as CSV, one column per field."""
    _write_rows(EvalRecord, records, path)


def read_records(path) -> list:
    """Read write_records' CSV; a malformed row raises RevtimeError."""
    return [_from_fields(EvalRecord, row, f"{path}: row {i}")
            for i, row in enumerate(csv.DictReader(read_lines(path)))]


def write_report(stats_by_variant: dict, out_csv, out_dat) -> None:
    """Write grouped box statistics as CSV plus a gnuplot-ready data file.

    The data file has one row per variant within each group so variants sit
    side by side on the x axis, grouped by SNR.
    """
    rows = sorted(((key, variant, s) for variant, groups in stats_by_variant.items()
                   for key, s in groups.items()), key=lambda r: r[:2])

    _write_csv(["variant", *GROUP_BY, *(f.name for f in fields(BoxStats))],
               [(variant, *key, *astuple(s)) for key, variant, s in rows], out_csv)

    with open(out_dat, "w") as fh:
        fh.write("# box-and-whisker data, variants side by side within each group\n")
        fh.write(f"# columns: idx variant {' '.join(GROUP_BY)} "
                 "whisker_lo q25 median q75 whisker_hi n_outliers\n")
        fh.write("# gnuplot: plot 'boxplot.dat' u 1:5:4:8:7:xticlabels(2) "
                 "w candlesticks whiskerbars, '' u 1:6:6:6:6 w candlesticks\n")
        for idx, (key, variant, s) in enumerate(rows):
            keytxt = " ".join(repr(k) if isinstance(k, float) else str(k) for k in key)
            fh.write(f"{idx} {variant} {keytxt} {s.whisker_lo!r} {s.q25!r} "
                     f"{s.median!r} {s.q75!r} {s.whisker_hi!r} {s.n_outliers}\n")
