"""revtime benchmark: one workload per process, one caller at a time.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 15 --trace 0

Run from the root of a revtime checkout; the package is imported from
``src/`` of that checkout. Set-up runs SETUP_REPEATS times and reports its
median. The timed section then repeats the workload's unit of work (a pass)
until --seconds have elapsed, and at least twice for the determinism checks.

--trace 0 prints the end-to-end metrics. Their times are normalized to host
speed with a NumPy-only reference kernel timed through the run (see
hostspeed.py); the raw figures stay in the record. --trace 1 measures the
same untraced passes, then runs one more pass with every layer function
wrapped by the tracer and prints the per-layer metrics and work counters
instead.

Progress and the environment go to earlier lines; the last line of standard
output is one JSON object {correct, attempted, failed, metrics}. A full
record (environment, sizes, per-pass figures, the trace summary) is written
to .bench_out/ in the checkout. Exit code 0 means every correctness check
passed; 1 means a check failed; 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

from hostspeed import HostSpeed
from tracer import TRACED, Tracer, installed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "audio_s_per_s": "s/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "rtf_full_band": "ratio",
    "rtf_mel_band": "ratio",
    "build_corpus_s": "s",
    "evaluate_s": "s",
}

# Time metrics scale with the host-speed factor; throughput divides by it.
SCALED = ("setup_s", "wall_s", "latency_p50_ms", "latency_p99_ms", "rtf_full_band",
          "rtf_mel_band", "build_corpus_s", "evaluate_s")
PER_SECOND = ("audio_s_per_s",)

COUNTER_UNITS = {
    "room_acoustics.unique_room_ratio": "ratio",
    "room_acoustics.rir_samples": "count",
    "signal_core.audio_s_convolved": "s",
    "signal_core.wav_bytes_written": "bytes",
    "signal_core.wav_bytes_read": "bytes",
    "estimator.audio_s": "s",
    "estimator.gradients": "count",
    "estimator.selected_ratio": "ratio",
    "estimator.negative_ratio": "ratio",
    "trainer.pairs": "count",
    "trainer.skipped": "count",
    "trace_overhead_ratio": "ratio",
}


def _fail(message: str) -> None:
    print(f"benchmark cannot run: {message}", file=sys.stderr)
    sys.exit(2)


def _import_revtime():
    """Put the checkout's src/ first on the path and check that it won."""
    if not (SRC / "revtime" / "__init__.py").is_file():
        _fail(f"no src/revtime package under {ROOT}; run from a revtime checkout")
    sys.path.insert(0, str(SRC))
    import revtime
    if Path(revtime.__file__).resolve().parent != (SRC / "revtime").resolve():
        _fail(f"imported revtime from {revtime.__file__}, not {SRC}")


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(workload) -> dict:
    import numpy
    import scipy
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "revtime").glob("*.py")):
        src_digest.update(path.name.encode())
        src_digest.update(path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the config layout differs across numpy builds
        blas = {"unknown": repr(exc)}
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")},
        "sizes": workload.sizes(),
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run the timed passes (and the traced pass), check everything.

    Returns the record written to .bench_out/: correct, attempted, failed,
    metrics (name -> {value, unit}) and the details behind them.
    """
    from workloads import item_latencies

    host = HostSpeed()
    problems = []
    setups, digests = [], []
    for rep in range(SETUP_REPEATS):
        start = time.perf_counter()
        digests.append(workload.setup(rep))
        setups.append(time.perf_counter() - start)
    if len(set(digests)) != 1:
        problems.append("set-up with one seed made different inputs")

    passes = []
    start = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - start < seconds:
        probe = Tracer()
        with installed(probe, workload.stages):
            passes.append(workload.run_pass(len(passes), probe))
        # Right after the pass, which ends with its estimates: the host speed
        # they ran at.
        host.sample()
    problems += workload.check(passes)

    record = {"workload": workload.name, "seed": workload.seed,
              "setup_s": setups, "passes": [p.wall_s for p in passes],
              "estimates_per_pass": len(passes[0].calls)}
    if problems:
        return {**record, "correct": False, "problems": problems,
                "attempted": max(1, sum(p.attempted for p in passes)),
                "failed": sum(p.failed for p in passes), "metrics": {}}

    raw = workload.metrics(setups, passes)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factor = host.factor()
    values = {name: value * factor if name in SCALED
              else value / factor if name in PER_SECOND else value
              for name, value in raw.items()}
    record.update(raw_metrics=raw, host_speed_factor=factor, reference_s=host.samples)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    # Accuracy depends on the seed's rooms (and, in demo, on the models the
    # seed trains) far more than on the code, so it is gated in check() and
    # recorded here rather than bounded as a metric.
    record["accuracy"] = workload.accuracy(passes)
    record["item_latency_ms"] = sorted(1e3 * t for t in item_latencies(passes).values())
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    if trace:
        # One more set-up, traced for the record only: the per-layer metrics
        # cover the timed pass.
        setup_tracer = Tracer()
        with installed(setup_tracer, TRACED):
            if workload.setup(SETUP_REPEATS) != digests[0]:
                problems.append("traced set-up made different inputs")
        record["setup_trace_summary"] = setup_tracer.summary()
        tracer = Tracer()
        with installed(tracer, TRACED):
            traced = workload.run_pass(len(passes), tracer)
        problems += workload.check(passes[:1] + [traced])
        summary = tracer.summary()
        problems += workload.coverage(summary, tracer, traced)
        counters = tracer.counters()
        counters["trace_overhead_ratio"] = traced.wall_s / raw["wall_s"]
        record.update(end_to_end=metrics, trace_summary=summary)
        metrics = {}
        for name in TRACED:
            row = summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            metrics[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
            metrics[f"{name}.total_s"] = {"value": row["total_s"], "unit": "s"}
            metrics[f"{name}.self_s"] = {"value": row["self_s"], "unit": "s"}
        for name, unit in COUNTER_UNITS.items():
            metrics[name] = {"value": counters[name], "unit": unit}
        attempted += traced.attempted
        failed += traced.failed

    return {**record, "correct": not problems, "problems": problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("estimate", "corpus", "demo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="length of the timed section; at least two passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_revtime()
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with warnings.catch_warnings(record=True) as caught:
            # Warnings (a legacy model format, say) are recorded, never fatal.
            warnings.simplefilter("always")
            workload = WORKLOADS[args.workload](args.seed, work)
            record = measure(workload, args.seconds, bool(args.trace))
            record["environment"] = environment(workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["warnings"] = sorted({str(w.message) for w in caught})

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": record["environment"],
                      "warnings": record["warnings"]}))
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    rows = {**record["metrics"],
            **{k: {"value": v, "unit": "s"} for k, v in record.get("accuracy", {}).items()}}
    for name, m in rows.items():
        print(f"{args.workload:<9} {name:<45} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
