"""Tiny-size smoke runs of every workload, untraced and traced, plus the
refusal to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracer import TRACED
from workloads import Corpus, Demo, Estimate

TINY = {
    "estimate": lambda seed, work: Estimate(seed, work, utterances=1, t60s=(0.3, 0.6),
                                            snrs=(6.0,), durations=(2.0, 2.0)),
    "corpus": lambda seed, work: Corpus(seed, work, utterances=2, t60s=(0.3, 0.6),
                                        snrs=(6.0,), durations=(2.0, 3.0)),
    "demo": lambda seed, work: Demo(seed, work, talkers=1, utterances=1, t60_list=(0.3,),
                                    train_t60_max=0.5, train_rooms=2, order=1),
}

PER_LAYER = {f"{name}.{stat}" for name in TRACED for stat in ("calls", "total_s", "self_s")}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_correct_untraced_and_traced(name, tmp_path):
    untraced = run.measure(TINY[name](5, tmp_path / "a"), 0.0, trace=False)
    assert untraced["correct"], untraced["problems"]
    assert set(untraced["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert untraced["attempted"] > 0 and untraced["failed"] == 0
    assert len(untraced["passes"]) >= 2

    traced = run.measure(TINY[name](5, tmp_path / "b"), 0.0, trace=True)
    assert traced["correct"], traced["problems"]
    assert set(traced["metrics"]) == PER_LAYER | set(run.COUNTER_UNITS)
    assert traced["metrics"]["estimator.estimate_t60.calls"]["value"] > 0
    assert traced["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "estimate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode not in (0, 1)
    assert "src/revtime" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
