"""Tests of the benchmark itself: determinism, observer neutrality, contract.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import inputs, measure, report  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402

SEED = 5


@pytest.fixture
def short_traces(monkeypatch):
    monkeypatch.setattr(inputs, "REPLAY_JOBS", 300)


def _traced(workload: str) -> tuple[list, SpanRecorder]:
    recorder = SpanRecorder()
    recorder.install()
    try:
        sims = measure.run_units(workload, SEED, 1)
    finally:
        recorder.remove()
    return sims, recorder


def _counts(sims, recorder) -> dict:
    layers = report.per_layer(
        recorder.summary(), len(recorder.useful_passes), sims, sims
    )
    return {name: m[0] for name, m in layers.items() if m[1] == "count"}


def test_observers_leave_the_schedule_unchanged(short_traces):
    plain = measure.run_units("replay", SEED, 2)
    observed = measure.run_units("replay_observed", SEED, 2)
    assert [s.digest for s in observed] == [s.digest for s in plain]
    assert measure.outcomes(observed) == measure.outcomes(plain)
    assert all(s.ledger_decisions for s in observed)


@pytest.mark.parametrize("workload", ["replay", "esp"])
def test_one_seed_gives_identical_digests_outcomes_and_counts(
    short_traces, workload
):
    first, second = (measure.run_units(workload, SEED, 1) for _ in range(2))
    assert measure.combined_digest(first) == measure.combined_digest(second)
    assert measure.outcomes(first) == measure.outcomes(second)
    assert report.work_counters(first) == report.work_counters(second)
    traced_a, traced_b = _traced(workload), _traced(workload)
    assert measure.combined_digest(traced_a[0]) == measure.combined_digest(first)
    assert _counts(*traced_a) == _counts(*traced_b)


def test_spans_nest_and_wrappers_are_removed(short_traces):
    from repro.maui.scheduler import MauiScheduler

    original = MauiScheduler.iteration
    sims, recorder = _traced("replay")
    assert MauiScheduler.iteration is original
    assert not recorder.missing
    a = recorder.arrays()
    assert (a["end_ns"] >= a["start_ns"]).all()
    child = a["parent"] >= 0
    parents = a["parent"][child]
    assert (a["start_ns"][child] >= a["start_ns"][parents]).all()
    assert (a["end_ns"][child] <= a["end_ns"][parents]).all()
    starts = recorder.names.index("rms.start_job")
    assert (a["job"][a["name"] == starts] > 0).all()
    layers = report.per_layer(
        recorder.summary(), len(recorder.useful_passes), sims, sims
    )
    assert 0.0 < layers["sim.span_coverage_pct"][0] <= 100.0
    assert layers["maui.iteration_n"][0] == report.work_counters(sims)[
        "maui.iteration_n"
    ]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_matches_the_benchmark_file(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(ROOT, "--workload", "esp", "--seed", "1", "--seconds", "1",
               "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "replay", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
