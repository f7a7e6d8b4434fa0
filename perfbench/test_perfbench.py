"""Tests of the benchmark itself: its trials are the harness's trials, its
checks catch broken outcomes, and tracing changes nothing it measures."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from poolscreen import harness, schemes  # noqa: E402
from poolscreen.recovery import BudgetExceeded, DecodeResult  # noqa: E402

TRIALS = 3


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trial_loop_matches_run_experiment(name):
    workload = workloads.WORKLOADS[name]
    runner = workloads.TrialRunner(workload, master_seed=1)
    ours = [runner.run(i) for i in range(TRIALS)]
    _, theirs = harness.run_experiment(workloads.experiment_config(workload, 1, trials=TRIALS))
    for mine, ref in zip(ours, theirs, strict=True):
        assert mine.error is None
        assert mine.seed == ref["seed"]
        assert mine.outcome.measurements_total == ref["m"]
        assert list(mine.outcome.estimated_support) == ref["estimate"]


def test_quality_prefix_equals_run_experiment():
    workload = workloads.WORKLOADS["stap2-sampled-k5"]
    runner = workloads.TrialRunner(workload, master_seed=1)
    records = [runner.run(i) for i in range(TRIALS + 2)]
    ours = run._end_to_end(records, setup_s=1.0, quality_trials=TRIALS)
    [report], _ = harness.run_experiment(workloads.experiment_config(workload, 1, trials=TRIALS))
    assert ours["tests_per_trial"][0] == report.m_ave
    assert ours["sensitivity"][0] == report.sensitivity
    assert ours["specificity"][0] == report.specificity


def test_checks_catch_broken_outcomes():
    workload = workloads.WORKLOADS["stamp-pinned-k2"]
    runner = workloads.TrialRunner(workload, master_seed=1)
    signal, outcome, _ = runner.play(runner.seed(0))
    assert workloads.check_trial(runner.cfg, signal, outcome) == []
    kept = {c for d in outcome.diagnostics for c in d.survivors}
    stray = next(c for c in range(workloads.N) if c not in kept)
    broken = dataclasses.replace(outcome, estimated_support=(stray,))
    problems = workloads.check_trial(runner.cfg, signal, broken)
    assert any("not COMP survivors" in p for p in problems)
    twice = dataclasses.replace(outcome, estimated_support=(stray, stray))
    assert any("repeats a column" in p for p in workloads.check_trial(runner.cfg, signal, twice))
    lost = dataclasses.replace(
        outcome, diagnostics=tuple(dataclasses.replace(d, survivors=()) for d in outcome.diagnostics)
    )
    problems = workloads.check_trial(runner.cfg, signal, lost)
    assert any("COMP dropped" in p for p in problems)


def test_wrapper_records_budget_hit_before_reraising():
    partial = DecodeResult(estimate=(), best=None, scored_count=7, budget_exceeded=True)

    def decode():
        raise BudgetExceeded(partial)

    owner = SimpleNamespace(decode=decode)
    tracer = tracing.Tracer()
    tracer.wrap(owner, "decode", "recovery.decode_single", tracing._observe_decode)
    with pytest.raises(BudgetExceeded):
        owner.decode()
    tracer.restore()
    assert owner.decode is decode
    assert tracer.counts["recovery.budget_hits"] == 1
    assert tracer.counts["recovery.candidates_scored"] == 7
    [(name, start, end, parent, trial)] = tracer.spans
    assert name == "recovery.decode_single" and end >= start and parent is None and trial == 0


def test_traced_trials_equal_untraced_and_self_times_add_up():
    workload = workloads.WORKLOADS["stamp-pinned-k2"]
    runner = workloads.TrialRunner(workload, master_seed=1)
    plain = [runner.run(i) for i in range(TRIALS)]
    originals = {attr: getattr(owner, attr) for owner, attr, _, _ in tracing.LAYERS}
    tracer = tracing.Tracer()
    tracing.install(tracer, runner)
    try:
        traced = [runner.run(i) for i in range(TRIALS)]
    finally:
        tracer.restore()
    for owner, attr, _, _ in tracing.LAYERS:
        assert getattr(owner, attr) is originals[attr]
    for a, b in zip(plain, traced):
        assert b.error is None
        assert a.outcome.estimated_support == b.outcome.estimated_support
    roots = [s for s in tracer.spans if s[3] is None]
    assert [s[0] for s in roots] == ["trial"] * TRIALS
    assert {s[4] for s in tracer.spans} == set(range(TRIALS))
    metrics = tracing.layer_metrics(tracer, TRIALS)
    root_ms = sum(end - start for _, start, end, _, _ in roots) * 1e3 / TRIALS
    assert math.isclose(metrics["trial_ms"][0], root_ms, rel_tol=1e-9)
    assert metrics["matrices.sample_calls"][0] == 0
    assert metrics["model.readings"][0] * TRIALS == sum(r.outcome.measurements_total for r in traced)


def test_untraced_run_prints_every_gated_metric(capsys, monkeypatch):
    short = dataclasses.replace(workloads.WORKLOADS["stamp-pinned-k2"], quality_trials=5)
    monkeypatch.setitem(workloads.WORKLOADS, short.name, short)
    monkeypatch.setattr(run, "SETUP_PROBES", 2)
    assert run.main(["--workload", short.name, "--seed", "1", "--seconds", "0.2"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= short.quality_trials
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stamp-pinned-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
