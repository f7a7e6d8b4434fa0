"""Trial benchmark for poolscreen.

    python3 perfbench/run.py --workload stap2-sampled-k5 --seed 1 --seconds 30 --trace 0

Runs whole ``poolscreen simulate`` trials of one workload, one process, one
trial at a time, for --seconds, using the per-trial seeds ``simulate`` derives
from the master seed --seed.  With --trace 0 it reports the end-to-end
metrics, the quality figures over a fixed number of leading trials; with
--trace 1 it runs the first half of that time untraced, replays the same
trials with every layer wrapped, and reports the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
give every metric by name with its unit.  See perfbench/README.md.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before numpy and poolscreen load: set-up starts here

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 9  # fresh processes, spread over the run, whose median set-up time is reported


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="master seed of the trials")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _setup_probe(workload: str) -> float:
    """Set-up time of one fresh process: import, designs, warm-up trial."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _measure(runner, seconds: float):
    """Closed-loop trials for `seconds`, cut into slices with a set-up probe
    before each, so that the probes see the same host as the trials; then
    more trials, if needed, until the quality prefix is complete."""
    setups, records = [], []
    for _ in range(SETUP_PROBES):
        setups.append(_setup_probe(runner.workload.name))
        records += runner.run_for(seconds / SETUP_PROBES, first=len(records))
    while len(records) < runner.workload.quality_trials:
        records.append(runner.run(len(records)))
    return records, statistics.median(setups)


def _report(records) -> tuple[int, int]:
    failed = [r for r in records if r.error is not None]
    for r in failed:
        print(f"trial {r.index} (seed {r.seed}) failed: {r.error}", file=sys.stderr)
    return len(records), len(failed)


def _end_to_end(records, setup_s: float, quality_trials: int) -> dict[str, tuple[float, str]]:
    from poolscreen.harness import aggregate

    good = [r for r in records[:quality_trials] if r.error is None]
    ms = [r.ms for r in records]
    quality = aggregate([(r.counts, r.outcome) for r in good]) if good else None
    nan = float("nan")
    return {
        "trial_ms_p50": (statistics.median(ms), "ms"),
        "trial_ms_p90": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
        "trials_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "tests_per_trial": (quality.m_ave if quality else nan, "tests"),
        "sensitivity": (quality.sensitivity if quality else nan, "ratio"),
        "specificity": (quality.specificity if quality else nan, "ratio"),
        "budget_hit_rate": (quality.budget_flags / len(good) if quality else nan, "ratio"),
        "failed_trial_rate": (sum(r.error is not None for r in records) / len(records), "ratio"),
    }


# Printed but left out of the JSON result, so not gated: the rates are 0 on
# these workloads, and the median and throughput swing with the host's speed
# by more than the largest bound the gate allows (see README.md).
UNGATED = ("trial_ms_p50", "trials_per_s", "budget_hit_rate", "failed_trial_rate")


def _traced(runner, seconds: float, seed: int):
    """Untraced pass for half the time, then the same trials traced."""
    import tracing

    plain = runner.run_for(seconds / 2)
    tracer = tracing.Tracer()
    tracing.install(tracer, runner)
    try:
        traced = [runner.run(r.index) for r in plain]
    finally:
        tracer.restore()
    tracer.write(HERE / "out" / f"spans-{runner.workload.name}-{seed}.jsonl")
    for a, b in zip(plain, traced):
        if b.error is None and a.error is None and (
            a.outcome.estimated_support != b.outcome.estimated_support
            or a.outcome.measurements_total != b.outcome.measurements_total
        ):
            b.error = "traced trial differs from the untraced one"
    readings = tracer.counts["model.readings"]
    expected = sum(r.outcome.measurements_total for r in traced if r.outcome is not None)
    if readings != expected:
        traced[-1].error = f"{readings} noisy readings taken, trial records say {expected}"
    metrics = tracing.layer_metrics(tracer, len(traced))
    overhead = sum(r.ms for r in traced) / sum(r.ms for r in plain) - 1.0
    metrics["trace_overhead"] = (overhead, "ratio")
    return plain + traced, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "poolscreen" / "__init__.py").is_file():
        print(f"poolscreen sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        workloads.set_up(workload)
        print(repr(time.perf_counter() - _T0))
        return 0

    workloads.set_up(workload)
    runner = workloads.TrialRunner(workload, args.seed)
    if args.trace:
        records, metrics = _traced(runner, args.seconds, args.seed)
    else:
        records, setup_s = _measure(runner, args.seconds)
        metrics = _end_to_end(records, setup_s, workload.quality_trials)

    attempted, failed = _report(records)
    print(f"{workload.name}  seed {args.seed}  {attempted} trials  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name not in UNGATED
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
