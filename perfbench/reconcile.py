"""Off-benchmark check of the per-cell baseline recorded in ROADMAP.md.

    python3 perfbench/reconcile.py

Runs the three pinned cells the ROADMAP baseline quotes (stap2 k=10,
stamp k=10, stamp k=20) for the ROADMAP's 10 trials at master seed 1 with
the benchmark's trial loop, and prints mean and median ms per trial and
budget hits.  It is not a gated workload: stamp k=20 takes about 12 s per
trial.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

CELLS = (("stap2", 10), ("stamp", 10), ("stamp", 20))
TRIALS = 10
MASTER_SEED = 1


def main() -> int:
    print(f"{'cell':16s} {'trials':>6s} {'mean ms':>10s} {'p50 ms':>10s} {'budget':>6s} {'failed':>6s}")
    for scheme, k in CELLS:
        cell = workloads.Workload(f"{scheme}-pinned-k{k}", scheme, k, True, TRIALS)
        workloads.set_up(cell)
        runner = workloads.TrialRunner(cell, MASTER_SEED)
        records = [runner.run(i) for i in range(TRIALS)]
        ms = [r.ms for r in records]
        budget = sum(r.outcome.budget_flag for r in records if r.outcome is not None)
        failed = sum(r.error is not None for r in records)
        print(f"{cell.name:16s} {len(ms):6d} {statistics.mean(ms):10.1f} "
              f"{statistics.median(ms):10.1f} {budget:6d} {failed:6d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
