"""Benchmark workloads and the closed-loop trial runner.

A trial here is exactly one trial of ``poolscreen simulate``: the same
per-trial seed (``harness.derive_trial_seed``), the same signal draw, the same
scheme run and the same scoring, with ``threads=1``.  The runner looks up
``generate_signal_fixed_k``, ``run_scheme`` and ``score_trial`` on the
``harness`` module at call time, so the tracer can wrap them where the
harness itself finds them.

Every trial is checked after its timed region; a trial that raises or fails
a check is recorded as failed, with its seed.
"""

from __future__ import annotations

import dataclasses
import time
import traceback
from dataclasses import dataclass

import numpy as np

from poolscreen import harness
from poolscreen.harness import ConfusionCounts, ExperimentConfig
from poolscreen.matrices import BUILTIN_PROFILES, builtin_matrix
from poolscreen.schemes import TrialOutcome

N, Q, S = 961, 31, 31
ALPHA = 0.9
# Master seed of the uncounted warm-up trial.  It is fixed, not taken from
# --seed, so that set-up time does not depend on which trial the seed draws.
WARM_UP_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    k: int
    pinned: bool  # shipped stage-2 designs instead of freshly sampled ones
    # The quality figures are taken over trials 0 .. quality_trials - 1, which
    # every run reaches, so they do not depend on how fast the program is.
    quality_trials: int


# Why these two, and why the heavier cells are left out: perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # the only workload that samples stage-2 designs; single-pool decoding
        Workload("stap2-sampled-k5", "stap2", 5, False, 800),
        # one mixed pair of pools per trial, and no design sampling
        Workload("stamp-pinned-k2", "stamp", 2, True, 1600),
    )
}


def experiment_config(workload: Workload, master_seed: int, trials: int = 1) -> ExperimentConfig:
    """The one-cell ``simulate`` config this workload runs."""
    return ExperimentConfig(
        n=N,
        q=Q,
        s=S,
        k_values=(workload.k,),
        trials=trials,
        master_seed=master_seed,
        schemes=(workload.scheme,),
        alpha_values=(ALPHA,),
        pin_builtin_matrices=workload.pinned,
    )


@dataclass
class TrialRecord:
    index: int
    seed: int
    ms: float  # wall time of signal draw, scheme run and scoring
    counts: ConfusionCounts | None = None
    outcome: TrialOutcome | None = None
    error: str | None = None  # exception or failed check; None when the trial is good


def check_trial(cfg: ExperimentConfig, signal, outcome: TrialOutcome) -> list[str]:
    """Invariants of a decoded trial; returns the broken ones.

    The confusion counts total n and the measurement count equals q plus the
    stage-2 rows by construction, so they are not checked here; the traced run
    checks the measurement count against the readings actually drawn.
    """
    problems = []
    estimate = list(outcome.estimated_support)
    if len(set(estimate)) != len(estimate):
        problems.append(f"estimate {estimate} repeats a column")
    lost = harness._comp_violations(signal, outcome, cfg.s)
    if lost:
        problems.append(f"COMP dropped {lost} true positives")
    kept = {c for diag in outcome.diagnostics for c in diag.survivors}
    outside = set(estimate) - kept
    if outside:
        problems.append(f"estimate columns {sorted(outside)} are not COMP survivors")
    return problems


class TrialRunner:
    """Runs the trials of one workload at one master seed."""

    def __init__(self, workload: Workload, master_seed: int):
        self.workload = workload
        self.cfg = experiment_config(workload, master_seed)
        self.scheme_cfg = self.cfg.scheme_config(workload.scheme, ALPHA)
        self.noise = self.cfg.noise()
        self.law = self.cfg.load_law()

    def seed(self, index: int) -> int:
        w = self.workload
        return harness.derive_trial_seed(self.cfg.master_seed, w.scheme, w.k, ALPHA, index)

    def play(self, seed: int):
        """The timed body of one trial: draw, run the scheme, score."""
        rng = np.random.default_rng(seed)
        signal = harness.generate_signal_fixed_k(self.cfg.n, self.workload.k, self.law, rng)
        outcome = harness.run_scheme(signal, self.scheme_cfg, self.noise, rng)
        counts = harness.score_trial(signal, outcome.estimated_support)
        return signal, outcome, counts

    def run(self, index: int) -> TrialRecord:
        seed = self.seed(index)
        start = time.perf_counter()
        try:
            signal, outcome, counts = self.play(seed)
        except Exception:  # a failed trial is counted and reported, not fatal
            ms = (time.perf_counter() - start) * 1e3
            return TrialRecord(index, seed, ms, error=traceback.format_exc(limit=3))
        ms = (time.perf_counter() - start) * 1e3
        problems = check_trial(self.cfg, signal, outcome)
        # drop the per-part diagnostics once checked, so that the memory the
        # benchmark keeps does not grow with the number of trials a run fits
        outcome = dataclasses.replace(outcome, diagnostics=())
        return TrialRecord(
            index, seed, ms, counts, outcome, "; ".join(problems) if problems else None
        )

    def run_for(self, seconds: float, first: int = 0) -> list[TrialRecord]:
        """Closed loop: start trial `first`, `first` + 1, ... until `seconds` have passed."""
        records = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            records.append(self.run(first + len(records)))
        return records


def set_up(workload: Workload) -> None:
    """Load every shipped design and run one uncounted trial to fill the caches."""
    for rows, width in BUILTIN_PROFILES:
        builtin_matrix(rows, width)
    record = TrialRunner(workload, WARM_UP_SEED).run(0)
    if record.error is not None:
        raise RuntimeError(f"warm-up trial (seed {record.seed}) failed: {record.error}")
