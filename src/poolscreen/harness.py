"""Monte-Carlo experiment runner: seeded trials, confusion metrics, reports.

An experiment is a grid of cells (scheme, k, alpha).  Alpha, the list
threshold, only varies for the list-decoded schemes (stap1, stap2, stamp);
individual testing and Dorfman's scheme decode nothing and get one cell per k
with alpha None, so the grid has |undecoded| * |k| + |decoded| * |k| * |alpha|
cells.  Each cell runs a fixed number of independent trials whose seeds
derive deterministically from the master seed and the cell coordinates (an
alpha of None gives the alpha bits 'none' in the seed key), so results do not
depend on execution order or thread count.  Outputs are results.csv
(4 decimals), a 2-decimal companion view, trials.jsonl, and meta.json.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .model import NoiseModel, Signal, UniformLoad, generate_signal_fixed_k
from .recovery import DecoderConfig
from .schemes import DECODED_SCHEMES, SCHEME_NAMES, SchemeConfig, TrialOutcome, run_scheme

SEED_DERIVATION = (
    "seed = splitmix64(master_seed XOR fnv1a64('{scheme}|{k}|{alpha_bits}|{trial}'))"
    " with alpha_bits the little-endian IEEE-754 hex of alpha, or 'none'"
)

# the defaults ExperimentConfig takes from the decoder and the load law
_DECODER = DecoderConfig()
_LAW = UniformLoad()


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    q: int
    s: int
    k_values: tuple[int, ...]
    trials: int
    master_seed: int
    schemes: tuple[str, ...] = SCHEME_NAMES
    alpha_values: tuple[float, ...] = (_DECODER.alpha,)
    sigma_eps: float = NoiseModel().sigma_eps
    load_lo: float = _LAW.lo
    load_hi: float = _LAW.hi
    kappa: int = 2
    k_window: int = _DECODER.k_window
    enumeration_cap: int = _DECODER.enumeration_cap
    pin_builtin_matrices: bool = False

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        alphas = tuple(self.alpha_values)
        names = ("n", "q", "s", "trials", "master_seed", "kappa", "k_window", "enumeration_cap")
        ints = [(name, getattr(self, name)) for name in names]
        ints += [(f"k_values[{i}]", k) for i, k in enumerate(self.k_values)]
        reals = [(name, getattr(self, name)) for name in ("sigma_eps", "load_lo", "load_hi")]
        reals += [(f"alpha_values[{i}]", a) for i, a in enumerate(alphas)]
        # bool is a subclass of int, so a JSON true would otherwise pass as 1
        for kind, types, values in (("an integer", int, ints), ("a number", (int, float), reals)):
            for name, value in values:
                if isinstance(value, bool) or not isinstance(value, types):
                    raise ValueError(f"{name} must be {kind}, got {value!r}")
        pin = self.pin_builtin_matrices
        if not isinstance(pin, bool):
            # any non-empty string, "false" too, would pass as true
            raise ValueError(f"pin_builtin_matrices must be a boolean, got {pin!r}")
        object.__setattr__(self, "alpha_values", tuple(float(a) for a in alphas))
        if self.q * self.s != self.n:
            raise ValueError(f"q*s = {self.q * self.s} does not match n = {self.n}")
        if self.trials < 1:
            raise ValueError("trials must be an integer >= 1")
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if any(not 0 <= k <= self.n for k in self.k_values):
            raise ValueError("every k must lie in [0, n]")
        if len(set(self.k_values)) != len(self.k_values):
            raise ValueError("duplicate k values")
        if not self.schemes:
            raise ValueError("schemes must be non-empty")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("duplicate scheme names")
        if not self.alpha_values:
            raise ValueError("alpha_values must be non-empty")
        if any(not 0.0 < a <= 1.0 for a in self.alpha_values):
            raise ValueError("alpha values must lie in (0, 1]")
        if len(set(self.alpha_values)) != len(self.alpha_values):
            raise ValueError("duplicate alpha values")
        # the noise, the load law and each scheme's settings check their own
        # values; build them once here so that a bad value fails before any trial
        self.noise()
        for name in self.schemes:
            self.scheme_config(name, self.alpha_values[0])

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - allowed)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = sorted(
            f.name
            for f in dataclasses.fields(cls)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
            and f.name not in raw
        )
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("k_values", "schemes", "alpha_values"):
            out[key] = list(out[key])
        return out

    def noise(self) -> NoiseModel:
        return NoiseModel(sigma_eps=self.sigma_eps)

    def load_law(self) -> UniformLoad:
        return UniformLoad(lo=self.load_lo, hi=self.load_hi)

    def scheme_config(self, scheme: str, alpha: float | None) -> SchemeConfig:
        decoder = DecoderConfig(
            alpha=_DECODER.alpha if alpha is None else alpha,
            k_window=self.k_window,
            enumeration_cap=self.enumeration_cap,
        )
        return SchemeConfig(
            scheme=scheme,
            q=self.q,
            s=self.s,
            kappa=self.kappa,
            pin_builtin_matrices=self.pin_builtin_matrices,
            decoder=decoder,
            load_law=self.load_law(),
        )

    def cells(self) -> list[tuple[str, int, float | None]]:
        """Grid coordinates (scheme, k, alpha); alpha varies only for decoded schemes.

        A decoded scheme (see ``DECODED_SCHEMES``) gets one cell per k and
        alpha.  An undecoded scheme (individual, dorfman) never reads the
        decoder, so it gets one cell per k with ``alpha=None``.  The grid
        therefore has |undecoded| * |k| + |decoded| * |k| * |alpha| cells.
        An alpha of ``None`` enters the trial seed key as the alpha bits
        ``'none'`` (see ``derive_trial_seed``).
        """
        out = []
        for scheme in self.schemes:
            alphas = self.alpha_values if scheme in DECODED_SCHEMES else (None,)
            for k in self.k_values:
                for alpha in alphas:
                    out.append((scheme, k, alpha))
        return out


# ---------------------------------------------------------------------------
# seeding


_M64 = (1 << 64) - 1


def _fnv1a64(data: bytes) -> int:
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & _M64
    return acc


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)

def derive_trial_seed(
    master_seed: int, scheme: str, k: int, alpha: float | None, trial_index: int
) -> int:
    alpha_bits = "none" if alpha is None else struct.pack("<d", float(alpha)).hex()
    key = f"{scheme}|{k}|{alpha_bits}|{trial_index}".encode("ascii")
    return _splitmix64((int(master_seed) & _M64) ^ _fnv1a64(key))


# ---------------------------------------------------------------------------
# scoring


@dataclass(frozen=True, slots=True)
class ConfusionCounts:
    true_pos: int
    false_pos: int
    true_neg: int
    false_neg: int

    def __post_init__(self):
        if min(self.true_pos, self.false_pos, self.true_neg, self.false_neg) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.true_pos + self.false_pos + self.true_neg + self.false_neg


def score_trial(truth: Signal, estimate) -> ConfusionCounts:
    est = {int(j) for j in estimate}
    if est and not all(0 <= j < truth.n for j in est):
        raise ValueError("estimate indices out of range")
    pos = set(truth.support)
    tp = len(pos & est)
    fp = len(est - pos)
    fn = len(pos - est)
    return ConfusionCounts(tp, fp, truth.n - tp - fp - fn, fn)


@dataclass(frozen=True)
class AggregateReport:
    scheme: str
    k: int
    alpha: float | None
    trials: int
    m_min: int
    m_max: int
    m_std: float
    m_ave: float
    sensitivity: float
    specificity: float
    npv: float
    ppv: float
    budget_flags: int


def _ratio_mean(pairs: list[tuple[int, int]]) -> float:
    """Mean of num/den over the pairs with den > 0; nan when there are none."""
    vals = [num / den for num, den in pairs if den > 0]
    return sum(vals) / len(vals) if vals else math.nan


def _aggregate_records(
    records: list[dict], scheme: str = "", k: int = 0, alpha: float | None = None
) -> AggregateReport:
    if not records:
        raise ValueError("cannot aggregate an empty trial list")
    ms = [rec["m"] for rec in records]
    m_ave = sum(ms) / len(ms)
    if len(ms) > 1:
        m_std = math.sqrt(sum((m - m_ave) ** 2 for m in ms) / (len(ms) - 1))
    else:
        m_std = 0.0
    return AggregateReport(
        scheme=scheme,
        k=k,
        alpha=alpha,
        trials=len(records),
        m_min=min(ms),
        m_max=max(ms),
        m_std=m_std,
        m_ave=m_ave,
        sensitivity=_ratio_mean([(r["tp"], r["tp"] + r["fn"]) for r in records]),
        specificity=_ratio_mean([(r["tn"], r["tn"] + r["fp"]) for r in records]),
        npv=_ratio_mean([(r["tn"], r["tn"] + r["fn"]) for r in records]),
        ppv=_ratio_mean([(r["tp"], r["tp"] + r["fp"]) for r in records]),
        budget_flags=sum(1 for r in records if r["budget"]),
    )


def aggregate(
    outcomes: list[tuple[ConfusionCounts, TrialOutcome]],
    scheme: str = "",
    k: int = 0,
    alpha: float | None = None,
) -> AggregateReport:
    """Fold per-trial confusion counts and budgets into one report row."""
    records = [
        {
            "m": out.measurements_total,
            "tp": cc.true_pos,
            "fp": cc.false_pos,
            "tn": cc.true_neg,
            "fn": cc.false_neg,
            "budget": out.budget_flag,
        }
        for cc, out in outcomes
    ]
    return _aggregate_records(records, scheme=scheme, k=k, alpha=alpha)


# ---------------------------------------------------------------------------
# trial execution


def _comp_violations(signal: Signal, outcome: TrialOutcome, s: int) -> int:
    """True positives a part's support reduction wrongly eliminated."""
    count = 0
    support = set(signal.support)
    for diag in outcome.diagnostics:
        members = set()
        for pool in diag.pools:
            members.update(range(pool * s, (pool + 1) * s))
        count += len((support & members) - set(diag.survivors))
    return count


def _run_trial(payload) -> dict:
    cfg, scheme, k, alpha, trial_index = payload
    seed = derive_trial_seed(cfg.master_seed, scheme, k, alpha, trial_index)
    rng = np.random.default_rng(seed)
    signal = generate_signal_fixed_k(cfg.n, k, cfg.load_law(), rng)
    outcome = run_scheme(signal, cfg.scheme_config(scheme, alpha), cfg.noise(), rng)
    counts = score_trial(signal, outcome.estimated_support)
    assert counts.total == cfg.n
    return {
        "scheme": scheme,
        "k": k,
        "alpha": alpha,
        "trial": trial_index,
        "seed": seed,
        "m": outcome.measurements_total,
        "m1": outcome.measurements_stage1,
        "m2": outcome.measurements_stage2,
        "pipetting": outcome.pipetting_ops,
        "budget": outcome.budget_flag,
        "tp": counts.true_pos,
        "fp": counts.false_pos,
        "tn": counts.true_neg,
        "fn": counts.false_neg,
        "comp_violations": _comp_violations(signal, outcome, cfg.s),
        # parts whose best candidate's load search hit the iteration cap
        "nonconverged": sum(not d.converged for d in outcome.diagnostics),
        "support": [int(j) for j in signal.support],
        "estimate": [int(j) for j in outcome.estimated_support],
    }


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, threads: int = 1
) -> tuple[list[AggregateReport], list[dict]]:
    """Run the whole grid; write output files when out_dir is given."""
    jobs = [
        (cfg, scheme, k, alpha, trial)
        for scheme, k, alpha in cfg.cells()
        for trial in range(cfg.trials)
    ]
    if threads > 1:
        # imported here: a one-worker run does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_run_trial, jobs, chunksize=4))
    else:
        records = [_run_trial(job) for job in jobs]

    reports = []
    for idx, (scheme, k, alpha) in enumerate(cfg.cells()):
        cell = records[idx * cfg.trials : (idx + 1) * cfg.trials]
        reports.append(_aggregate_records(cell, scheme=scheme, k=k, alpha=alpha))

    if out_dir is not None:
        write_outputs(cfg, reports, records, out_dir)
    return reports, records


# ---------------------------------------------------------------------------
# output files


def _fmt_alpha(alpha: float | None) -> str:
    return "" if alpha is None else format(alpha, "g")


def _report_row(rep: AggregateReport, places: int) -> list:
    def rate(x: float) -> str:
        return "nan" if math.isnan(x) else f"{x:.4f}"

    row = [
        rep.scheme,
        rep.k,
        _fmt_alpha(rep.alpha),
        rep.m_min,
        rep.m_max,
        f"{rep.m_std:.{places}f}",
        f"{rep.m_ave:.{places}f}",
    ]
    if places == 4:
        row += [rate(rep.sensitivity), rate(rep.specificity), rate(rep.npv), rate(rep.ppv)]
        row.append(rep.budget_flags)
    return row


def write_outputs(cfg, reports, records, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    with open(out / "results.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            "scheme,k,alpha,m_min,m_max,m_std,m_ave,"
            "sensitivity,specificity,npv,ppv,budget_flags".split(",")
        )
        for rep in reports:
            writer.writerow(_report_row(rep, places=4))

    # companion view rounded the way throughput tables are usually printed
    with open(out / "results_table1.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow("scheme,k,alpha,m_min,m_max,m_std,m_ave".split(","))
        for rep in reports:
            writer.writerow(_report_row(rep, places=2))

    with open(out / "trials.jsonl", "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    meta = {
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "seed_derivation": SEED_DERIVATION,
        "versions": {
            "poolscreen": __version__,
            "numpy": np.__version__,
        },
        "comp_violations_total": sum(rec["comp_violations"] for rec in records),
    }
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
