"""Complete testing protocols, from pooling through decoding and accounting.

Five schemes share a stage-1 layout (q disjoint pools of s samples each):
individual testing skips pooling entirely, Dorfman retests positive pools
one sample at a time, and the adaptive schemes spend a small coded second
stage per positive pool (fixed-size, size-adapted, or pool-mixing).
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import BUILTIN_PROFILES, builtin_matrix, profile_sample
from .model import LoadLaw, NoiseModel, Signal, UniformLoad, apply_noise_vec
from .recovery import (
    BudgetExceeded,
    DecodeResult,
    DecoderConfig,
    PoolInstance,
    comp,
    estimate_pool_count,
    estimate_prevalence,
    map_list_decode,
    map_list_decode_mixed,
)

logger = logging.getLogger(__name__)

SCHEME_NAMES = ("individual", "dorfman", "stap1", "stap2", "stamp")


def _default_rows_by_khat() -> dict[int, int]:
    return {1: 5, 2: 6, 3: 7, 4: 8}


def _default_mixed_rows() -> dict[tuple[int, int], int]:
    return {(1, 1): 9, (2, 1): 10, (2, 2): 11}


@dataclass
class SchemeConfig:
    scheme: str
    q: int
    s: int
    stage2_rows_fixed: int = 6
    stage2_rows_by_khat: dict[int, int] = field(default_factory=_default_rows_by_khat)
    mixed_rows_by_pair: dict[tuple[int, int], int] = field(default_factory=_default_mixed_rows)
    kappa: int = 2
    pin_builtin_matrices: bool = False
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    load_law: LoadLaw = field(default_factory=UniformLoad)

    def __post_init__(self):
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.q < 1 or self.s < 1:
            raise ValueError("q and s must be positive")
        if self.kappa < 1:
            raise ValueError("kappa must be >= 1")
        if self.stage2_rows_fixed < 1:
            raise ValueError("stage2_rows_fixed must be positive")
        keys = sorted(self.stage2_rows_by_khat)
        if keys != list(range(1, len(keys) + 1)):
            raise ValueError("stage2_rows_by_khat keys must be 1..K without gaps")
        if any(v < 1 for v in self.stage2_rows_by_khat.values()):
            raise ValueError("stage-2 row counts must be positive")
        self.mixed_rows_by_pair = {
            (max(a, b), min(a, b)): v for (a, b), v in self.mixed_rows_by_pair.items()
        }
        if any(v < 1 for v in self.mixed_rows_by_pair.values()):
            raise ValueError("mixed row counts must be positive")
        if self.scheme in ("stap1", "stap2", "stamp") and self.s != 31:
            # coded stage-2 designs are defined for width-31 pools only
            raise ValueError(f"scheme {self.scheme!r} needs s = 31, got s = {self.s}")

    @property
    def n(self) -> int:
        return self.q * self.s

    def rows_for_count(self, k_hat: int) -> int:
        """Stage-2 row count for a singly decoded pool with count estimate k_hat."""
        top = max(self.stage2_rows_by_khat)
        return self.stage2_rows_by_khat[min(max(k_hat, 1), top)]

    def rows_for_pair(self, ka: int, kb: int) -> int | None:
        return self.mixed_rows_by_pair.get((max(ka, kb), min(ka, kb)))


@dataclass(frozen=True)
class StagePlan:
    """The pooling actually executed in one stage: (columns, matrix) pairs."""

    stage: int
    pools: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class PartDiagnostic:
    """Decode record for one partition part (one pool, or a mixed pair)."""

    pools: tuple[int, ...]
    k_hats: tuple[int, ...]
    stage2_rows: int
    scored_subsets: int
    budget_hit: bool
    fallback: bool = False
    survivors: tuple[int, ...] = ()  # columns kept by the support reduction
    # whether the load search behind the best candidate met its tolerance
    converged: bool = True
    # positive readings but no column survived the support reduction, so the
    # part decodes to nothing; noise never zeroes a positive pool, so only
    # real data (or a misread) gets here
    no_survivors: bool = False


@dataclass(frozen=True)
class TrialOutcome:
    estimated_support: tuple[int, ...]
    measurements_total: int
    measurements_stage1: int
    measurements_stage2: int
    pipetting_ops: int
    budget_flag: bool
    diagnostics: tuple[PartDiagnostic, ...] = ()

    def __post_init__(self):
        if self.measurements_total != self.measurements_stage1 + self.measurements_stage2:
            raise ValueError("measurement totals disagree")


def count_pipetting(plans: list[StagePlan]) -> int:
    """One pipetting operation per 1-entry of every executed sensing row."""
    return int(sum(mat.sum() for plan in plans for _, mat in plan.pools))


def partition_positive_pools(k_hats, kappa: int):
    """Split sorted pool counts into solo parts and mixed pairs.

    k_hats must be non-increasing.  The first tau pools (those with counts
    above kappa) stay alone; the rest pair up consecutively, with a final
    singleton when their number is odd.  Returns (parts, tau, r) where parts
    hold 0-based positions into k_hats and r = ceil((t + tau) / 2).
    """
    t = len(k_hats)
    if any(k_hats[i] < k_hats[i + 1] for i in range(t - 1)):
        raise ValueError("k_hats must be sorted non-increasing")
    tau = sum(1 for k in k_hats if k > kappa)
    parts: list[tuple[int, ...]] = [(i,) for i in range(tau)]
    i = tau
    while i < t:
        if i + 1 < t:
            parts.append((i, i + 1))
            i += 2
        else:
            parts.append((i,))
            i += 1
    r = math.ceil((t + tau) / 2)
    assert len(parts) == r
    return parts, tau, r


# ---------------------------------------------------------------------------
# shared stage-1 plumbing


class _Meter:
    """Counts noisy readings taken, so totals can be asserted per trial."""

    def __init__(self, noise: NoiseModel, rng: np.random.Generator):
        self.noise = noise
        self.rng = rng
        self.count = 0

    def read(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        self.count += y.shape[0]
        return apply_noise_vec(y, self.noise, self.rng)


def _check_signal(signal: Signal, cfg: SchemeConfig) -> None:
    if signal.n != cfg.n:
        raise ValueError(f"signal length {signal.n} != q*s = {cfg.n}")


def _stage1_readings(signal: Signal, cfg: SchemeConfig, meter: _Meter) -> np.ndarray:
    blocks = np.asarray(signal.values).reshape(cfg.q, cfg.s)
    return meter.read(blocks.sum(axis=1))


def _stage1_plan(cfg: SchemeConfig) -> StagePlan:
    pools = tuple(
        (np.arange(l * cfg.s, (l + 1) * cfg.s), np.ones((1, cfg.s)))
        for l in range(cfg.q)
    )
    return StagePlan(stage=1, pools=pools)


def _prevalence(cfg: SchemeConfig, t: int) -> float:
    if cfg.decoder.prevalence_mode == "known":
        return float(cfg.decoder.prevalence)
    # With every pool positive the maximum-likelihood estimate is 1, and a
    # prevalence of 1 gives every support short of all the survivors prior
    # zero, so the decoders would return nothing.  Counting half a negative
    # pool keeps the estimate below 1 there and leaves every t < q as it is.
    return estimate_prevalence(t - 0.5 if t == cfg.q else t, cfg.q, cfg.s)


def _stage2_matrix(cfg: SchemeConfig, rows: int, width: int, rng: np.random.Generator):
    if cfg.pin_builtin_matrices:
        return builtin_matrix(rows, width).entries.astype(np.float64)
    profile = BUILTIN_PROFILES[(rows, width)]
    return profile_sample(profile, rows, width, rng).entries.astype(np.float64)


# ---------------------------------------------------------------------------
# schemes


def run_individual(signal: Signal, noise: NoiseModel, rng: np.random.Generator) -> TrialOutcome:
    """Test every sample alone; positives are exactly the nonzero readings."""
    meter = _Meter(noise, rng)
    z = meter.read(np.asarray(signal.values))
    estimate = tuple(int(j) for j in np.flatnonzero(z > 0))
    n = signal.n
    plan = StagePlan(stage=1, pools=tuple((np.array([j]), np.ones((1, 1))) for j in range(n)))
    assert meter.count == n
    return TrialOutcome(
        estimated_support=estimate,
        measurements_total=n,
        measurements_stage1=n,
        measurements_stage2=0,
        pipetting_ops=count_pipetting([plan]),
        budget_flag=False,
    )


def run_dorfman(
    signal: Signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Pool once, then retest every member of each positive pool alone."""
    _check_signal(signal, cfg)
    meter = _Meter(noise, rng)
    z1 = _stage1_readings(signal, cfg, meter)
    positives = np.flatnonzero(z1 > 0)
    values = np.asarray(signal.values)
    estimate: list[int] = []
    stage2_pools = []
    for l in positives:
        cols = np.arange(l * cfg.s, (l + 1) * cfg.s)
        z = meter.read(values[cols])
        estimate.extend(int(c) for c in cols[z > 0])
        stage2_pools.extend((np.array([c]), np.ones((1, 1))) for c in cols)
    t = positives.shape[0]
    plans = [_stage1_plan(cfg), StagePlan(stage=2, pools=tuple(stage2_pools))]
    assert meter.count == cfg.q + t * cfg.s
    return TrialOutcome(
        estimated_support=tuple(sorted(estimate)),
        measurements_total=cfg.q + t * cfg.s,
        measurements_stage1=cfg.q,
        measurements_stage2=t * cfg.s,
        pipetting_ops=count_pipetting(plans),
        budget_flag=False,
    )


def _decode_single_pool(
    pool: int,
    k_hat: int,
    rows: int,
    z1_l: float,
    signal_values: np.ndarray,
    cfg: SchemeConfig,
    p: float,
    noise: NoiseModel,
    part_rng: np.random.Generator,
    meter: _Meter,
):
    """Run one pool's coded stage 2 and decode it; returns (columns, diag, pools)."""
    s = cfg.s
    cols = np.arange(pool * s, (pool + 1) * s)
    mat = _stage2_matrix(cfg, rows, s, part_rng)
    z2 = meter.read(mat @ signal_values[cols])
    decode_matrix = np.vstack([np.ones((1, s)), mat])
    readings = np.concatenate([[z1_l], z2])
    red = comp(PoolInstance(decode_matrix, readings))
    budget = False
    if red.s_star == 0:
        res = DecodeResult(estimate=(), best=None, scored_count=0, budget_exceeded=False)
    else:
        try:
            res = map_list_decode(
                red, min(k_hat, red.s_star), cfg.decoder, p, noise, cfg.load_law, rng=part_rng
            )
        except BudgetExceeded as err:
            res = err.result
            budget = True
    found = [int(cols[j]) for j in res.estimate]
    diag = _diagnostic((pool,), (k_hat,), rows, red, cols, res, budget)
    return found, diag, (cols, mat)


def _decode_mixed_pair(
    pools: tuple[int, int],
    k_hats: tuple[int, int],
    rows: int,
    z1_pair: tuple[float, float],
    signal_values: np.ndarray,
    cfg: SchemeConfig,
    p: float,
    noise: NoiseModel,
    part_rng: np.random.Generator,
    meter: _Meter,
):
    """Mix two pools into one width-2s coded read and decode them jointly."""
    s = cfg.s
    la, lb = pools
    cols = np.concatenate(
        [np.arange(la * s, (la + 1) * s), np.arange(lb * s, (lb + 1) * s)]
    )
    mat = _stage2_matrix(cfg, rows, 2 * s, part_rng)
    z2 = meter.read(mat @ signal_values[cols])
    head = np.zeros((2, 2 * s))
    head[0, :s] = 1.0
    head[1, s:] = 1.0
    decode_matrix = np.vstack([head, mat])
    readings = np.concatenate([list(z1_pair), z2])
    red = comp(PoolInstance(decode_matrix, readings))
    left = int(np.sum(red.survivors < s))
    right = red.s_star - left
    ka = max(1, min(k_hats[0], left)) if left else k_hats[0]
    kb = max(1, min(k_hats[1], right)) if right else k_hats[1]
    budget = False
    try:
        res = map_list_decode_mixed(
            red, ka, kb, cfg.decoder, p, noise, cfg.load_law, half_width=s, rng=part_rng
        )
    except BudgetExceeded as err:
        res = err.result
        budget = True
    found = [int(cols[j]) for j in res.estimate]
    diag = _diagnostic(pools, k_hats, rows, red, cols, res, budget)
    return found, diag, (cols, mat)


def _diagnostic(pools, k_hats, rows, red, cols, res: DecodeResult, budget: bool) -> PartDiagnostic:
    """The decode record of one part; cols maps decode columns to samples."""
    return PartDiagnostic(
        pools=pools,
        k_hats=k_hats,
        stage2_rows=rows,
        scored_subsets=res.scored_count,
        budget_hit=budget,
        survivors=tuple(int(cols[j]) for j in red.survivors),
        converged=res.best is None or res.best.converged,
        no_survivors=red.s_star == 0,
    )


def _run_adaptive(
    signal: Signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator, mixing: bool
) -> TrialOutcome:
    _check_signal(signal, cfg)
    meter = _Meter(noise, rng)
    z1 = _stage1_readings(signal, cfg, meter)
    positives = np.flatnonzero(z1 > 0)
    t = positives.shape[0]
    values = np.asarray(signal.values)
    if t == 0:
        assert meter.count == cfg.q
        return TrialOutcome(
            estimated_support=(),
            measurements_total=cfg.q,
            measurements_stage1=cfg.q,
            measurements_stage2=0,
            pipetting_ops=count_pipetting([_stage1_plan(cfg)]),
            budget_flag=False,
        )
    p = _prevalence(cfg, t)
    k_hats = {
        int(l): estimate_pool_count(float(z1[l]), cfg.s, p, noise, cfg.load_law)
        for l in positives
    }

    if mixing:
        # heaviest pools first; ties keep the earlier pool first
        order = sorted(positives.tolist(), key=lambda l: (-k_hats[l], l))
        parts, _, _ = partition_positive_pools([k_hats[l] for l in order], cfg.kappa)
    else:
        order = positives.tolist()
        parts = [(i,) for i in range(t)]

    estimate: list[int] = []
    diagnostics: list[PartDiagnostic] = []
    stage2_pools = []
    budget_flag = False
    for part in parts:
        part_rng = np.random.default_rng(rng.integers(0, 2**63))
        if len(part) == 1:
            pool = order[part[0]]
            k_hat = k_hats[pool]
            rows = cfg.stage2_rows_fixed if cfg.scheme == "stap1" else cfg.rows_for_count(k_hat)
            found, diag, executed = _decode_single_pool(
                pool, k_hat, rows, float(z1[pool]), values, cfg, p, noise, part_rng, meter
            )
            estimate.extend(found)
            diagnostics.append(diag)
            stage2_pools.append(executed)
            budget_flag |= diag.budget_hit
            continue
        la, lb = order[part[0]], order[part[1]]
        ka, kb = k_hats[la], k_hats[lb]
        rows = cfg.rows_for_pair(ka, kb)
        if rows is None:
            logger.warning(
                "no mixed row count for pair (%d, %d); decoding pools %d and %d separately",
                ka, kb, la, lb,
            )
            for pool, k_hat in ((la, ka), (lb, kb)):
                found, diag, executed = _decode_single_pool(
                    pool, k_hat, cfg.rows_for_count(k_hat), float(z1[pool]), values,
                    cfg, p, noise, part_rng, meter,
                )
                estimate.extend(found)
                diagnostics.append(dataclasses.replace(diag, fallback=True))
                stage2_pools.append(executed)
                budget_flag |= diag.budget_hit
            continue
        found, diag, executed = _decode_mixed_pair(
            (la, lb), (ka, kb), rows, (float(z1[la]), float(z1[lb])), values,
            cfg, p, noise, part_rng, meter,
        )
        estimate.extend(found)
        diagnostics.append(diag)
        stage2_pools.append(executed)
        budget_flag |= diag.budget_hit

    m2 = sum(d.stage2_rows for d in diagnostics)
    plans = [_stage1_plan(cfg), StagePlan(stage=2, pools=tuple(stage2_pools))]
    assert meter.count == cfg.q + m2
    return TrialOutcome(
        estimated_support=tuple(sorted(estimate)),
        measurements_total=cfg.q + m2,
        measurements_stage1=cfg.q,
        measurements_stage2=m2,
        pipetting_ops=count_pipetting(plans),
        budget_flag=budget_flag,
        diagnostics=tuple(diagnostics),
    )


def run_stap1(
    signal: Signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Two-stage scheme with a fixed-size coded second stage per positive pool."""
    return _run_adaptive(signal, cfg, noise, rng, mixing=False)


def run_stap2(
    signal: Signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Like run_stap1 but the stage-2 size adapts to each pool's count estimate."""
    return _run_adaptive(signal, cfg, noise, rng, mixing=False)


def run_stamp(
    signal: Signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Size-adaptive scheme that additionally mixes sparse pool pairs."""
    return _run_adaptive(signal, cfg, noise, rng, mixing=True)


def run_scheme(
    signal: Signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    if cfg.scheme == "individual":
        return run_individual(signal, noise, rng)
    if cfg.scheme == "dorfman":
        return run_dorfman(signal, cfg, noise, rng)
    if cfg.scheme == "stap1":
        return run_stap1(signal, cfg, noise, rng)
    if cfg.scheme == "stap2":
        return run_stap2(signal, cfg, noise, rng)
    return run_stamp(signal, cfg, noise, rng)
