"""Complete testing protocols, from pooling through decoding and accounting.

Five schemes share a stage-1 layout (q disjoint pools of s samples each):
individual testing skips pooling entirely, Dorfman retests positive pools
one sample at a time, and the adaptive schemes spend a small coded second
stage per part: one positive pool (stap1 with a fixed row count, stap2 with
one sized by the pool's count estimate), or, in stamp, a pair of sparse pools
mixed into one read.  Every part, one pool or two, is read through one coded
matrix and decoded as one instance.
Pipetting counts one operation per 1-entry of each executed sensing row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrices import BUILTIN_PROFILES, builtin_matrix, profile_sample
from .model import NoiseModel, UniformLoad, apply_noise_vec
from .recovery import (
    BudgetExceeded,
    DecoderConfig,
    comp,
    estimate_pool_count,
    estimate_prevalence,
    map_list_decode,
)

# One decoder under two names: a solo part calls map_list_decode and a mixed
# pair map_list_decode_mixed, each looked up on this module at call time, so
# that a traced run can wrap the two names separately and split single-pool
# decodes from mixed ones.
map_list_decode_mixed = map_list_decode

SCHEME_NAMES = ("individual", "dorfman", "stap1", "stap2", "stamp")
# the schemes whose stage 2 is a coded design that a decoder reads
DECODED_SCHEMES = ("stap1", "stap2", "stamp")

# Stage-2 row counts: stap1's fixed count; a single pool's count by its count
# estimate (estimates above the largest key take the largest key's rows); and
# a mixed pair's count by its two estimates, larger first.  The table holds
# every pair of counts up to its largest, which bounds kappa.
STAP1_ROWS = 6
ROWS_BY_KHAT = {1: 5, 2: 6, 3: 7, 4: 8}
MIXED_ROWS_BY_PAIR = {(1, 1): 9, (2, 1): 10, (2, 2): 11}
KAPPA_MAX = max(ka for ka, _ in MIXED_ROWS_BY_PAIR)


@dataclass
class SchemeConfig:
    scheme: str
    q: int
    s: int
    kappa: int = 2  # pools with count estimates up to kappa pair up; 1..KAPPA_MAX
    pin_builtin_matrices: bool = False
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    load_law: UniformLoad = field(default_factory=UniformLoad)

    def __post_init__(self):
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.q < 1 or self.s < 1:
            raise ValueError("q and s must be positive")
        if not 1 <= self.kappa <= KAPPA_MAX:
            # a larger kappa would pair counts that no mixed design serves
            raise ValueError(f"kappa must lie in [1, {KAPPA_MAX}], got {self.kappa}")
        if self.scheme in DECODED_SCHEMES and self.s != 31:
            # coded stage-2 designs are defined for width-31 pools only
            raise ValueError(f"scheme {self.scheme!r} needs s = 31, got s = {self.s}")

    @property
    def n(self) -> int:
        return self.q * self.s

    def rows_for_count(self, k_hat: int) -> int:
        """Stage-2 row count for a singly decoded pool with count estimate k_hat
        (stap1 ignores the estimate)."""
        if self.scheme == "stap1":
            return STAP1_ROWS
        return ROWS_BY_KHAT[min(k_hat, max(ROWS_BY_KHAT))]

    def rows_for_pair(self, ka: int, kb: int) -> int:
        return MIXED_ROWS_BY_PAIR[(max(ka, kb), min(ka, kb))]


@dataclass(frozen=True)
class PartDiagnostic:
    """Decode record for one partition part (one pool, or a mixed pair)."""

    pools: tuple[int, ...]
    k_hats: tuple[int, ...]
    stage2_rows: int
    scored_subsets: int
    budget_hit: bool
    # never set; perfbench/tracing.py::_observe_outcome reads it, or --trace 1 fails
    fallback: bool = False
    survivors: tuple[int, ...] = ()  # columns kept by the support reduction
    # whether the load search behind the best candidate met its tolerance
    converged: bool = True


@dataclass(frozen=True, slots=True)
class TrialOutcome:
    estimated_support: tuple[int, ...]
    measurements_stage1: int
    measurements_stage2: int
    pipetting_ops: int
    budget_flag: bool
    diagnostics: tuple[PartDiagnostic, ...] = ()

    @property
    def measurements_total(self) -> int:
        return self.measurements_stage1 + self.measurements_stage2


def partition_positive_pools(k_hats, kappa: int):
    """Split sorted pool counts into solo parts and mixed pairs.

    k_hats must be non-increasing.  The first tau pools (those with counts
    above kappa) stay alone; the rest pair up consecutively, with a final
    singleton when their number is odd.  The parts hold 0-based positions
    into k_hats; with tau solo pools there are ceil((t + tau) / 2) of them.
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
    assert len(parts) == math.ceil((t + tau) / 2)
    return parts


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


def _check_signal(signal, n: int | None = None) -> np.ndarray:
    """The signal as a 1-D float array of length n (when given), every entry
    finite and >= 0.  A nan would fail every test of a reading, so its pool
    would read as negative and lose its positives without an error."""
    values = np.asarray(signal, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {values.shape}")
    if n is not None and values.shape[0] != n:
        raise ValueError(f"signal length {values.shape[0]} != q*s = {n}")
    if not np.all((values >= 0.0) & (values < math.inf)):
        raise ValueError("signal entries must be finite and >= 0")
    return values


def _stage1_readings(values: np.ndarray, cfg: SchemeConfig, meter: _Meter) -> np.ndarray:
    return meter.read(values.reshape(cfg.q, cfg.s).sum(axis=1))


def _prevalence(cfg: SchemeConfig, t: int) -> float:
    # The count posterior and the decoder take 0 < p < 1.  With every pool
    # positive the maximum-likelihood estimate is 1; counting half a negative
    # pool keeps it below 1 there and leaves every t < q as it is.  With no
    # positive pool it is 0, but then nothing is decoded.
    return estimate_prevalence(t - 0.5 if t == cfg.q else t, cfg.q, cfg.s)


def _stage2_matrix(cfg: SchemeConfig, rows: int, width: int, seed: int):
    if cfg.pin_builtin_matrices:
        return builtin_matrix(rows, width).astype(np.float64)
    rng = np.random.default_rng(seed)
    return profile_sample(BUILTIN_PROFILES[(rows, width)], rng).astype(np.float64)


# ---------------------------------------------------------------------------
# schemes


def run_individual(signal, noise: NoiseModel, rng: np.random.Generator) -> TrialOutcome:
    """Test every sample alone; positives are exactly the nonzero readings."""
    values = _check_signal(signal)
    meter = _Meter(noise, rng)
    z = meter.read(values)
    estimate = tuple(int(j) for j in np.flatnonzero(z > 0))
    n = values.shape[0]
    assert meter.count == n
    return TrialOutcome(
        estimated_support=estimate,
        measurements_stage1=n,
        measurements_stage2=0,
        pipetting_ops=n,
        budget_flag=False,
    )


def run_dorfman(
    signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Pool once, then retest every member of each positive pool alone."""
    values = _check_signal(signal, cfg.n)
    meter = _Meter(noise, rng)
    z1 = _stage1_readings(values, cfg, meter)
    positives = np.flatnonzero(z1 > 0)
    estimate: list[int] = []
    for l in positives:
        cols = np.arange(l * cfg.s, (l + 1) * cfg.s)
        z = meter.read(values[cols])
        estimate.extend(int(c) for c in cols[z > 0])
    t = positives.shape[0]
    assert meter.count == cfg.q + t * cfg.s
    return TrialOutcome(
        estimated_support=tuple(sorted(estimate)),
        measurements_stage1=cfg.q,
        measurements_stage2=t * cfg.s,
        pipetting_ops=cfg.n + t * cfg.s,
        budget_flag=False,
    )


def _run_adaptive(
    signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Stage 1, count estimates, then one coded stage 2 per part.

    stap1 and stap2 make each positive pool a part; stamp partitions them
    (partition_positive_pools) into heavy solo pools and pairs of sparse
    ones.  The count estimates choose each part's stage-2 rows and stamp's
    pairing.  Each part reads its pools' columns together through one
    rows x (|pools| * s) matrix and decodes them, with their stage-1
    readings, as one instance.  Each part draws a seed from rng; only the
    stage-2 sampler builds a generator from it, but pinned designs draw the
    seed too, so sampled and pinned runs read the same noise.
    """
    values = _check_signal(signal, cfg.n)
    meter = _Meter(noise, rng)
    z1 = _stage1_readings(values, cfg, meter)
    positives = np.flatnonzero(z1 > 0)
    t = positives.shape[0]
    s = cfg.s
    p = _prevalence(cfg, t)
    # one count estimate per positive pool; with none, p = 0 and nothing to count
    counts = estimate_pool_count(z1[positives], s, p, noise, cfg.load_law).tolist() if t else []
    k_hats = dict(zip(positives.tolist(), counts))

    if cfg.scheme == "stamp":
        # heaviest pools first; ties keep the earlier pool first
        order = sorted(positives.tolist(), key=lambda l: (-k_hats[l], l))
        parts = partition_positive_pools([k_hats[l] for l in order], cfg.kappa)
        parts = [tuple(order[i] for i in part) for part in parts]
    else:
        parts = [(l,) for l in positives.tolist()]

    estimate: list[int] = []
    diagnostics: list[PartDiagnostic] = []
    pipetting = cfg.n
    for pools in parts:
        seed = rng.integers(0, 2**63)
        part_k_hats = tuple(k_hats[l] for l in pools)
        if len(pools) == 1:
            rows, decode = cfg.rows_for_count(*part_k_hats), map_list_decode
        else:
            rows, decode = cfg.rows_for_pair(*part_k_hats), map_list_decode_mixed
        cols = np.concatenate([np.arange(l * s, (l + 1) * s) for l in pools])
        mat = _stage2_matrix(cfg, rows, cols.shape[0], seed)
        z2 = meter.read(mat @ values[cols])
        # one stage-1 row per pool, over that pool's block of columns
        decode_matrix = np.vstack([np.repeat(np.eye(len(pools)), s, axis=1), mat])
        red = comp(decode_matrix, np.concatenate([z1[list(pools)], z2]))
        try:
            res = decode(red, cfg.decoder, p, noise, cfg.load_law)
        except BudgetExceeded as err:
            res = err.result
        estimate.extend(int(cols[j]) for j in res.estimate)
        diagnostics.append(PartDiagnostic(
            pools=pools,
            k_hats=part_k_hats,
            stage2_rows=rows,
            scored_subsets=res.scored_count,
            budget_hit=res.budget_exceeded,
            survivors=tuple(int(cols[j]) for j in red.survivors),
            converged=res.best is None or res.best.converged,
        ))
        pipetting += int(mat.sum())

    m2 = sum(d.stage2_rows for d in diagnostics)
    assert meter.count == cfg.q + m2
    return TrialOutcome(
        estimated_support=tuple(sorted(estimate)),
        measurements_stage1=cfg.q,
        measurements_stage2=m2,
        pipetting_ops=pipetting,
        budget_flag=any(d.budget_hit for d in diagnostics),
        diagnostics=tuple(diagnostics),
    )


def run_scheme(
    signal, cfg: SchemeConfig, noise: NoiseModel, rng: np.random.Generator
) -> TrialOutcome:
    """Run one trial of cfg.scheme on signal, a 1-D array of q*s loads."""
    if cfg.scheme == "individual":
        # run_individual takes no config, so the length is checked here
        return run_individual(_check_signal(signal, cfg.n), noise, rng)
    if cfg.scheme == "dorfman":
        return run_dorfman(signal, cfg, noise, rng)
    return _run_adaptive(signal, cfg, noise, rng)
