"""Tests for the five end-to-end testing protocols and their accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolscreen.harness import _comp_violations
from poolscreen.matrices import BUILTIN_PROFILES, builtin_matrix
from poolscreen.model import NoiseModel, UniformLoad, generate_signal_fixed_k
from poolscreen import recovery, schemes
from poolscreen.recovery import DecoderConfig, estimate_prevalence
from poolscreen.schemes import (
    PartDiagnostic,
    SchemeConfig,
    TrialOutcome,
    partition_positive_pools,
    run_dorfman,
    run_individual,
    run_scheme,
)

NOISE = NoiseModel()
LAW = UniformLoad()


def _cfg(scheme, **kw):
    return SchemeConfig(scheme=scheme, q=31, s=31, **kw)


def _support(signal):
    """The positives of a signal as an estimated support lists them."""
    return tuple(np.flatnonzero(signal).tolist())


def _positive_pools(signal, q, s):
    """Pools containing at least one true positive (noise preserves zeros)."""
    return {j // s for j in _support(signal)}


def _pool_columns(pools, s):
    out = set()
    for l in pools:
        out.update(range(l * s, (l + 1) * s))
    return out


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        SchemeConfig(scheme="threeStage", q=31, s=31)


def test_config_requires_width_31_for_coded_schemes():
    for scheme in ("stap1", "stap2", "stamp"):
        with pytest.raises(ValueError, match="needs s = 31"):
            SchemeConfig(scheme=scheme, q=10, s=20)
    SchemeConfig(scheme="dorfman", q=10, s=20)  # plain retesting takes any width


def test_config_rejects_bad_values():
    for kappa in (0, schemes.KAPPA_MAX + 1):
        with pytest.raises(ValueError, match=r"kappa must lie in \[1, 2\]"):
            _cfg("stamp", kappa=kappa)
    with pytest.raises(ValueError):
        SchemeConfig(scheme="dorfman", q=0, s=31)


def test_row_count_dispatch_whole_table():
    cfg = _cfg("stap2")
    expected = {1: 5, 2: 6, 3: 7}
    for k_hat in range(1, 32):
        assert cfg.rows_for_count(k_hat) == expected.get(k_hat, 8)


def test_pair_dispatch_table():
    cfg = _cfg("stamp")
    assert cfg.rows_for_pair(1, 1) == 9
    assert cfg.rows_for_pair(2, 1) == 10
    assert cfg.rows_for_pair(1, 2) == 10
    assert cfg.rows_for_pair(2, 2) == 11


def test_every_part_has_a_stage2_design():
    # any count estimate >= 1, and any pair of counts up to KAPPA_MAX, reads
    # through a shipped design; a part without one would have no stage 2
    for scheme in ("stap1", "stap2"):
        cfg = _cfg(scheme)
        for k_hat in range(1, 32):
            builtin_matrix(cfg.rows_for_count(k_hat), 31)
    cfg = _cfg("stamp", kappa=schemes.KAPPA_MAX)
    for ka in range(1, schemes.KAPPA_MAX + 1):
        for kb in range(1, ka + 1):
            builtin_matrix(cfg.rows_for_pair(ka, kb), 62)


def test_builtin_profile_totals():
    # pipetting arithmetic below leans on these exact ones-counts
    totals = {key: prof.total_ones for key, prof in BUILTIN_PROFILES.items()}
    assert totals == {
        (5, 31): 75,
        (6, 31): 108,
        (7, 31): 108,
        (8, 31): 108,
        (9, 62): 217,
        (10, 62): 217,
        (11, 62): 217,
    }


def test_mixed_budget_never_exceeds_separate_decoding():
    cfg = _cfg("stamp")
    for (ka, kb), rows in schemes.MIXED_ROWS_BY_PAIR.items():
        assert rows <= cfg.rows_for_count(ka) + cfg.rows_for_count(kb)


# ---------------------------------------------------------------------------
# partitioning


def test_partition_mixed_thresholds():
    # tau = 2 solo pools, then ceil((5 + 2) / 2) = 4 parts
    assert partition_positive_pools([4, 3, 2, 1, 1], kappa=2) == [(0,), (1,), (2, 3), (4,)]


def test_partition_all_below_threshold():
    assert partition_positive_pools([2, 1, 1, 1], kappa=2) == [(0, 1), (2, 3)]


def test_partition_single_pool():
    assert partition_positive_pools([3], kappa=2) == [(0,)]


def test_partition_rejects_unsorted():
    with pytest.raises(ValueError, match="non-increasing"):
        partition_positive_pools([1, 2], kappa=2)


@settings(max_examples=120, deadline=None)
@given(
    ks=st.lists(st.integers(min_value=1, max_value=8), max_size=12).map(
        lambda v: sorted(v, reverse=True)
    ),
    kappa=st.integers(min_value=1, max_value=8),
)
def test_partition_is_an_ordered_partition(ks, kappa):
    parts = partition_positive_pools(ks, kappa)
    t = len(ks)
    tau = sum(1 for k in ks if k > kappa)
    flat = [i for part in parts for i in part]
    assert flat == list(range(t))  # disjoint, covering, order-respecting
    assert len(parts) == math.ceil((t + tau) / 2)
    assert all(len(part) <= 2 for part in parts)
    for idx, part in enumerate(parts):
        if idx < tau:
            assert part == (idx,) and ks[idx] > kappa
        else:
            assert all(ks[i] <= kappa for i in part)
    # only the final part may be an unpaired leftover
    for part in parts[tau:-1]:
        assert len(part) == 2


# ---------------------------------------------------------------------------
# individual and Dorfman


def test_individual_exact_recovery():
    rng = np.random.default_rng(7)
    signal = generate_signal_fixed_k(961, 10, LAW, rng)
    out = run_individual(signal, NOISE, rng)
    assert out.estimated_support == _support(signal)
    assert out.measurements_total == out.measurements_stage1 == 961
    assert out.measurements_stage2 == 0
    assert out.pipetting_ops == 961
    assert not out.budget_flag


def test_individual_all_zero():
    rng = np.random.default_rng(0)
    out = run_individual(np.zeros(50), NOISE, rng)
    assert out.estimated_support == ()
    assert out.measurements_total == 50


def test_dorfman_all_zero():
    rng = np.random.default_rng(0)
    out = run_dorfman(np.zeros(961), _cfg("dorfman"), NOISE, rng)
    assert out.estimated_support == ()
    assert out.measurements_total == 31
    assert out.pipetting_ops == 961


def test_dorfman_exact_recovery_and_accounting():
    cfg = _cfg("dorfman")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        signal = generate_signal_fixed_k(961, 10, LAW, rng)
        out = run_dorfman(signal, cfg, NOISE, rng)
        t = len(_positive_pools(signal, cfg.q, cfg.s))
        assert out.estimated_support == _support(signal)  # no false calls either way
        assert out.measurements_total == cfg.q + t * cfg.s
        assert out.measurements_stage1 == cfg.q
        assert out.pipetting_ops == cfg.q * cfg.s + t * cfg.s


def _expected_dorfman_mean(n, q, s, k):
    """Exact E[m] for k positives placed uniformly: q + s * q * P(pool hit)."""
    p_empty = math.comb(n - s, k) / math.comb(n, k)
    return q + s * q * (1.0 - p_empty)


def test_dorfman_mean_matches_combinatorial_oracle():
    cfg = _cfg("dorfman")
    rng = np.random.default_rng(20260822)
    total = 0
    trials = 1000
    for _ in range(trials):
        signal = generate_signal_fixed_k(961, 10, LAW, rng)
        total += run_dorfman(signal, cfg, NOISE, rng).measurements_total
    exact = _expected_dorfman_mean(961, 31, 31, 10)
    assert abs(total / trials - exact) < 5.0  # ~3 standard errors of the mean


def test_signal_length_mismatch_raises():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="signal length"):
        run_dorfman(np.zeros(100), _cfg("dorfman"), NOISE, rng)


def _bad_signal(kind):
    values = np.zeros(961)
    values[[3, 40]] = [500.0, 700.0]
    if kind == "nan":
        # pool 0 would read nan, which no positive test passes
        values[5] = np.nan
    elif kind == "inf":
        values[5] = np.inf
    elif kind == "negative":
        values[5] = -1.0
    elif kind == "length":
        values = values[:930]
    elif kind == "2d":
        values = values.reshape(31, 31)
    return values


@pytest.mark.parametrize("kind", ["nan", "inf", "negative", "length", "2d"])
@pytest.mark.parametrize("scheme", schemes.SCHEME_NAMES)
def test_bad_signal_raises_before_any_reading(scheme, kind):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="signal"):
        run_scheme(_bad_signal(kind), _cfg(scheme), NOISE, rng)
    if scheme == "individual" and kind != "length":
        # called directly it has no config, so no length to check against
        with pytest.raises(ValueError, match="signal"):
            run_individual(_bad_signal(kind), NOISE, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# coded two-stage schemes


def test_stap1_budget_arithmetic():
    cfg = _cfg("stap1")
    rng = np.random.default_rng(3)
    signal = generate_signal_fixed_k(961, 4, LAW, rng)
    out = run_scheme(signal, cfg, NOISE, rng)
    t = len(_positive_pools(signal, cfg.q, cfg.s))
    assert t >= 1
    assert out.measurements_total == cfg.q + 6 * t
    assert out.pipetting_ops == cfg.q * cfg.s + 108 * t
    assert all(d.stage2_rows == 6 for d in out.diagnostics)
    assert len(out.diagnostics) == t


def test_stap2_rows_follow_count_estimates():
    cfg = _cfg("stap2")
    rng = np.random.default_rng(11)
    signal = generate_signal_fixed_k(961, 6, LAW, rng)
    out = run_scheme(signal, cfg, NOISE, rng)
    assert out.diagnostics
    for diag in out.diagnostics:
        assert diag.stage2_rows == cfg.rows_for_count(diag.k_hats[0])
    assert out.measurements_stage2 == sum(d.stage2_rows for d in out.diagnostics)
    assert out.measurements_total == cfg.q + out.measurements_stage2


def test_adaptive_estimates_stay_inside_positive_pools():
    rng = np.random.default_rng(5)
    signal = generate_signal_fixed_k(961, 5, LAW, rng)
    allowed = _pool_columns(_positive_pools(signal, 31, 31), 31)
    for scheme in ("stap1", "stap2", "stamp"):
        out = run_scheme(signal, _cfg(scheme), NOISE, np.random.default_rng(99))
        assert set(out.estimated_support) <= allowed


def test_adaptive_recovery_smoke():
    cfg = _cfg("stap2")
    hits = 0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        signal = generate_signal_fixed_k(961, 2, LAW, rng)
        out = run_scheme(signal, cfg, NOISE, rng)
        hits += out.estimated_support == _support(signal)
    assert hits >= 2  # list decoding tolerates an occasional extra candidate


def test_stamp_partition_structure():
    cfg = _cfg("stamp")
    rng = np.random.default_rng(17)
    signal = generate_signal_fixed_k(961, 10, LAW, rng)
    out = run_scheme(signal, cfg, NOISE, rng)
    seen = [l for d in out.diagnostics for l in d.pools]
    assert sorted(seen) == sorted(_positive_pools(signal, cfg.q, cfg.s))
    # pairs carry only sparse pools; solo parts are heavy or the odd leftover
    for idx, diag in enumerate(out.diagnostics):
        if len(diag.pools) == 2:
            assert all(k <= cfg.kappa for k in diag.k_hats)
            assert diag.stage2_rows == cfg.rows_for_pair(*diag.k_hats)
        else:
            last = idx == len(out.diagnostics) - 1
            assert diag.k_hats[0] > cfg.kappa or last
            assert diag.stage2_rows == cfg.rows_for_count(diag.k_hats[0])
    assert out.measurements_stage2 == sum(d.stage2_rows for d in out.diagnostics)


def _two_pool_signal():
    """Pool 0 holds two heavy positives (sum 1500 forces k-hat 2); pool 5 one.

    The two loads differ so the positive readings carry three distinct
    levels; equal loads would leave genuinely interchangeable column pairs.
    """
    values = np.zeros(961)
    values[0] = 600.0
    values[1] = 900.0
    values[5 * 31] = 500.0
    return values


def test_stamp_pairs_sparse_pools():
    cfg = _cfg("stamp")
    out = run_scheme(_two_pool_signal(), cfg, NOISE, np.random.default_rng(2))
    assert len(out.diagnostics) == 1
    diag = out.diagnostics[0]
    assert diag.pools == (0, 5)  # descending count estimates
    assert diag.k_hats == (2, 1)
    assert diag.stage2_rows == 10
    # stage-1 readings are reused by the decoder, not measured again
    assert out.measurements_total == 31 + 10
    assert out.estimated_support == (0, 1, 155)


def test_stamp_single_pool_uses_solo_table():
    values = np.zeros(961)
    values[40] = 700.0
    out = run_scheme(values, _cfg("stamp"), NOISE, np.random.default_rng(4))
    assert len(out.diagnostics) == 1
    assert out.diagnostics[0].pools == (1,)
    assert out.measurements_stage2 == 5
    assert out.estimated_support == (40,)


def test_all_pools_negative_short_circuits():
    for scheme in ("stap1", "stap2", "stamp"):
        out = run_scheme(np.zeros(961), _cfg(scheme), NOISE, np.random.default_rng(0))
        assert out.measurements_total == 31
        assert out.estimated_support == ()
        assert out.diagnostics == ()


def test_one_count_call_per_trial_with_a_positive_pool(monkeypatch):
    # every positive pool's reading goes to one call; no positive pool, no call
    calls = []

    def counted(z, *args):
        calls.append(z.tolist())
        return recovery.estimate_pool_count(z, *args)

    monkeypatch.setattr(schemes, "estimate_pool_count", counted)
    signal = generate_signal_fixed_k(961, 5, LAW, np.random.default_rng(5))
    t = len(_positive_pools(signal, 31, 31))
    for scheme in ("stap1", "stap2", "stamp"):
        calls.clear()
        run_scheme(np.zeros(961), _cfg(scheme), NOISE, np.random.default_rng(0))
        assert calls == []
        run_scheme(signal, _cfg(scheme), NOISE, np.random.default_rng(0))
        assert len(calls) == 1 and len(calls[0]) == t


def test_pinned_matrices_reproduce_exactly():
    cfg = _cfg("stap2", pin_builtin_matrices=True)
    rng1 = np.random.default_rng(8)
    signal = generate_signal_fixed_k(961, 3, LAW, rng1)
    out1 = run_scheme(signal, cfg, NOISE, np.random.default_rng(55))
    out2 = run_scheme(signal, cfg, NOISE, np.random.default_rng(55))
    assert out1 == out2


@settings(max_examples=60, deadline=None)
@given(
    scheme=st.sampled_from(["stap1", "stap2", "stamp"]),
    q=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=0, max_value=6),
    kappa=st.integers(min_value=1, max_value=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_whole_trial_invariants(scheme, q, k, kappa, seed):
    # small q makes every pool positive often
    cfg = SchemeConfig(scheme=scheme, q=q, s=31, kappa=kappa, pin_builtin_matrices=True)
    rng = np.random.default_rng(seed)
    signal = generate_signal_fixed_k(cfg.n, min(k, cfg.n), LAW, rng)
    out = run_scheme(signal, cfg, NOISE, rng)
    assert _comp_violations(signal, out, cfg.s) == 0
    kept = {c for d in out.diagnostics for c in d.survivors}
    assert set(out.estimated_support) <= kept
    rows = [d.stage2_rows for d in out.diagnostics]
    assert out.measurements_total == cfg.q + sum(rows)
    ones = sum(
        int(builtin_matrix(d.stage2_rows, cfg.s * len(d.pools)).sum()) for d in out.diagnostics
    )
    assert out.pipetting_ops == cfg.n + ones


def test_stamp_mixed_budget_hit():
    capped = DecoderConfig(enumeration_cap=1)
    cfg = _cfg("stamp", decoder=capped)
    out = run_scheme(_two_pool_signal(), cfg, NOISE, np.random.default_rng(2))
    [diag] = out.diagnostics
    assert diag.pools == (0, 5)
    assert diag.budget_hit and diag.scored_subsets == 1
    assert out.budget_flag


def test_parts_decode_through_the_name_for_their_kind(monkeypatch):
    # a traced run wraps the two names on schemes apart to split single-pool
    # decodes from mixed ones, so each part must look its name up at call time
    calls = []

    def spy(kind):
        def decode(*args):
            calls.append(kind)
            return recovery.map_list_decode(*args)
        return decode

    monkeypatch.setattr(schemes, "map_list_decode", spy("single"))
    monkeypatch.setattr(schemes, "map_list_decode_mixed", spy("mixed"))
    run_scheme(_two_pool_signal(), _cfg("stamp"), NOISE, np.random.default_rng(2))
    values = np.zeros(961)
    values[40] = 700.0
    run_scheme(values, _cfg("stamp"), NOISE, np.random.default_rng(4))
    assert calls == ["mixed", "single"]


def test_run_scheme_dispatch():
    signal = generate_signal_fixed_k(961, 1, LAW, np.random.default_rng(1))
    for scheme in ("individual", "dorfman", "stap1", "stap2", "stamp"):
        out = run_scheme(signal, _cfg(scheme), NOISE, np.random.default_rng(9))
        assert isinstance(out, TrialOutcome)
        assert out.estimated_support == _support(signal)


# ---------------------------------------------------------------------------
# edge cases of decoding


@pytest.mark.parametrize("scheme", ["stap2", "stamp"])
def test_every_pool_positive_still_decodes(scheme):
    # t = q: the maximum-likelihood prevalence would be 1, which leaves every
    # support short of all the survivors with prior zero
    values = np.zeros(62)
    values[[4, 40]] = [300.0, 520.0]
    cfg = SchemeConfig(scheme=scheme, q=2, s=31, pin_builtin_matrices=True)
    out = run_scheme(values, cfg, NOISE, np.random.default_rng(3))
    assert out.estimated_support == (4, 40)


def test_prevalence_bounded_only_when_every_pool_is_positive():
    cfg = _cfg("stap2")
    for t in range(cfg.q):
        assert schemes._prevalence(cfg, t) == estimate_prevalence(t, cfg.q, cfg.s)
    assert schemes._prevalence(cfg, cfg.q - 1) < schemes._prevalence(cfg, cfg.q) < 1.0


def test_no_survivors_decodes_to_nothing(monkeypatch):
    # a positive stage-1 reading whose stage-2 readings are all zero: every
    # column of the 6 x 31 design sits in some row, so none survives, which
    # noise alone never does
    cfg = _cfg("stap2", pin_builtin_matrices=True)
    read = schemes._Meter.read

    def stage2_zero(meter, y):
        z = read(meter, y)
        return z if meter.count == cfg.q else np.zeros_like(z)

    monkeypatch.setattr(schemes._Meter, "read", stage2_zero)
    values = np.zeros(961)
    values[[0, 1]] = [600.0, 900.0]  # one pool, count estimate 2
    out = run_scheme(values, cfg, NOISE, np.random.default_rng(2))
    assert out.estimated_support == ()
    (diag,) = out.diagnostics
    assert diag.k_hats == (2,) and diag.stage2_rows == 6
    assert diag.survivors == () and diag.scored_subsets == 0
    assert diag.converged
    assert out.measurements_stage2 == 6


def test_diagnostic_reports_optimizer_convergence(monkeypatch):
    values = np.zeros(961)
    values[[0, 1]] = [600.0, 900.0]  # one pool, count estimate 2
    signal = values
    out = run_scheme(signal, _cfg("stap2"), NOISE, np.random.default_rng(2))
    assert [d.converged for d in out.diagnostics] == [True]
    assert out.diagnostics[0].survivors != ()
    monkeypatch.setattr(recovery, "_NEWTON_ITERS", 1)
    out = run_scheme(signal, _cfg("stap2"), NOISE, np.random.default_rng(2))
    assert [d.converged for d in out.diagnostics] == [False]
