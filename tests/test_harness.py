"""Tests for the experiment runner, aggregation, seeding, and the CLI."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poolscreen.cli import main
from poolscreen.harness import (
    AggregateReport,
    ConfusionCounts,
    ExperimentConfig,
    aggregate,
    derive_trial_seed,
    run_experiment,
    score_trial,
)
from poolscreen.matrices import builtin_matrix, save_matrix
from poolscreen.model import NoiseModel, Signal, UniformLoad, apply_noise_vec
from poolscreen.schemes import SchemeConfig, run_scheme

import dataclasses


def _mini_config(**overrides):
    base = dict(
        n=961,
        q=31,
        s=31,
        k_values=(2,),
        trials=3,
        master_seed=77,
        schemes=("individual", "dorfman", "stap2"),
        alpha_values=(0.9,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError, match="does not match"):
        _mini_config(n=960)
    with pytest.raises(ValueError, match="trials"):
        _mini_config(trials=0)
    with pytest.raises(ValueError, match="k must lie"):
        _mini_config(k_values=(2000,))
    with pytest.raises(ValueError, match="unknown scheme"):
        _mini_config(schemes=("stapler",))
    with pytest.raises(ValueError, match="duplicate"):
        _mini_config(schemes=("stamp", "stamp"))
    with pytest.raises(ValueError, match="alpha"):
        _mini_config(alpha_values=(1.2,))


def test_config_dict_round_trip():
    cfg = _mini_config()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ValueError, match="unknown config keys: colour"):
        ExperimentConfig.from_dict({**_mini_config().to_dict(), "colour": 7})
    with pytest.raises(ValueError, match="unknown config keys: delta_minus"):
        ExperimentConfig.from_dict({**_mini_config().to_dict(), "delta_minus": 0.1})
    with pytest.raises(ValueError, match="missing config keys"):
        ExperimentConfig.from_dict({"n": 961})


def test_cells_skip_alpha_for_undecoded_schemes():
    cfg = _mini_config(alpha_values=(0.9, 0.8), k_values=(2, 3))
    cells = cfg.cells()
    assert cells.count(("individual", 2, None)) == 1
    assert ("dorfman", 3, None) in cells
    assert ("stap2", 2, 0.9) in cells and ("stap2", 2, 0.8) in cells
    # undecoded schemes (individual, dorfman) x k values
    # + decoded schemes (stap2) x k values x alpha values
    assert len(cells) == 2 * 2 + 1 * 2 * 2
    undecoded = [cell for cell in cells if cell[0] in ("individual", "dorfman")]
    assert undecoded and all(alpha is None for _, _, alpha in undecoded)


# ---------------------------------------------------------------------------
# seeding


def test_seed_derivation_is_stable_and_distinct():
    seed = derive_trial_seed(77, "stamp", 10, 0.9, 0)
    assert seed == derive_trial_seed(77, "stamp", 10, 0.9, 0)  # pure function
    others = {
        derive_trial_seed(78, "stamp", 10, 0.9, 0),
        derive_trial_seed(77, "stap2", 10, 0.9, 0),
        derive_trial_seed(77, "stamp", 11, 0.9, 0),
        derive_trial_seed(77, "stamp", 10, 0.8, 0),
        derive_trial_seed(77, "stamp", 10, None, 0),
        derive_trial_seed(77, "stamp", 10, 0.9, 1),
    }
    assert seed not in others
    assert len(others) == 6
    assert all(0 <= s < 2**64 for s in others)


# ---------------------------------------------------------------------------
# scoring and aggregation


def test_score_trial_counts():
    values = np.zeros(4)
    values[0] = 5.0
    values[1] = 7.0
    truth = Signal(values)  # support {0, 1}
    counts = score_trial(truth, (1, 2))
    assert (counts.true_pos, counts.false_pos, counts.true_neg, counts.false_neg) == (
        1,
        1,
        1,
        1,
    )
    assert counts.total == 4
    perfect = score_trial(truth, (0, 1))
    assert perfect.false_neg == perfect.false_pos == 0
    empty = score_trial(truth, ())
    assert empty.false_neg == 2 and empty.true_neg == 2
    with pytest.raises(ValueError, match="out of range"):
        score_trial(truth, (9,))
    with pytest.raises(ValueError):
        ConfusionCounts(1, -1, 1, 1)


def _outcome(m):
    return __import__("poolscreen.schemes", fromlist=["TrialOutcome"]).TrialOutcome(
        estimated_support=(),
        measurements_stage1=m,
        measurements_stage2=0,
        pipetting_ops=m,
        budget_flag=False,
    )


def test_aggregate_means_and_exclusions():
    pairs = [
        (ConfusionCounts(2, 0, 8, 0), _outcome(10)),   # sens 1.0, ppv 1.0
        (ConfusionCounts(1, 1, 7, 1), _outcome(14)),   # sens 0.5, ppv 0.5
    ]
    rep = aggregate(pairs, scheme="demo", k=2, alpha=0.9)
    assert rep.sensitivity == pytest.approx(0.75)
    assert rep.specificity == pytest.approx((1.0 + 7 / 8) / 2)
    assert rep.ppv == pytest.approx(0.75)
    assert rep.m_min == 10 and rep.m_max == 14
    assert rep.m_ave == pytest.approx(12.0)
    assert rep.m_std == pytest.approx(np.std([10, 14], ddof=1))
    # an all-negative trial contributes no sensitivity or ppv sample
    with_empty = pairs + [(ConfusionCounts(0, 0, 10, 0), _outcome(10))]
    rep2 = aggregate(with_empty)
    assert rep2.sensitivity == pytest.approx(0.75)
    assert rep2.ppv == pytest.approx(0.75)
    assert rep2.npv == pytest.approx((1.0, 7 / 8, 1.0)[0] and (1.0 + 7 / 8 + 1.0) / 3)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        aggregate([])


def test_aggregate_single_trial_has_zero_std():
    rep = aggregate([(ConfusionCounts(1, 0, 9, 0), _outcome(10))])
    assert rep.m_std == 0.0
    assert rep.m_min == rep.m_max == 10
    assert rep.sensitivity == 1.0


# ---------------------------------------------------------------------------
# experiment runner


def test_run_experiment_individual_single_trial(tmp_path):
    cfg = _mini_config(schemes=("individual",), trials=1, k_values=(10,))
    reports, records = run_experiment(cfg, out_dir=tmp_path)
    assert len(reports) == 1 and len(records) == 1
    rep = reports[0]
    assert rep.m_ave == 961.0 and rep.sensitivity == 1.0 and rep.specificity == 1.0
    assert records[0]["estimate"] == records[0]["support"]
    assert (tmp_path / "results.csv").exists()
    assert (tmp_path / "trials.jsonl").exists()
    assert (tmp_path / "meta.json").exists()
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["comp_violations_total"] == 0
    assert meta["config"]["n"] == 961
    header = (tmp_path / "results.csv").read_text().splitlines()[0]
    assert header == "scheme,k,alpha,m_min,m_max,m_std,m_ave,sensitivity,specificity,npv,ppv,budget_flags"


def test_run_experiment_is_deterministic(tmp_path):
    cfg = _mini_config()
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    for name in ("results.csv", "results_table1.csv", "trials.jsonl", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_experiment_thread_count_does_not_change_results(tmp_path):
    cfg = _mini_config(schemes=("individual", "dorfman"), trials=4)
    run_experiment(cfg, out_dir=tmp_path / "serial", threads=1)
    run_experiment(cfg, out_dir=tmp_path / "pooled", threads=2)
    assert (tmp_path / "serial" / "results.csv").read_bytes() == (
        tmp_path / "pooled" / "results.csv"
    ).read_bytes()
    assert (tmp_path / "serial" / "trials.jsonl").read_bytes() == (
        tmp_path / "pooled" / "trials.jsonl"
    ).read_bytes()


@pytest.mark.parametrize("scheme, pinned", [("stap2", False), ("stamp", True)])
def test_run_experiment_thread_count_does_not_change_decoded_results(tmp_path, scheme, pinned):
    # decoded schemes draw stage-2 designs (sampled or pinned) and run the
    # count posterior and the list decoder in the worker processes
    cfg = _mini_config(schemes=(scheme,), k_values=(3,), trials=4, pin_builtin_matrices=pinned)
    run_experiment(cfg, out_dir=tmp_path / "serial", threads=1)
    run_experiment(cfg, out_dir=tmp_path / "pooled", threads=2)
    for name in ("results.csv", "trials.jsonl"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "pooled" / name).read_bytes()


def test_simulate_output_is_pinned_on_a_small_grid(tmp_path):
    # simulate's output must not move unless a change means it to; digests
    # taken with numpy 2.4 on x86-64.  The grid holds 39 mixed pairs and 15
    # trials with enumeration-cap hits, in about a second
    cfg = _mini_config(
        k_values=(2, 5, 20), trials=4, master_seed=11, schemes=("stap1", "stap2", "stamp"),
        kappa=2, pin_builtin_matrices=True, k_window=2, enumeration_cap=60,
    )
    run_experiment(cfg, out_dir=tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("results.csv", "trials.jsonl")
    }
    assert digests == {
        "results.csv": "12a96086edfbac387261c9e20648c2e99e00e4fea413ca42f62c0783ac97445c",
        "trials.jsonl": "1102a6ca732834feaf62dd7ed0af2aad1b0c555e87791eae1e5b8edf00e2e245",
    }


def test_trial_records_are_self_consistent():
    cfg = _mini_config(schemes=("stap2",), trials=2, k_values=(3,))
    _, records = run_experiment(cfg)
    for rec in records:
        assert rec["tp"] + rec["fp"] + rec["tn"] + rec["fn"] == 961
        assert rec["m"] == rec["m1"] + rec["m2"]
        assert rec["comp_violations"] == 0
        assert rec["seed"] == derive_trial_seed(77, "stap2", 3, 0.9, rec["trial"])
        assert set(rec["estimate"]) <= set(range(961))


def test_trial_record_counts_nonconverged_parts(monkeypatch):
    from poolscreen import harness
    from poolscreen.schemes import PartDiagnostic

    def capped(signal, cfg, noise, rng):
        out = run_scheme(signal, cfg, noise, rng)
        diag = PartDiagnostic(pools=(0,), k_hats=(1,), stage2_rows=0, scored_subsets=1,
                              budget_hit=False)
        parts = (diag, dataclasses.replace(diag, converged=False),
                 dataclasses.replace(diag, converged=False))
        return dataclasses.replace(out, diagnostics=parts)

    cfg = _mini_config(schemes=("stap2",), trials=1, k_values=(3,))
    assert harness._run_trial((cfg, "stap2", 3, 0.9, 0))["nonconverged"] == 0
    monkeypatch.setattr(harness, "run_scheme", capped)
    assert harness._run_trial((cfg, "stap2", 3, 0.9, 0))["nonconverged"] == 2


def test_throughput_ordering_smoke():
    # tiny-grid version of the ordering the big tables show
    cfg = _mini_config(
        schemes=("individual", "dorfman", "stap2"), trials=2, k_values=(5,)
    )
    reports, _ = run_experiment(cfg)
    by_scheme = {rep.scheme: rep.m_ave for rep in reports}
    assert by_scheme["individual"] > by_scheme["dorfman"] > by_scheme["stap2"]


# ---------------------------------------------------------------------------
# CLI


def _write_config(tmp_path, **overrides):
    raw = _mini_config(**overrides).to_dict()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def test_cli_simulate_round_trip(tmp_path, capsys):
    path = _write_config(tmp_path, schemes=("individual",), trials=2, k_values=(4,))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert code == 0
    assert "individual k=4" in out
    assert (tmp_path / "run" / "results.csv").exists()


def test_cli_simulate_seed_override(tmp_path):
    path = _write_config(tmp_path, schemes=("individual",), trials=2)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 0
    assert (
        main(
            ["simulate", "--config", str(path), "--out", str(tmp_path / "y"), "--seed", "123"]
        )
        == 0
    )
    first = (tmp_path / "x" / "trials.jsonl").read_text()
    second = (tmp_path / "y" / "trials.jsonl").read_text()
    assert first != second


_GOOD = _mini_config().to_dict()


@pytest.mark.parametrize(
    "raw",
    [
        {"n": 961, "bogus": 1},
        {**_GOOD, "k_window": -1},
        {**_GOOD, "enumeration_cap": 0},
        {**_GOOD, "kappa": 0},
        {**_GOOD, "kappa": 3},
        {**_GOOD, "sigma_eps": 0.0},
        {**_GOOD, "load_lo": 1000.0, "load_hi": 1000.0},
        {**_GOOD, "trials": 2.5},
        {**_GOOD, "n": 620, "s": 20},
        {**_GOOD, "n": 961.0},
        {**_GOOD, "q": 31.0},
        {**_GOOD, "s": 31.0},
        {**_GOOD, "k_values": [2.7]},
        {**_GOOD, "trials": True},
        {**_GOOD, "master_seed": 1.5},
        {**_GOOD, "kappa": 1.5},
        {**_GOOD, "k_window": 1.5},
        {**_GOOD, "enumeration_cap": 10.5},
        {**_GOOD, "sigma_eps": math.nan},
        {**_GOOD, "sigma_eps": math.inf},
        {**_GOOD, "sigma_eps": 1e-170},
        {**_GOOD, "sigma_eps": 1e200},
        {**_GOOD, "sigma_eps": 10**200},
        {**_GOOD, "load_hi": math.inf},
        {**_GOOD, "pin_builtin_matrices": "false"},
        {**_GOOD, "sigma_eps": True},
        {**_GOOD, "load_lo": True},
        {**_GOOD, "alpha_values": [True]},
        {**_GOOD, "k_values": [2, 2]},
        {**_GOOD, "alpha_values": [0.9, 0.9]},
        [1, 2],
        "abc",
        7,
    ],
    ids=[
        "unknown_key", "k_window", "enumeration_cap", "kappa", "kappa_3", "sigma_eps", "load_box",
        "trials", "stap_width", "n_float", "q_float", "s_float", "k_float", "trials_bool",
        "master_seed_float", "kappa_float", "k_window_float", "enumeration_cap_float",
        "sigma_eps_nan", "sigma_eps_inf", "sigma_eps_underflow", "sigma_eps_overflow",
        "sigma_eps_int_overflow", "load_hi_inf", "pin_string",
        "sigma_eps_bool", "load_lo_bool", "alpha_bool", "k_duplicate", "alpha_duplicate", "list",
        "string", "number",
    ],
)
def test_cli_simulate_bad_config_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    # --seed writes into the config, so a file that holds no object is tried with it too
    for seed in [[]] if isinstance(raw, dict) else [[], ["--seed", "3"]]:
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), *seed]) == 2
        err = capsys.readouterr().err
        assert "bad config" in err
        assert isinstance(raw, dict) or "must hold a JSON object" in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_simulate_refuses_threads_below_1(tmp_path, capsys, threads):
    path = _write_config(tmp_path, schemes=("individual",), trials=2)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(path), "--out", str(out), "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_missing_file_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_cli_matrix_gen_and_verify(tmp_path, capsys):
    out = tmp_path / "mat.txt"
    assert main(["matrix", "gen", "--profile", "6x31", "--seed", "5", "--out", str(out)]) == 0
    assert main(["matrix", "verify", str(out), "--profile", "6x31"]) == 0
    assert "OK" in capsys.readouterr().out
    # a profile the matrix does not satisfy
    assert main(["matrix", "verify", str(out), "--profile", "5x31"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_matrix_gen_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["matrix", "gen", "--profile", "6x31", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_matrix_profile_file_round_trip(tmp_path, capsys):
    spec = tmp_path / "profile.json"
    spec.write_text(json.dumps({"col_weights": {"3": 16, "4": 15}, "row_weights": {"18": 6}}))
    out = tmp_path / "mat.txt"
    assert main(["matrix", "gen", "--profile", str(spec), "--seed", "5", "--out", str(out)]) == 0
    assert main(["matrix", "verify", str(out), "--profile", str(spec)]) == 0
    assert "OK" in capsys.readouterr().out
    # the file states the 6x31 builtin profile, and the same seed draws the same design
    builtin = tmp_path / "builtin.txt"
    assert main(["matrix", "gen", "--profile", "6x31", "--seed", "5", "--out", str(builtin)]) == 0
    assert out.read_bytes() == builtin.read_bytes()


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"col_weights": {"1": 2.5}, "row_weights": {"1": 2}}, "col_weights[1] is 2.5"),
        ({"col_weights": {"1": 2}, "row_weights": {"1": True}}, "row_weights[1] is True"),
        (
            {"col_weights": {"1": 2}, "row_weights": {"1": 2}, "distinct_cols": False},
            "exactly the keys col_weights and row_weights",
        ),
        ({"col_weights": {"1": 2}}, "exactly the keys col_weights and row_weights"),
        ({"col_weights": {"x": 2}, "row_weights": {"1": 2}}, "invalid literal"),
    ],
    ids=["fractional_count", "bool_count", "leftover_key", "missing_key", "bad_weight"],
)
def test_cli_matrix_bad_profile_file_exits_2(tmp_path, capsys, raw, message):
    spec = tmp_path / "profile.json"
    spec.write_text(json.dumps(raw))
    out = tmp_path / "mat.txt"
    assert main(["matrix", "gen", "--profile", str(spec), "--seed", "1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_matrix_gen_unknown_profile(tmp_path, capsys):
    out = tmp_path / "mat.txt"
    assert main(["matrix", "gen", "--profile", "99x99", "--seed", "1", "--out", str(out)]) == 2
    assert "no builtin profile" in capsys.readouterr().err


def test_cli_matrix_verify_kirkman(tmp_path, kts9):
    mat = kts9(4)
    path = tmp_path / "kirkman.txt"
    save_matrix(mat, path)
    assert main(["matrix", "verify", str(path), "--kirkman", "9,4"]) == 0
    assert main(["matrix", "verify", str(path), "--kirkman", "9,3"]) == 2


def test_cli_runs_without_scipy(tmp_path, kts9):
    # scipy is a test-only dependency: a None entry in sys.modules makes any
    # import of it fail, so the run below fails if the package needs scipy
    config = _write_config(tmp_path, schemes=("stap2",), trials=1, k_values=(3,))
    design = tmp_path / "kirkman.txt"
    save_matrix(kts9(4), design)
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from poolscreen.cli import main\n"
        "config, out, design = sys.argv[1:]\n"
        "assert main(['simulate', '--config', config, '--out', out]) == 0\n"
        "assert main(['matrix', 'verify', design, '--kirkman', '9,4']) == 0\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(config), str(tmp_path / "run"), str(design)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "results.csv").exists()


def test_cli_decode_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(6)
    mat = builtin_matrix(6, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    loads = np.zeros(31)
    loads[4] = 620.0
    readings = mat.entries.astype(float) @ loads
    noise = NoiseModel()
    readings = np.where(readings > 0, readings * noise.sample(rng, 6), 0.0)
    meas_path = tmp_path / "readings.txt"
    meas_path.write_text("\n".join(f"{v:.6f}" for v in readings) + "\n")
    code = main(
        ["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["estimate"] == [4]
    assert 4 in payload["survivors"]
    assert payload["best_subset"] == [4]
    assert payload["budget_exceeded"] is False


def _write_found_instance(tmp_path):
    """The shipped 8x31 design reading positives {3, 9, 20} at loads 120, 40, 700.

    Noise 0.07 from rng 2: 7 of the 8 readings are positive and 18 columns
    survive, so listing every support size from 1 up would pass the cap.
    """
    mat = builtin_matrix(8, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    loads = np.zeros(31)
    loads[[3, 9, 20]] = [120.0, 40.0, 700.0]
    readings = apply_noise_vec(mat.entries @ loads, NoiseModel(0.07), np.random.default_rng(2))
    meas_path = tmp_path / "readings.txt"
    meas_path.write_text("\n".join(repr(float(v)) for v in readings) + "\n")
    return ["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]


def test_cli_decode_skips_sizes_the_bound_rules_out(tmp_path, capsys):
    # sizes 4 to 18 cannot reach the list once size 3 has scored, so they are
    # never listed and the decode stays far below the cap
    assert main(_write_found_instance(tmp_path)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["survivors"]) == 18
    assert payload["budget_exceeded"] is False
    assert payload["scored_subsets"] == 294
    assert payload["estimate"] == [1, 3, 20]
    assert payload["best_subset"] == [1, 3, 20]
    assert payload["best_log_score"] == pytest.approx(-19.66214525819922, abs=1e-9)


def test_cli_decode_reports_a_budget_hit(tmp_path, capsys):
    # 6 covered pairs, then the cap binds among the 288 covered triples,
    # the size that holds the best
    argv = _write_found_instance(tmp_path)
    assert main([*argv, "--cap", "100"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget_exceeded"] is True
    assert payload["scored_subsets"] == 100
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget_exceeded"] is False
    assert payload["scored_subsets"] == 294


def test_cli_decode_length_mismatch(tmp_path, capsys):
    mat = builtin_matrix(6, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    meas_path = tmp_path / "short.txt"
    meas_path.write_text("1.0\n2.0\n")
    assert (
        main(["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]) == 2
    )
    assert "matrix has 6 rows" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_cli_decode_rejects_non_finite_reading(tmp_path, capsys, token):
    mat = builtin_matrix(5, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    meas_path = tmp_path / "readings.txt"
    meas_path.write_text(f"0\n120.5\n{token}\n0\n0\n")
    assert (
        main(["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]) == 2
    )
    captured = capsys.readouterr()
    assert f"reading 3 in {meas_path} is {token}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "flags",
    [["--sigma-eps", "nan"], ["--sigma-eps", "inf"], ["--load-hi", "inf"]],
    ids=["sigma_eps_nan", "sigma_eps_inf", "load_hi_inf"],
)
def test_cli_decode_rejects_non_finite_model_values(tmp_path, capsys, flags):
    mat = builtin_matrix(5, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    meas_path = tmp_path / "readings.txt"
    meas_path.write_text("0\n120.5\n98.0\n0\n0\n")
    argv = ["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path), *flags]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sigma_eps", ["1e-200", "1e200"], ids=["underflows", "overflows"])
def test_cli_decode_refuses_a_noise_scale_whose_square_is_not_finite_and_normal(
    tmp_path, capsys, sigma_eps
):
    mat = builtin_matrix(5, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    meas_path = tmp_path / "readings.txt"
    meas_path.write_text("0\n120.5\n98.0\n0\n0\n")
    argv = ["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]
    assert main([*argv, "--sigma-eps", sigma_eps]) == 2
    captured = capsys.readouterr()
    assert "finite square of at least" in captured.err
    assert captured.out == ""


def test_cli_decode_all_zero_readings(tmp_path, capsys):
    mat = builtin_matrix(5, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    meas_path = tmp_path / "zeros.txt"
    meas_path.write_text("0\n" * 5)
    assert (
        main(["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]) == 0
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload["estimate"] == []
    assert payload["scored_subsets"] == 0


def test_cli_decode_refuses_a_positive_reading_with_no_survivor(tmp_path, capsys):
    # every column the first row pools sits in some other row, read as zero;
    # under exact zeros nothing can explain the first reading
    mat = builtin_matrix(6, 31)
    matrix_path = tmp_path / "design.txt"
    save_matrix(mat, matrix_path)
    meas_path = tmp_path / "readings.txt"
    meas_path.write_text("500\n0\n0\n0\n0\n0\n")
    assert (
        main(["decode", "--matrix", str(matrix_path), "--measurements", str(meas_path)]) == 2
    )
    captured = capsys.readouterr()
    assert f"reading 1 in {meas_path} is positive" in captured.err
    assert captured.out == ""
