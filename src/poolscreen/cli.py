"""Command-line front end.

Subcommands: simulate (Monte-Carlo grids from a JSON config), matrix gen /
matrix verify (sensing-matrix tooling), decode (one instance end to end).
Exit codes: 0 success, 2 configuration or validation problem, 3 I/O problem,
4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from .harness import ExperimentConfig, run_experiment
from .matrices import (
    BUILTIN_PROFILES,
    MatrixConstructionError,
    MatrixParseError,
    WeightProfile,
    load_matrix,
    profile_sample,
    save_matrix,
    verify_profile,
)
from .model import NoiseModel, UniformLoad
from .recovery import BudgetExceeded, DecoderConfig, comp, map_list_decode

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poolscreen", description="Pooled-testing simulation and decoding."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte-Carlo experiment grid")
    sim.add_argument("--config", required=True, help="JSON experiment description")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=None, help="override master_seed")
    sim.add_argument("--threads", type=int, default=1, help="worker processes")

    matrix = sub.add_parser("matrix", help="sensing-matrix tooling")
    matrix_sub = matrix.add_subparsers(dest="matrix_command", required=True)

    gen = matrix_sub.add_parser("gen", help="sample a matrix for a weight profile")
    gen.add_argument("--profile", required=True, help="builtin name like 6x31, or a JSON file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    ver = matrix_sub.add_parser("verify", help="check a matrix file against a weight profile")
    ver.add_argument("path", help="matrix file to check")
    ver.add_argument("--profile", required=True, help="builtin name like 6x31, or a JSON file")

    dec = sub.add_parser("decode", help="decode one pooled instance")
    dec.add_argument("--matrix", required=True)
    dec.add_argument("--measurements", required=True, help="one reading per line")
    decoder, law = DecoderConfig(), UniformLoad()
    dec.add_argument("--alpha", type=float, default=decoder.alpha)
    dec.add_argument("--prevalence", type=float, default=0.05)
    dec.add_argument("--sigma-eps", type=float, default=NoiseModel().sigma_eps)
    dec.add_argument("--load-lo", type=float, default=law.lo)
    dec.add_argument("--load-hi", type=float, default=law.hi)
    dec.add_argument("--cap", type=int, default=decoder.enumeration_cap, help="enumeration budget")
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise _CliError(f"cannot read {path}: {err}", EXIT_IO) from err
    except json.JSONDecodeError as err:
        raise _CliError(f"{path} is not valid JSON: {err}", EXIT_CONFIG) from err


def _resolve_profile(spec: str) -> WeightProfile:
    match = re.fullmatch(r"(\d+)x(\d+)", spec)
    if match:
        key = (int(match.group(1)), int(match.group(2)))
        if key not in BUILTIN_PROFILES:
            known = ", ".join(f"{m}x{n}" for m, n in sorted(BUILTIN_PROFILES))
            raise _CliError(f"no builtin profile {spec}; known: {known}", EXIT_CONFIG)
        return BUILTIN_PROFILES[key]
    raw = _load_json(spec)
    fields = [f.name for f in dataclasses.fields(WeightProfile)]
    if not isinstance(raw, dict) or set(raw) != set(fields):
        raise _CliError(
            f"bad profile file {spec}: it must hold exactly the keys {' and '.join(fields)}",
            EXIT_CONFIG,
        )
    try:
        # JSON keys are strings; the counts are checked by the profile itself
        return WeightProfile(**{f: {int(k): v for k, v in raw[f].items()} for f in fields})
    except (ValueError, AttributeError) as err:
        raise _CliError(f"bad profile file {spec}: {err}", EXIT_CONFIG) from err


def _load_matrix_file(path: str) -> np.ndarray:
    try:
        return load_matrix(path)
    except OSError as err:
        raise _CliError(f"cannot read {path}: {err}", EXIT_IO) from err
    except MatrixParseError as err:
        raise _CliError(f"malformed matrix file {path}: {err}", EXIT_IO) from err


def _cmd_simulate(args) -> int:
    if args.threads < 1:
        raise _CliError(f"--threads must be at least 1, got {args.threads}", EXIT_CONFIG)
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise _CliError(f"bad config: {args.config} must hold a JSON object", EXIT_CONFIG)
    if args.seed is not None:
        raw["master_seed"] = args.seed
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except (TypeError, ValueError) as err:
        raise _CliError(f"bad config: {err}", EXIT_CONFIG) from err
    try:
        reports, _ = run_experiment(cfg, out_dir=args.out, threads=args.threads)
    except OSError as err:
        raise _CliError(f"cannot write results under {args.out}: {err}", EXIT_IO) from err
    for rep in reports:
        alpha = "-" if rep.alpha is None else format(rep.alpha, "g")
        print(
            f"{rep.scheme} k={rep.k} alpha={alpha}: "
            f"m_ave={rep.m_ave:.2f} sens={rep.sensitivity:.4f} spec={rep.specificity:.4f} "
            f"budget={rep.budget_flags}"
        )
    print(f"wrote {Path(args.out) / 'results.csv'}")
    return EXIT_OK


def _cmd_matrix_gen(args) -> int:
    if args.seed < 0:
        raise _CliError(f"--seed must be non-negative, got {args.seed}", EXIT_CONFIG)
    profile = _resolve_profile(args.profile)
    rng = np.random.default_rng(args.seed)
    try:
        mat = profile_sample(profile, rng)
    except MatrixConstructionError as err:
        raise _CliError(f"cannot realize profile: {err}", EXIT_CONFIG) from err
    try:
        save_matrix(mat, args.out)
    except OSError as err:
        raise _CliError(f"cannot write {args.out}: {err}", EXIT_IO) from err
    print(f"wrote {mat.shape[0]}x{mat.shape[1]} matrix to {args.out}")
    return EXIT_OK


def _cmd_matrix_verify(args) -> int:
    mat = _load_matrix_file(args.path)
    ok, report = verify_profile(mat, _resolve_profile(args.profile))
    if ok:
        print(f"{args.path}: OK")
        return EXIT_OK
    print(f"{args.path}: FAIL: {report}")
    return EXIT_CONFIG


def _read_measurements(path: str, expected: int) -> np.ndarray:
    try:
        with open(path) as fh:
            tokens = [line.strip() for line in fh if line.strip()]
    except OSError as err:
        raise _CliError(f"cannot read {path}: {err}", EXIT_IO) from err
    try:
        values = np.array([float(tok) for tok in tokens])
    except ValueError as err:
        raise _CliError(f"non-numeric reading in {path}: {err}", EXIT_CONFIG) from err
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        # nan would pass every later check and decode to nothing
        raise _CliError(
            f"reading {bad[0] + 1} in {path} is {tokens[bad[0]]}, not a finite number",
            EXIT_CONFIG,
        )
    if values.shape[0] != expected:
        raise _CliError(
            f"{path} holds {values.shape[0]} readings, matrix has {expected} rows",
            EXIT_CONFIG,
        )
    return values


def _cmd_decode(args) -> int:
    mat = _load_matrix_file(args.matrix)
    readings = _read_measurements(args.measurements, mat.shape[0])
    try:
        noise = NoiseModel(sigma_eps=args.sigma_eps)
        law = UniformLoad(lo=args.load_lo, hi=args.load_hi)
        reduced = comp(mat, readings)
        if not 0.0 < args.prevalence < 1.0:
            raise ValueError("prevalence must lie in (0, 1)")
        cfg = DecoderConfig(alpha=args.alpha, enumeration_cap=args.cap)
    except ValueError as err:
        raise _CliError(str(err), EXIT_CONFIG) from err
    orphans = reduced.active_rows[~reduced.sub_matrix.any(axis=1)]
    if orphans.size:
        # zeros are exact, so a positive reading must pool some survivor
        raise _CliError(
            f"reading {orphans[0] + 1} in {args.measurements} is positive, but every "
            "column it pools is cleared by a zero reading",
            EXIT_CONFIG,
        )
    try:
        decode = map_list_decode(reduced, cfg, args.prevalence, noise, law)
    except BudgetExceeded as err:
        decode = err.result
    best = decode.best
    result = {
        "survivors": [int(j) for j in reduced.survivors],
        "active_rows": [int(i) for i in reduced.active_rows],
        "estimate": list(decode.estimate),
        "best_subset": None if best is None else list(best.subset),
        "best_log_score": None if best is None else best.log_score,
        "scored_subsets": decode.scored_count,
        "budget_exceeded": decode.budget_exceeded,
    }
    print(json.dumps(result, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "matrix":
            if args.matrix_command == "gen":
                return _cmd_matrix_gen(args)
            return _cmd_matrix_verify(args)
        return _cmd_decode(args)
    except _CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except AssertionError as err:
        print(f"internal assertion failed: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
