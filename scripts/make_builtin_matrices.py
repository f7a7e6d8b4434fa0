"""Regenerate the stage-2 design files shipped in poolscreen/data.

Each design is sampled from its weight profile with a fixed seed so the
shipped files are reproducible from a clean checkout.  Run from anywhere:

    python scripts/make_builtin_matrices.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from poolscreen.matrices import (
    BUILTIN_BUILD_SEED,
    BUILTIN_PROFILES,
    MatrixConstructionError,
    profile_sample,
    save_matrix,
    verify_profile,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "src" / "poolscreen" / "data"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--seed", type=int, default=BUILTIN_BUILD_SEED)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    # one child stream per design so editing the list never reshuffles others
    for i, ((m, n), profile) in enumerate(sorted(BUILTIN_PROFILES.items())):
        rng = np.random.default_rng([args.seed, i])
        mat = profile_sample(profile, m, n, rng)
        ok, report = verify_profile(mat, profile)
        if not ok:
            raise MatrixConstructionError(f"sampled {m}x{n} design is invalid: {report}")
        path = args.out / f"design_{m}x{n}.txt"
        save_matrix(mat, path)
        print(f"wrote {path} ({mat.total_ones} ones)")


if __name__ == "__main__":
    main()
