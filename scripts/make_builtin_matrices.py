"""Regenerate the stage-2 design files shipped in poolscreen/data.

Each design is sampled from its weight profile with a fixed seed so the
shipped files are reproducible from a clean checkout.  Run from anywhere:

    python scripts/make_builtin_matrices.py [--out DIR]
"""

import argparse
from pathlib import Path

import numpy as np

from poolscreen.matrices import BUILTIN_BUILD_SEED, BUILTIN_PROFILES, profile_sample, save_matrix

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "src" / "poolscreen" / "data"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    # one child stream per design so editing the list never reshuffles others
    for i, ((m, n), profile) in enumerate(sorted(BUILTIN_PROFILES.items())):
        # profile_sample verifies what it returns against the profile
        mat = profile_sample(profile, np.random.default_rng([BUILTIN_BUILD_SEED, i]))
        path = args.out / f"design_{m}x{n}.txt"
        save_matrix(mat, path)
        print(f"wrote {path} ({int(mat.sum())} ones)")


if __name__ == "__main__":
    main()
