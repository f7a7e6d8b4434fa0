"""Binary sensing matrices: weight-profile ensembles, profile checks, file I/O.

A design is a read-only 2-D uint8 numpy array of zeros and ones.
Stage-2 pooling matrices are sampled from fixed row/column weight profiles.
Every profile asks for distinct columns (two samples with one row pattern
cannot be told apart) and distinct rows (a repeated row is a wasted test).
A profile that asks for every pattern of its column weights (5x31 does)
fixes its column set and is drawn by a lean pass with the same stream.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "WeightProfile",
    "MatrixConstructionError",
    "MatrixParseError",
    "BUILTIN_PROFILES",
    "BUILTIN_BUILD_SEED",
    "builtin_matrix",
    "profile_sample",
    "verify_profile",
    "load_matrix",
    "save_matrix",
]


class MatrixConstructionError(RuntimeError):
    """Sampling exhausted its attempt budget, or a shipped design is corrupt."""


class MatrixParseError(ValueError):
    """Matrix file violates the exchange format; carries the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class WeightProfile:
    """The contract of a stage-2 design: its row and column weight multiplicities.

    col_weights maps a column weight to the number of columns carrying it;
    row_weights likewise for rows.  A matrix realizes the profile when its
    weights have exactly these multiplicities and its columns, and its rows,
    are pairwise distinct.  The profile checks itself once, on construction:
    weights and counts are integers, weights non-negative and counts
    positive, the ones counted column-wise equal the ones counted row-wise,
    no weight exceeds the other side's length, and no weight is asked of
    more columns (rows) than there are distinct patterns of that weight.
    """

    col_weights: dict[int, int]
    row_weights: dict[int, int]

    def __post_init__(self):
        for name in ("col_weights", "row_weights"):
            for w, c in getattr(self, name).items():
                # bool is a subclass of int, so a JSON true would otherwise pass as 1
                if any(isinstance(v, bool) or not isinstance(v, int) for v in (w, c)):
                    raise ValueError(f"{name}[{w!r}] is {c!r}; both must be integers")
                if w < 0 or c <= 0:
                    raise ValueError(f"{name}[{w}] is {c}; a weight must be >= 0, a count >= 1")
        row_ones = sum(w * c for w, c in self.row_weights.items())
        if self.total_ones != row_ones:
            raise ValueError(
                f"column ones ({self.total_ones}) and row ones ({row_ones}) disagree"
            )
        if any(w > self.m for w in self.col_weights):
            raise ValueError("a column weight exceeds the number of rows")
        if any(w > self.n for w in self.row_weights):
            raise ValueError("a row weight exceeds the number of columns")
        for name, length in (("col_weights", self.m), ("row_weights", self.n)):
            for w, c in getattr(self, name).items():
                if c > math.comb(length, w):
                    raise ValueError(
                        f"{name}[{w}] is {c}, more than the C({length}, {w}) ="
                        f" {math.comb(length, w)} distinct patterns of that weight"
                    )

    @property
    def n(self) -> int:
        return sum(self.col_weights.values())

    @property
    def m(self) -> int:
        return sum(self.row_weights.values())

    @property
    def total_ones(self) -> int:
        return sum(w * c for w, c in self.col_weights.items())


# The seven stage-2 designs shipped with the package.  Keyed by (rows, width):
# width 31 serves one pool, width 62 serves a merged pair of pools.
BUILTIN_PROFILES: dict[tuple[int, int], WeightProfile] = {
    (5, 31): WeightProfile(
        col_weights={0: 1, 1: 5, 2: 10, 3: 10, 4: 5}, row_weights={15: 5}
    ),
    (6, 31): WeightProfile(col_weights={3: 16, 4: 15}, row_weights={18: 6}),
    (7, 31): WeightProfile(col_weights={3: 16, 4: 15}, row_weights={15: 4, 16: 3}),
    (8, 31): WeightProfile(col_weights={3: 16, 4: 15}, row_weights={13: 4, 14: 4}),
    (9, 62): WeightProfile(col_weights={3: 31, 4: 31}, row_weights={23: 1, 24: 6, 25: 2}),
    (10, 62): WeightProfile(col_weights={3: 31, 4: 31}, row_weights={21: 4, 22: 5, 23: 1}),
    (11, 62): WeightProfile(col_weights={3: 31, 4: 31}, row_weights={19: 5, 20: 4, 21: 2}),
}

# Seed used to generate the shipped design files (scripts/make_builtin_matrices.py).
BUILTIN_BUILD_SEED = 1905


@lru_cache(maxsize=None)
def builtin_matrix(stage2_rows: int, pool_width: int) -> np.ndarray:
    """Load one of the shipped stage-2 designs, checking it against its profile."""
    key = (stage2_rows, pool_width)
    if key not in BUILTIN_PROFILES:
        supported = sorted(BUILTIN_PROFILES)
        raise ValueError(f"no builtin {stage2_rows}x{pool_width} design; have {supported}")
    ref = resources.files("poolscreen").joinpath(f"data/design_{stage2_rows}x{pool_width}.txt")
    with resources.as_file(ref) as path:
        mat = load_matrix(path)
    ok, report = verify_profile(mat, BUILTIN_PROFILES[key])
    if not ok:
        raise MatrixConstructionError(f"shipped design {key} is corrupt: {report}")
    return mat


# ---------------------------------------------------------------------------
# profile sampling


def _gale_ryser_feasible(caps, rest_counts: dict[int, int]) -> bool:
    # bipartite degree sequences (caps >= 0; remaining column weights) admit a
    # 0/1 matrix iff the sums agree and every prefix of the sorted caps is
    # dominated: sum_{i<=j} r_i <= sum_c min(w_c, j).  From j = max w_c on the
    # right side is the total, which no prefix of non-negative caps exceeds.
    live = [(w, cnt) for w, cnt in rest_counts.items() if cnt]
    if sum(caps) != sum(w * cnt for w, cnt in live):
        return False
    r = sorted(caps, reverse=True)
    prefix = 0
    for j in range(1, min(len(r), max((w for w, _ in live), default=0)) + 1):
        prefix += r[j - 1]
        if prefix > sum(cnt * min(w, j) for w, cnt in live):
            return False
    return True


@lru_cache(maxsize=None)
def _row_patterns(m: int, w: int):
    """All w-subsets of m rows: as tuples and as an index array."""
    combos = list(itertools.combinations(range(m), w))
    idx = np.array(combos, dtype=np.intp).reshape(len(combos), w)
    return combos, idx


def _has_duplicate_rows(entries: np.ndarray) -> bool:
    """True when two rows of a 2-D array are equal (pass .T for columns)."""
    return len({row.tobytes() for row in entries}) != entries.shape[0]


# restarts profile_sample makes before it gives up
_MAX_ATTEMPTS = 10_000


def profile_sample(profile: WeightProfile, rng: np.random.Generator) -> np.ndarray:
    """Sample a profile.m x profile.n matrix realizing `profile`, uniformly-ish.

    Columns are filled one at a time, heaviest first, choosing each column's
    rows with probability proportional to the product of remaining row
    capacities among the patterns no column of that weight uses yet.  A
    Gale-Ryser check prunes placements that strand the residual degree
    sequence; dead ends and duplicate rows restart the whole attempt.

    Each pattern is drawn exactly as ``rng.choice(len(weights), p=weights /
    weights.sum())`` would draw it: one ``rng.random()`` located in the
    normalized cumulative sum.  The generator's stream, and so every matrix
    a seed gives, is that of the ``Generator.choice`` formulation.

    A profile that asks for all C(m, w) patterns of each of its column
    weights, each row at its share of their ones, fixes its column set
    (_fixes_column_set; among the shipped profiles only 5x31).  The row
    capacities left are then always those of the patterns still to place,
    so every free pattern has positive weight, no Gale-Ryser check can fail
    and no attempt dead-ends or restarts: each weighted column takes
    exactly one ``rng.random()``.  _place_full_set takes them in one
    ``rng.random(count)`` call, which returns the same numbers, and repeats
    the cdf arithmetic, so it draws the same stream and the same matrices.
    """
    m, n = profile.m, profile.n
    col_weight_list = np.array(
        [w for w, cnt in sorted(profile.col_weights.items()) for _ in range(cnt)], dtype=int
    )
    row_weight_list = np.array(
        [w for w, cnt in sorted(profile.row_weights.items()) for _ in range(cnt)], dtype=int
    )

    full_set = _fixes_column_set(profile)
    last_reason = "no attempt ran"
    for _ in range(_MAX_ATTEMPTS):
        col_assigned = rng.permutation(col_weight_list)
        caps = rng.permutation(row_weight_list).tolist()
        fill_order = np.argsort(-col_assigned, kind="stable").tolist()
        col_assigned = col_assigned.tolist()
        entries = np.zeros((m, n), dtype=np.uint8)
        if full_set:
            _place_full_set(entries, caps, fill_order, col_assigned, rng)
        else:
            # columns of different weights never share a row pattern, so each
            # weight flags its own patterns, by position in _row_patterns(m, w)
            used = {w: np.zeros(len(_row_patterns(m, w)[0]), bool) for w in profile.col_weights}
            ok = True
            rest_counts = {w: cnt for w, cnt in profile.col_weights.items() if w > 0}
            for c in fill_order:
                w = col_assigned[c]
                if w > 0:
                    rest_counts[w] -= 1
                if not _place_column(entries, caps, used[w], c, w, rest_counts, rng):
                    last_reason = f"dead end placing a weight-{w} column"
                    ok = False
                    break
            if not ok:
                continue
        if _has_duplicate_rows(entries):
            last_reason = "duplicate rows"
            continue
        good, report = verify_profile(entries, profile)
        if not good:  # pragma: no cover - construction enforces the profile
            raise MatrixConstructionError(f"sampler produced an invalid matrix: {report}")
        entries.flags.writeable = False
        return entries
    raise MatrixConstructionError(
        f"gave up after {_MAX_ATTEMPTS} attempts (last failure: {last_reason})"
    )


def _fixes_column_set(profile: WeightProfile) -> bool:
    """True when `profile` asks for every pattern of each of its column
    weights and each row's weight is the ones those patterns put on it.

    Such a profile has one column set, so a sample is a column permutation
    of it.  A full column set whose row weights disagree is left to
    _place_column, which dead-ends on it and gives up.  The last test keeps
    every pattern weight sum below 2**53, where _place_full_set's integer
    sums and _place_column's float sums agree exactly.
    """
    m = profile.m
    share = sum(math.comb(m - 1, w - 1) for w in profile.col_weights if w > 0)
    return (
        all(cnt == math.comb(m, w) for w, cnt in profile.col_weights.items())
        and profile.row_weights == {share: m}
        and all(math.comb(m, w) * share**w < 2**53 for w in profile.col_weights)
    )


def _place_full_set(entries, caps, fill_order, col_assigned, rng) -> None:
    """Place a fixed column set, drawing each pattern as _place_column does.

    Each cdf is _place_column's, in Python floats: the integer weights over
    their sum, accumulated left to right and normalized by the last entry,
    which bisect does through its key.  The free patterns stay in ascending
    order, as _place_column's candidates do.
    """
    m = len(caps)
    cap = caps.__getitem__
    free: dict[int, list[int]] = {}
    rows: list[int] = []
    cols: list[int] = []
    weighted = [c for c in fill_order if col_assigned[c] > 0]
    for c, u in zip(weighted, rng.random(len(weighted)).tolist()):
        w = col_assigned[c]
        combos = _row_patterns(m, w)[0]
        pool = free.setdefault(w, list(range(len(combos))))
        weights = [math.prod(map(cap, combos[p])) for p in pool]
        total = sum(weights)
        cdf = list(itertools.accumulate(x / total for x in weights))
        last = cdf[-1]
        pattern = combos[pool.pop(bisect.bisect_right(cdf, u, key=lambda x: x / last))]
        for r in pattern:
            caps[r] -= 1
        rows += pattern
        cols += [c] * w
    entries[rows, cols] = 1


def _place_column(entries, caps, used, c, w, rest_counts, rng) -> bool:
    """Choose rows for column c among the weight-w patterns `used` leaves free.

    `caps` is the list of remaining row capacities and `used` flags the
    weight-w patterns already placed; both are updated in place, as is
    `rest_counts`, which holds the weights still to place.
    """
    if w == 0:
        # the one empty pattern; placing it draws nothing
        if used[0]:
            return False
        used[0] = True
        return True
    combos, idx = _row_patterns(len(caps), w)
    # caps never go negative, so a product is 0 exactly when a row is full
    weights = np.array(caps)[idx].prod(axis=1)
    cand = ((weights > 0) & ~used).nonzero()[0]
    weights = weights[cand].astype(float)
    while cand.shape[0]:
        # Generator.choice(len(weights), p=weights / weights.sum()), step by step
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        i = int(cdf.searchsorted(rng.random(), side="right"))
        pick = int(cand[i])
        rows = combos[pick]
        for r in rows:
            caps[r] -= 1
        if _gale_ryser_feasible(caps, rest_counts):
            entries[rows, c] = 1
            used[pick] = True
            return True
        for r in rows:
            caps[r] += 1
        cand = np.delete(cand, i)
        weights = np.delete(weights, i)
    return False


def verify_profile(mat: np.ndarray, profile: WeightProfile) -> tuple[bool, str | None]:
    """Check a matrix against a weight profile; report the first violation."""
    m, n = mat.shape
    if m != profile.m or n != profile.n:
        return False, f"matrix is {m}x{n}, profile wants {profile.m}x{profile.n}"
    col_counts = dict(Counter(mat.sum(axis=0, dtype=int).tolist()))
    if col_counts != profile.col_weights:
        return False, f"column weight multiset {col_counts} != {profile.col_weights}"
    row_counts = dict(Counter(mat.sum(axis=1, dtype=int).tolist()))
    if row_counts != profile.row_weights:
        return False, f"row weight multiset {row_counts} != {profile.row_weights}"
    if _has_duplicate_rows(mat.T):
        return False, "duplicate columns"
    if _has_duplicate_rows(mat):
        return False, "duplicate rows"
    return True, None


# ---------------------------------------------------------------------------
# file format


def save_matrix(mat: np.ndarray, path) -> None:
    """Write the exchange format: 'm n' header, then one 0/1 row per line."""
    lines = ["{} {}".format(*mat.shape)]
    for row in mat:
        lines.append(" ".join("1" if v else "0" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    """Parse the exchange format, rejecting any deviation with a line number.

    Returns the matrix as a read-only uint8 array.
    """
    text = Path(path).read_text()
    if not text.endswith("\n"):
        raise MatrixParseError(text.count("\n") + 1, "file must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise MatrixParseError(1, "empty file")
    header = lines[0].split(" ")
    # str.isdigit() alone passes digits like '²' that int() rejects
    if len(header) != 2 or not all(tok.isascii() and tok.isdigit() for tok in header):
        raise MatrixParseError(1, f"header must be 'm n', got {lines[0]!r}")
    m, n = int(header[0]), int(header[1])
    if m < 1 or n < 1:
        raise MatrixParseError(1, "dimensions must be positive")
    if len(lines) - 1 != m:
        # point at the first missing line, or the first extra one
        at = len(lines) + 1 if len(lines) - 1 < m else m + 2
        raise MatrixParseError(at, f"expected {m} rows, found {len(lines) - 1}")
    # every row is checked before anything is allocated, so a header that
    # claims more entries than the file holds fails on a line, not in numpy
    rows = [line.split(" ") for line in lines[1:]]
    for i, tokens in enumerate(rows, start=2):
        if len(tokens) != n:
            raise MatrixParseError(i, f"expected {n} entries, found {len(tokens)}")
        for j, tok in enumerate(tokens):
            if tok not in ("0", "1"):
                raise MatrixParseError(i, f"entry {j} is {tok!r}, not 0/1")
    mat = np.array(rows, dtype=np.uint8)
    mat.flags.writeable = False
    return mat
