"""Binary sensing matrices: weight-profile ensembles, profile checks, file I/O.

A design is a read-only 2-D uint8 numpy array of zeros and ones.
Stage-2 pooling matrices are sampled from fixed row/column weight profiles.
Every profile asks for distinct columns (two samples with one row pattern
cannot be told apart) and distinct rows (a repeated row is a wasted test).
A column-weight class that asks for every pattern of its weight is dealt
to its columns by one permutation, and a last class that takes most of its
patterns is drawn by the patterns it leaves out.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

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

    col_weights: Mapping[int, int]
    row_weights: Mapping[int, int]

    def __post_init__(self):
        for name in ("col_weights", "row_weights"):
            # a read-only copy, so no edit can escape the checks or move the hash
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
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

    def __hash__(self) -> int:
        # equality compares the mappings, so equal profiles list equal items
        return hash(tuple(tuple(sorted(d.items())) for d in (self.col_weights, self.row_weights)))

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
    flat, step = np.ascontiguousarray(entries).tobytes(), entries.shape[1] * entries.itemsize
    return len({flat[i * step:(i + 1) * step] for i in range(entries.shape[0])}) != entries.shape[0]


# restarts profile_sample makes before it gives up
_MAX_ATTEMPTS = 10_000


@lru_cache(maxsize=None)
def _layout(profile: WeightProfile):
    """A profile's derived data, built once per profile.

    Returns its column and row weight lists; its column-weight classes,
    heaviest first, as (weight, count, how, offset); and an m x P block
    holding every pattern of those weights as a column, where a class's
    patterns start at its offset, in _row_patterns order.  `how` is "full"
    when the class asks for every pattern of its weight, "left_out" for the
    last positive-weight class when it takes more than half its patterns,
    and "columns" otherwise.
    """
    m = profile.m
    col_weight_list = np.array(
        [w for w, cnt in sorted(profile.col_weights.items()) for _ in range(cnt)], dtype=int
    )
    row_weight_list = np.array(
        [w for w, cnt in sorted(profile.row_weights.items()) for _ in range(cnt)], dtype=int
    )
    last = min((w for w in profile.col_weights if w > 0), default=None)
    classes, blocks, offset = [], [], 0
    for w, cnt in sorted(profile.col_weights.items(), reverse=True):
        idx = _row_patterns(m, w)[1]
        if cnt == len(idx):
            how = "full"
        elif w == last and 2 * cnt > len(idx):
            how = "left_out"
        else:
            how = "columns"
        classes.append((w, cnt, how, offset))
        block = np.zeros((m, len(idx)), dtype=np.uint8)
        block[idx, np.arange(len(idx))[:, None]] = 1
        blocks.append(block)
        offset += len(idx)
    patterns = np.concatenate(blocks, axis=1) if blocks else np.zeros((m, 0), dtype=np.uint8)
    # every draw of the profile shares the block; the weight lists reach only
    # rng.permutation, which copies them
    patterns.flags.writeable = False
    return col_weight_list, row_weight_list, tuple(classes), patterns


def profile_sample(profile: WeightProfile, rng: np.random.Generator) -> np.ndarray:
    """Sample a profile.m x profile.n matrix realizing `profile`, uniformly-ish.

    Column weights are dealt to the columns and row weights to the rows by
    two permutations; the column-weight classes are then placed heaviest
    first, each on its columns in ascending order.  A class is placed column
    by column, each column's rows chosen with probability proportional to
    the product of remaining row capacities among the patterns no column of
    that weight uses yet, except in two cases, where the class's pattern set
    is found whole and dealt to its columns by one uniform permutation:

    - a class that asks for every pattern of its weight takes them all and
      draws none, each row giving C(m-1, w-1) of its capacity (5x31 is one
      column permutation of its fixed set; 6x31's weight-4 class is forced);
    - the last positive-weight class, when it takes more than half its
      patterns, draws the patterns it leaves out instead, by the same
      product rule on the capacities C(m-1, w-1) - cap they must cover
      (6x31 leaves out four weight-3 patterns that cover each row exactly
      twice, one of 75 such sets).

    A Gale-Ryser check prunes each drawn pattern that strands the residual
    degree sequence; dead ends, a full class that overfills a row, and
    duplicate rows restart the whole attempt.

    Each drawn pattern takes one ``rng.random()``, located in the normalized
    cumulative sum as ``rng.choice(len(weights), p=weights / weights.sum())``
    would locate it, and a whole class takes one ``rng.permutation``.  So a
    profile whose positive-weight classes are all placed column by column
    (7x31 and the 62-wide designs) draws the stream of that
    ``Generator.choice`` formulation.
    """
    col_weight_list, row_weight_list, classes, patterns = _layout(profile)
    last_reason = "no attempt ran"
    for _ in range(_MAX_ATTEMPTS):
        col_assigned = rng.permutation(col_weight_list)
        caps = rng.permutation(row_weight_list).tolist()
        fill_order = np.argsort(-col_assigned, kind="stable")
        # each column's pattern, as a column index into `patterns`
        pattern_of = np.empty(profile.n, dtype=np.intp)
        rest_counts = {w: cnt for w, cnt, _, _ in classes if w > 0}
        start = 0
        for w, cnt, how, offset in classes:
            picks = _class_patterns(caps, w, cnt, how, rest_counts, rng)
            if picks is None:
                last_reason = f"dead end placing a weight-{w} column"
                break
            pattern_of[fill_order[start:start + cnt]] = offset + picks
            start += cnt
        else:
            # np.take keeps C order, which patterns[:, pattern_of] does not
            entries = np.take(patterns, pattern_of, axis=1)
            if not _has_duplicate_rows(entries):
                good, report = verify_profile(entries, profile)
                if not good:  # pragma: no cover - construction enforces the profile
                    raise MatrixConstructionError(f"sampler produced an invalid matrix: {report}")
                entries.flags.writeable = False
                return entries
            last_reason = "duplicate rows"
    raise MatrixConstructionError(
        f"gave up after {_MAX_ATTEMPTS} attempts (last failure: {last_reason})"
    )


def _class_patterns(caps, w, count, how, rest_counts, rng):
    """The weight-w pattern of each of a class's `count` columns, or None at a dead end.

    Patterns are indices into _row_patterns(m, w), placed as _layout's `how`
    says.  `caps` holds the remaining row capacities and `rest_counts` the
    weights still to place; both are updated in place.
    """
    if w == 0:
        return np.zeros(count, dtype=np.intp)  # the one empty pattern; it draws nothing
    m = len(caps)
    total = math.comb(m, w)
    if how == "columns":
        used = np.zeros(total, bool)
        picks = []
        for _ in range(count):
            rest_counts[w] -= 1
            pick = _pick_pattern(caps, used, w, rest_counts, rng)
            if pick is None:
                return None
            picks.append(pick)
        return np.array(picks, dtype=np.intp)
    share = math.comb(m - 1, w - 1)
    rest_counts[w] = 0
    if how == "full":
        # no Gale-Ryser check: a stranded remainder fails a later pattern's
        # check or a later full class's row check, so one here only restarts sooner
        caps[:] = [c - share for c in caps]
        return rng.permutation(total) if min(caps) >= 0 else None
    # the last class to place: the patterns it leaves out put on each row
    # the ones a full class would, less that row's capacity
    out_caps = [share - c for c in caps]
    if min(out_caps) < 0:
        return None
    left_out = np.zeros(total, bool)
    for rest in range(total - count - 1, -1, -1):
        if _pick_pattern(out_caps, left_out, w, {w: rest}, rng) is None:
            return None
    caps[:] = [0] * m
    return rng.permutation(np.flatnonzero(~left_out))


def _pick_pattern(caps, used, w, rest_counts, rng):
    """Draw a weight-w pattern that `used` leaves free; None at a dead end.

    Each free pattern is drawn with probability proportional to the product
    of its rows' remaining capacities in `caps`, and kept when the remaining
    weights in `rest_counts` stay Gale-Ryser feasible.  Returns its index
    in _row_patterns(len(caps), w), with `caps` and `used` updated in place.
    """
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
            used[pick] = True
            return pick
        for r in rows:
            caps[r] += 1
        cand = np.delete(cand, i)
        weights = np.delete(weights, i)
    return None


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
