import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poolscreen import matrices
from poolscreen.matrices import (
    BUILTIN_PROFILES,
    MatrixConstructionError,
    MatrixParseError,
    WeightProfile,
    _gale_ryser_feasible,
    builtin_matrix,
    load_matrix,
    profile_sample,
    save_matrix,
    verify_profile,
)

EXPECTED_ONES = {
    (5, 31): 75,
    (6, 31): 108,
    (7, 31): 108,
    (8, 31): 108,
    (9, 62): 217,
    (10, 62): 217,
    (11, 62): 217,
}


# ------------------------------------------------------------- builtins


@pytest.mark.parametrize("key", sorted(BUILTIN_PROFILES))
def test_builtin_matrix_matches_profile_and_total(key):
    mat = builtin_matrix(*key)
    assert mat.shape == key
    assert mat.sum() == EXPECTED_ONES[key]
    ok, report = verify_profile(mat, BUILTIN_PROFILES[key])
    assert ok, report


def test_shipped_designs_regenerate_byte_identical(tmp_path):
    # the shipped designs are reproducible from a clean checkout: the build
    # script writes every file exactly as shipped
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_builtin_matrices.py"), "--out", str(tmp_path)],
        check=True, env=env, capture_output=True,
    )
    shipped = sorted(p.name for p in (root / "src" / "poolscreen" / "data").glob("*.txt"))
    assert sorted(p.name for p in tmp_path.iterdir()) == shipped
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (root / "src" / "poolscreen" / "data" / name).read_bytes()


def test_builtin_matrix_unknown_size():
    with pytest.raises(ValueError):
        builtin_matrix(12, 31)


def test_builtin_profile_handshakes():
    # the shipped profiles were built, and building one checks that its ones agree
    for profile in BUILTIN_PROFILES.values():
        assert sum(w * c for w, c in profile.row_weights.items()) == profile.total_ones


# ------------------------------------------------------------- sampling


def test_profile_sample_rejects_handshake_violation():
    # no profile, and so no draw, exists when the ones disagree
    with pytest.raises(ValueError, match="disagree"):
        WeightProfile(col_weights={2: 3}, row_weights={1: 3})


@pytest.mark.parametrize(
    "cols, rows, match",
    [
        ({2: 2.5}, {1: 5}, "integers"),
        ({2: True}, {1: 2}, "integers"),
        ({-1: 2}, {0: 1}, ">= 0"),
        ({1: 0}, {0: 1}, ">= 1"),
        ({2: 1, 0: 1}, {2: 1}, "exceeds the number of rows"),
        ({2: 1}, {2: 1, 0: 1}, "exceeds the number of columns"),
        ({1: 4}, {2: 2}, r"col_weights\[1\] is 4, more than the C\(2, 1\) = 2"),
        ({2: 1}, {1: 2}, r"row_weights\[1\] is 2, more than the C\(1, 1\) = 1"),
    ],
    ids=["fractional_count", "bool_count", "negative_weight", "zero_count",
         "column_weight_too_large", "row_weight_too_large", "too_many_columns_of_a_weight",
         "too_many_rows_of_a_weight"],
)
def test_weight_profile_checks_itself_on_construction(cols, rows, match):
    with pytest.raises(ValueError, match=match):
        WeightProfile(col_weights=cols, row_weights=rows)


def test_profile_sample_infeasible_distinctness_gives_up(monkeypatch):
    # degree-feasible, and no weight is asked of more columns or rows than it
    # has patterns; but six distinct weight-2 columns over 4 rows are all the
    # pairs, which put every row at weight 3
    monkeypatch.setattr(matrices, "_MAX_ATTEMPTS", 50)
    profile = WeightProfile(col_weights={2: 6}, row_weights={2: 1, 3: 2, 4: 1})
    with pytest.raises(MatrixConstructionError) as err:
        profile_sample(profile, np.random.default_rng(0))
    # the weight-2 class is full, and its share of 3 ones overfills a row
    assert str(err.value) == (
        "gave up after 50 attempts (last failure: dead end placing a weight-2 column)"
    )


def _stream_digest(mats, rng) -> str:
    """sha256 over the matrices' entries, then the generator's next 8 bytes."""
    h = hashlib.sha256()
    for mat in mats:
        h.update(mat.tobytes())
    h.update(rng.bytes(8))
    return h.hexdigest()


# Digests of the 1000 matrices test_profile_sample_always_satisfies_profile
# draws per profile at seed 2468, and of the draw after them.  They pin the
# sampler's whole random stream (which patterns it draws, and how many
# numbers it takes), not only its first matrix.
SAMPLER_STREAM_DIGESTS = {
    (5, 31): "577ae34542ca0864c38e3dd0bf8474133c2158d4d601d59f6186b9152a246c5f",
    (6, 31): "4b34710b9c5e7e59711eb9f9fa525640ff61a6d75a0b27a3e6bdf58a29405b12",
    (7, 31): "c9fe7d6b0693dd073740f8e987b05292c0507abff0525c998def001a11d795db",
    (8, 31): "9ebaba7e71c52d026b587175df52c73cd02eddee497ccdba0cda73cced94bd9e",
    (9, 62): "21177b1e37e1c1fa99a729953fa3c26e6cea44e7c4f7979b653ff9c9d00834af",
    (10, 62): "7d8f17aaea7fc3261aa321c5d0eb0c781514bcdec444416ede19ffaea72d25a0",
    (11, 62): "fb2cf60cc70c4d8f1ebf116baf3595ca8ca08d889367b5f66c30fcfe86284d1c",
}


@pytest.mark.parametrize("key", sorted(BUILTIN_PROFILES))
def test_profile_sample_always_satisfies_profile(key):
    # the sampler must never hand back a matrix violating its own profile,
    # and must keep drawing the same stream
    profile = BUILTIN_PROFILES[key]
    rng = np.random.default_rng(a_fixed := 2468)
    mats = []
    for _ in range(1000):
        mat = profile_sample(profile, rng)
        ok, report = verify_profile(mat, profile)
        assert ok, report
        mats.append(mat)
    assert _stream_digest(mats, rng) == SAMPLER_STREAM_DIGESTS[key]


# Digests of the one 21x14 matrix drawn at each seed, and of the draw after it.
WIDE_STREAM_DIGESTS = {
    0: "64224f0ff4d3c022d565270ca06327179e7b54cc7a3db3b9a571b015f76f8eeb",
    1: "ac87197ea11147078a48a805088bdc02bb77347d7adda426cdae49e4cdb45c59",
    2: "60990dd916ce2f29a186c25f09d67c4dd3c18f2143d7979fcfa1aa56b204bd6b",
    3: "67bf03feac0c6cc1a57165dfb348b3a2813b01c2e4f11b466c18f62b014a49cc",
}


@pytest.mark.parametrize("seed", sorted(WIDE_STREAM_DIGESTS))
def test_profile_sample_more_than_20_rows(seed):
    # the used row patterns are flagged per column weight, by their position
    # among that weight's patterns, so the row count sets no limit
    profile = WeightProfile(col_weights={3: 14}, row_weights={2: 21})
    rng = np.random.default_rng(seed)
    mat = profile_sample(profile, rng)
    ok, report = verify_profile(mat, profile)
    assert ok, report
    assert _stream_digest([mat], rng) == WIDE_STREAM_DIGESTS[seed]
    # 63 rows: one more than an int64 bitmask of the rows could hold
    square = WeightProfile(col_weights={2: 63}, row_weights={2: 63})
    mat = profile_sample(square, np.random.default_rng(seed))
    ok, report = verify_profile(mat, square)
    assert ok, report


def test_weight_profile_hashes_by_its_weights():
    # equal profiles, their dicts built in different orders, hash equal, so
    # the sampler builds a profile's derived data once
    a = WeightProfile(col_weights={3: 16, 4: 15}, row_weights={18: 6})
    b = WeightProfile(col_weights={4: 15, 3: 16}, row_weights={18: 6})
    assert a == b == BUILTIN_PROFILES[(6, 31)]
    assert hash(a) == hash(b) == hash(BUILTIN_PROFILES[(6, 31)])
    assert matrices._layout(a) is matrices._layout(b)
    assert hash(BUILTIN_PROFILES[(5, 31)]) != hash(a)


def test_weight_profile_is_read_only():
    # an edit after the checks would also change the hash under _layout's cache
    cols = {3: 16, 4: 15}
    p = WeightProfile(col_weights=cols, row_weights={18: 6})
    layout, before = matrices._layout(p), hash(p)
    with pytest.raises(TypeError):
        p.col_weights[3] = 15
    with pytest.raises(TypeError):
        p.row_weights[18] = 5
    cols[3] = 15
    assert p.col_weights == {3: 16, 4: 15}
    assert p == BUILTIN_PROFILES[(6, 31)] and hash(p) == before
    assert matrices._layout(p) is layout
    assert matrices._layout(p)[0].tolist() == [3] * 16 + [4] * 15


def _column_patterns(mat) -> list[tuple[int, ...]]:
    return [tuple(np.flatnonzero(col).tolist()) for col in mat.T]


def test_5x31_draw_is_a_column_permutation_of_every_pattern():
    # every 5-row pattern but the all-ones one: each class is full, so a draw
    # only arranges the fixed column set, and seeds arrange it differently
    every = {p for w in range(5) for p in itertools.combinations(range(5), w)}
    arrangements = set()
    # the pattern on each weight class's leftmost column
    leftmost = set()
    for seed in range(200):
        mat = profile_sample(BUILTIN_PROFILES[(5, 31)], np.random.default_rng(seed))
        cols = _column_patterns(mat)
        assert set(cols) == every and len(cols) == 31
        arrangements.add(tuple(cols))
        leftmost |= {next(p for p in cols if len(p) == w) for w in range(5)}
    assert len(arrangements) == 200
    # a class's patterns are dealt to its columns at random, not in order
    assert leftmost == every


def _six_row_left_out_sets() -> set[frozenset]:
    # sets of four weight-3 patterns over 6 rows that cover each row twice
    triples = list(itertools.combinations(range(6), 3))
    return {
        frozenset(four) for four in itertools.combinations(triples, 4)
        if all(sum(r in t for t in four) == 2 for r in range(6))
    }


def test_6x31_draw_leaves_out_four_patterns_covering_each_row_twice():
    # the weight-4 class is full; the weight-3 class takes 16 of 20 patterns,
    # so its draw picks the four it leaves out, which must then give each row
    # the 10 - 8 = 2 ones its capacity cannot take; 3 000 seeds reach every set
    sets = _six_row_left_out_sets()
    assert len(sets) == 75
    weight4 = set(itertools.combinations(range(6), 4))
    triples = set(itertools.combinations(range(6), 3))
    seen = set()
    for seed in range(3000):
        mat = profile_sample(BUILTIN_PROFILES[(6, 31)], np.random.default_rng(seed))
        cols = _column_patterns(mat)
        assert weight4 <= set(cols)
        left_out = frozenset(triples - set(cols))
        assert left_out in sets
        seen.add(left_out)
    assert seen == sets


def test_left_out_class_after_a_column_by_column_class():
    # the weight-3 class is drawn column by column and can leave a row more
    # capacity than the 4 ones all weight-2 patterns give it; the left-out
    # draw must then restart, not hand back a matrix off its profile
    profile = WeightProfile(col_weights={3: 4, 2: 8}, row_weights={7: 1, 6: 2, 5: 1, 4: 1})
    assert [how for _, _, how, _ in matrices._layout(profile)[2]] == ["columns", "left_out"]
    for seed in range(200):
        ok, report = verify_profile(profile_sample(profile, np.random.default_rng(seed)), profile)
        assert ok, report


def test_twin_rows_profile_gives_up_on_duplicate_rows(monkeypatch):
    # two rows that every pattern treats alike: both classes are full, and
    # each attempt ends on duplicate rows
    monkeypatch.setattr(matrices, "_MAX_ATTEMPTS", 50)
    profile = WeightProfile(col_weights={0: 1, 2: 1}, row_weights={1: 2})
    with pytest.raises(MatrixConstructionError) as err:
        profile_sample(profile, np.random.default_rng(0))
    assert str(err.value) == "gave up after 50 attempts (last failure: duplicate rows)"


def test_profile_sample_varies_with_seed():
    profile = BUILTIN_PROFILES[(6, 31)]
    a = profile_sample(profile, np.random.default_rng(1))
    b = profile_sample(profile, np.random.default_rng(2))
    assert not np.array_equal(a, b)


def test_verify_profile_detects_violations():
    profile = BUILTIN_PROFILES[(6, 31)]
    mat = builtin_matrix(6, 31)
    tampered = mat.copy()
    tampered[0, 0] ^= 1
    ok, report = verify_profile(tampered, profile)
    assert not ok and "weight" in report

    dup = mat.copy()
    dup[:, 1] = dup[:, 0]
    ok, report = verify_profile(dup, profile)
    assert not ok


def test_gale_ryser_small_cases():
    assert _gale_ryser_feasible(np.array([2, 2, 2]), {3: 2})
    # a row demanding 4 ones from 3 unit-weight columns is hopeless
    assert not _gale_ryser_feasible(np.array([4, 1, 1]), {2: 3})
    # sum mismatch
    assert not _gale_ryser_feasible(np.array([1, 1]), {3: 1})


# ------------------------------------------------------------- file format


def test_save_load_round_trip(tmp_path):
    mat = builtin_matrix(7, 31)
    path = tmp_path / "design.txt"
    save_matrix(mat, path)
    again = load_matrix(path)
    assert np.array_equal(mat, again)
    # byte-exact on re-save
    text = path.read_text()
    save_matrix(again, path)
    assert path.read_text() == text
    assert text.endswith("\n") and not any(line != line.rstrip() for line in text.split("\n"))


def test_designs_are_read_only(tmp_path):
    # the shipped designs are cached, so no caller may change one in place
    path = tmp_path / "design.txt"
    save_matrix(builtin_matrix(6, 31), path)
    sampled = profile_sample(BUILTIN_PROFILES[(6, 31)], np.random.default_rng(0))
    for mat in (load_matrix(path), builtin_matrix(6, 31), sampled):
        with pytest.raises(ValueError, match="read-only"):
            mat[0, 0] ^= 1


@pytest.mark.parametrize(
    "content,line",
    [
        ("2 2\n1 0\n", 3),  # missing a row
        ("2 2\n1 0\n0 1\n1 1\n", 4),  # extra row
        ("2  2\n1 0\n0 1\n", 1),  # double space in header
        ("2 x\n1 0\n0 1\n", 1),  # non-numeric header
        ("2 \u00b2\n1 0\n0 1\n", 1),  # a digit that is not ASCII
        ("2 2\n1 0\n0 2\n", 3),  # entry out of alphabet
        ("2 2\n1 0\n0  1\n", 3),  # double space between entries
        ("2 2\n10\n0 1\n", 2),  # fused tokens
        ("2 2\n1 0 \n0 1\n", 2),  # trailing space
        ("1 100000000000000000000\n0 1\n", 2),  # header wider than any row
    ],
)
def test_load_matrix_rejects_malformed(tmp_path, content, line):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(MatrixParseError) as err:
        load_matrix(path)
    assert err.value.line == line


def test_load_matrix_requires_final_newline(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 0\n0 1")
    with pytest.raises(MatrixParseError):
        load_matrix(path)


def test_load_matrix_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(MatrixParseError):
        load_matrix(path)
