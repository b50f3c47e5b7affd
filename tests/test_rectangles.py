import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.rectangles import (
    Rectangle,
    balanced_even,
    balanced_odd,
    case1,
    case2,
    case3,
    column_sums,
    complement,
    construct_deleted,
    kotzig,
    rectangle_from_csv,
    rectangle_from_json,
    rectangle_to_csv,
    rectangle_to_json,
    split,
    validate,
)

# The 5x6 deleted-label rectangle and its reflection, frozen as goldens.
GOLDEN_A = (
    (1, 2, 3, 4, 5, 6),
    (9, 12, 8, 11, 7, 10),
    (18, 15, 17, 14, 16, 13),
    (21, 24, 20, 23, 19, 22),
    (29, 25, 30, 26, 31, 27),
)
GOLDEN_A_PRIME = (
    (31, 30, 29, 28, 27, 26),
    (23, 20, 24, 21, 25, 22),
    (14, 17, 15, 18, 16, 19),
    (11, 8, 12, 9, 13, 10),
    (3, 7, 2, 6, 1, 5),
)


def column(rect: Rectangle, j: int) -> tuple[int, ...]:
    return tuple(row[j] for row in rect.entries)


class TestCase1:
    def test_m1_columns(self):
        r = case1(1)
        assert column(r, 0) == (1, 3, 7)
        assert column(r, 1) == (2, 4, 5)
        assert column_sums(r) == [11, 11]
        assert r.deleted == (6,)
        assert validate(r).ok

    def test_m2_rows(self):
        r = case1(2)
        assert r.entries == (
            (1, 2, 3, 4),
            (6, 8, 5, 7),
            (13, 10, 12, 9),
        )
        assert column_sums(r) == [20] * 4
        assert r.deleted == (11,)

    @pytest.mark.parametrize("m", range(1, 30))
    def test_column_sums_closed_form(self, m):
        r = case1(m)
        assert validate(r).ok
        assert set(column_sums(r)) == {9 * m + 2}
        assert r.deleted == (5 * m + 1,)


class TestCase2:
    def test_m3_is_golden(self):
        r = case2(3)
        assert r.entries == GOLDEN_A
        assert column_sums(r) == [78] * 6
        assert r.deleted == (28,)

    def test_m1_columns(self):
        r = case2(1)
        assert column(r, 0) == (1, 3, 6, 7, 11)
        assert column(r, 1) == (2, 4, 5, 8, 9)
        assert column_sums(r) == [28, 28]
        assert r.deleted == (10,)

    @pytest.mark.parametrize("m", range(1, 30))
    def test_deleted_and_sums(self, m):
        r = case2(m)
        assert validate(r).ok
        assert r.deleted == (9 * m + 1,)
        assert set(column_sums(r)) == {25 * m + 3}


class TestCase3:
    def test_n7_m1(self):
        r = case3(7, 1)
        assert column(r, 0) == (1, 3, 6, 7, 9, 12, 15)
        assert column(r, 1) == (2, 4, 5, 8, 10, 11, 13)
        assert column_sums(r) == [53, 53]
        assert r.deleted == (14,)

    def test_n9_m1(self):
        r = case3(9, 1)
        assert column(r, 0) == (1, 3, 6, 7, 9, 12, 14, 15, 19)
        assert column(r, 1) == (2, 4, 5, 8, 10, 11, 13, 16, 17)
        assert column_sums(r) == [86, 86]
        assert r.deleted == (18,)

    @pytest.mark.parametrize("n", [7, 9, 11, 13, 15, 17, 19, 21])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_sums_closed_form(self, n, m):
        r = case3(n, m)
        p = 2 * m
        assert validate(r).ok
        assert set(column_sums(r)) == {(n * n * p + n + 1) // 2}
        assert r.deleted == (m * (2 * n - 1) + 1,)

    def test_rejects_small_or_even_n(self):
        with pytest.raises(ValueError):
            case3(1, 1)
        with pytest.raises(ValueError):
            case3(8, 1)

    def test_uncorrected_last_row_regression(self):
        # the off-by-one variant duplicates label 12 and misses the column sum
        bad = case3(7, 1, last_row_fix=False)
        flat = [x for row in bad.entries for x in row]
        assert flat.count(12) == 2
        assert column_sums(bad) == [52, 52]
        assert column_sums(bad) != [53, 53]
        report = validate(bad)
        assert not report.ok
        assert any("duplicate entry 12" in v for v in report.violations)
        # the supported variant is clean
        assert validate(case3(7, 1)).ok


    def test_pool_check_raises_under_optimize(self, run_optimized):
        # python -O strips assert statements; this self-check must survive it
        proc = run_optimized("""
            import sys
            from magiclab import rectangles
            if __debug__:
                sys.exit("not running under -O")
            # every row reads 1, 2: the entries stay integers but repeat
            rectangles._case3_doubled = lambda i, j, n, m, last_row_fix: 2 * j
            rectangles.case3(3, 1)
        """)
        assert proc.returncode == 1
        assert "AssertionError: case3(3,1) does not cover its label pool" in proc.stderr


class TestConstructDeleted:
    def test_dispatch(self):
        assert construct_deleted(3, 2) == case1(1)
        assert construct_deleted(5, 6) == case2(3)
        assert construct_deleted(7, 2) == case3(7, 1)

    @pytest.mark.parametrize(
        "drifted,message",
        [
            ("Rectangle(((1, 2), (3, 4)), 7, (5,))", "deleted label drifted"),
            ("Rectangle(((1, 2), (3, 4)), 7, (6,))", "column sums drifted"),
        ],
        ids=["deleted", "column-sums"],
    )
    def test_self_checks_raise_under_optimize(self, drifted, message, run_optimized):
        # python -O strips assert statements; these self-checks must survive it
        proc = run_optimized(f"""
            import sys
            from magiclab import rectangles
            from magiclab.rectangles import Rectangle
            if __debug__:
                sys.exit("not running under -O")
            rectangles.case3 = lambda n, m: {drifted}
            rectangles.construct_deleted(3, 2)
        """)
        assert proc.returncode == 1
        assert f"AssertionError: {message}" in proc.stderr

    def test_rectangles_match_recorded_digests(self):
        # sha256 digests recorded from the hand-written n = 3 and n = 5
        # formulas and the odd n >= 7 rule; case3 must rebuild each byte for byte
        def digest(rects):
            h = hashlib.sha256()
            for r in rects:
                h.update(repr((r.entries, r.deleted, r.label_ceiling)).encode())
            return h.hexdigest()

        assert digest(case1(m) for m in range(1, 51)) == (
            "0883c0dc0529654e2fc91d87be4222ff275f5330e47e720e7345193934c1ec21"
        )
        assert digest(case2(m) for m in range(1, 51)) == (
            "8bf6f89f0ebefdca218a23d5c2c70df5e819078f55f690211249b633e63873db"
        )
        rects = (construct_deleted(n, p) for n in range(3, 22, 2) for p in range(2, 21, 2))
        assert digest(rects) == (
            "c440c903b81dd88a72cd27c4f0484742ce732d72cf9902e5d8da765879a1aff8"
        )

    def test_deleted_label_unified(self):
        for n in (3, 5, 7, 9):
            for p in (2, 4, 6):
                r = construct_deleted(n, p)
                assert r.deleted == (n * p - p // 2 + 1,)

    def test_entry_sum_divisible_by_p(self):
        for n in (3, 5, 7, 11):
            for p in (2, 4, 8, 10):
                r = construct_deleted(n, p)
                total = sum(map(sum, r.entries))
                assert total % p == 0
                assert total == p * column_sums(r)[0]

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            construct_deleted(4, 2)
        with pytest.raises(ValueError):
            construct_deleted(3, 3)
        with pytest.raises(ValueError):
            construct_deleted(1, 2)


class TestComplement:
    def test_golden(self):
        got = complement(case2(3))
        assert got.entries == GOLDEN_A_PRIME
        assert column_sums(got) == [82] * 6
        assert got.deleted == (4,)

    def test_figure_label_set(self):
        got = complement(case1(1))
        assert column(got, 0) == (7, 5, 1)
        assert column(got, 1) == (6, 4, 3)
        assert column_sums(got) == [13, 13]
        assert got.deleted == (2,)
        assert got.entry_set() == {1, 3, 4, 5, 6, 7}

    def test_involution(self):
        for n, p in [(3, 2), (3, 8), (5, 4), (7, 2), (9, 6)]:
            r = construct_deleted(n, p)
            assert complement(complement(r)) == r

    def test_balance_map(self):
        r = construct_deleted(5, 4)
        b = column_sums(r)[0]
        assert set(column_sums(complement(r))) == {5 * (5 * 4 + 2) - b}

    def test_rejects_oversized_entries(self):
        bad = Rectangle(np.array([[1, 2], [3, 99]]))
        with pytest.raises(ValueError):
            complement(bad)

    def test_infers_deleted_when_unmarked(self):
        raw = Rectangle(np.array(case1(1).entries))
        got = complement(raw)
        assert got.deleted == (2,)


class TestSplit:
    def test_case1_m2_in_two(self):
        pieces = split(case1(2), 2)
        assert len(pieces) == 2
        for piece in pieces:
            assert (piece.rows, piece.cols) == (3, 2)
            assert set(column_sums(piece)) == {20}
        merged = set()
        for piece in pieces:
            entries = piece.entry_set()
            assert not merged & entries
            merged |= entries
        assert merged == case1(2).entry_set()

    def test_single_piece_identity(self):
        r = case2(2)
        (piece,) = split(r, 1)
        assert piece.entries == r.entries

    def test_strided_column_policy(self):
        r = balanced_even(2, 6)
        pieces = split(r, 3)
        assert pieces[0].entries == tuple((row[0], row[3]) for row in r.entries)
        assert pieces[1].entries == tuple((row[1], row[4]) for row in r.entries)

    def test_errors(self):
        with pytest.raises(ValueError):
            split(case1(1), 3)  # 3 does not divide 2 columns
        lopsided = Rectangle(np.array([[1, 2], [3, 5]]))
        with pytest.raises(ValueError):
            split(lopsided, 2)


class TestBalanced:
    def test_even_2x3(self):
        r = balanced_even(2, 3)
        assert r.entries == ((1, 2, 3), (6, 5, 4))
        assert column_sums(r) == [7, 7, 7]
        assert validate(r).ok

    def test_even_4x2(self):
        assert set(column_sums(balanced_even(4, 2))) == {18}

    def test_even_pair_rows(self):
        r = balanced_even(6, 5)
        n, p = 6, 5
        for k in range(1, n // 2 + 1):
            pair = [a + b for a, b in zip(r.entries[k - 1], r.entries[n - k])]
            assert set(pair) == {n * p + 1}

    def test_even_rejects_odd(self):
        with pytest.raises(ValueError):
            balanced_even(3, 4)

    def test_odd_3x3(self):
        assert set(column_sums(balanced_odd(3, 3))) == {15}

    def test_odd_5x3(self):
        assert set(column_sums(balanced_odd(5, 3))) == {40}

    def test_odd_degenerate_single_column(self):
        r = balanced_odd(3, 1)
        assert r.entries == ((1,), (2,), (3,))
        assert column_sums(r) == [6]

    def test_odd_rejects_even(self):
        with pytest.raises(ValueError):
            balanced_odd(4, 3)
        with pytest.raises(ValueError):
            balanced_odd(3, 4)

    @pytest.mark.parametrize("n,p", [(2, 1), (4, 7), (8, 3), (10, 10)])
    def test_even_closed_form(self, n, p):
        r = balanced_even(n, p)
        assert validate(r).ok
        assert set(column_sums(r)) == {n * (n * p + 1) // 2}

    @pytest.mark.parametrize("n,p", [(3, 5), (5, 7), (7, 1), (9, 9)])
    def test_odd_closed_form(self, n, p):
        r = balanced_odd(n, p)
        assert validate(r).ok
        assert set(column_sums(r)) == {n * (n * p + 1) // 2}


class TestKotzig:
    def test_p3(self):
        assert kotzig(3) == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_p5_third_row(self):
        assert kotzig(5)[2] == (4, 2, 0, 3, 1)

    def test_p7(self):
        k = kotzig(7)
        assert k[2] == (6, 4, 2, 0, 5, 3, 1)
        assert set(map(sum, zip(*k))) == {9}

    def test_exhaustive_odd_p(self):
        # permutation rows and constant column sums for every odd p <= 999
        for p in range(1, 1000, 2):
            k = kotzig(p)
            want = set(range(p))
            for row in k:
                assert set(row) == want
            assert set(map(sum, zip(*k))) == {3 * (p - 1) // 2}

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            kotzig(4)


class TestValidate:
    def test_golden_ok(self):
        report = validate(case2(3))
        assert report.ok
        assert set(report.column_sums) == {78}

    def test_duplicate_flagged(self):
        bad = Rectangle(np.array([[1, 2], [2, 3]]))
        report = validate(bad)
        assert not report.ok
        assert any("duplicate" in v for v in report.violations)

    def test_pool_mismatch_flagged(self):
        bad = Rectangle(np.array([[1, 2], [3, 4]]), label_ceiling=5, deleted=(4,))
        report = validate(bad)
        assert any("deleted label 4 present" in v for v in report.violations)

    def test_unbalanced_flagged(self):
        bad = Rectangle(np.array([[1, 2], [3, 5]]))
        report = validate(bad)
        assert not report.balanced


class TestExactSums:
    def test_column_sums_do_not_wrap(self):
        # in int64 the first column's 2^64 wraps around to 0
        rect = Rectangle(np.array([[2**62, 0]] * 4))
        assert column_sums(rect) == [2**64, 0]
        report = validate(rect)
        assert not report.balanced
        assert report.column_sums == (2**64, 0)


class TestSerialization:
    def test_csv_round_trip(self):
        r = construct_deleted(5, 4)
        text = rectangle_to_csv(r)
        assert "# deleted: 19" in text
        back = rectangle_from_csv(text)
        assert back == r

    def test_csv_round_trip_no_metadata(self):
        r = split(case1(2), 2)[0]
        assert rectangle_from_csv(rectangle_to_csv(r)) == r

    def test_json_round_trip(self):
        r = balanced_odd(5, 3)
        assert rectangle_from_json(rectangle_to_json(r)) == r
        assert rectangle_to_json(case2(3))["entries"] == [list(row) for row in GOLDEN_A]

    def test_csv_rejects_ragged(self):
        with pytest.raises(ValueError):
            rectangle_from_csv("1,2\n3\n")


SWEEP_NM = st.tuples(
    st.sampled_from([3, 5, 7, 9, 11, 13, 15]),
    st.integers(min_value=1, max_value=9),
)


class TestProperties:
    @settings(max_examples=2500, deadline=None)
    @given(SWEEP_NM)
    def test_complement_involution(self, nm):
        n, m = nm
        r = construct_deleted(n, 2 * m)
        c = complement(r)
        assert validate(c).ok
        assert complement(c) == r

    @settings(max_examples=2500, deadline=None)
    @given(SWEEP_NM, st.integers(min_value=1, max_value=6))
    def test_split_partitions_and_preserves_sums(self, nm, m_pieces):
        n, m = nm
        r = construct_deleted(n, 2 * m)
        if r.cols % m_pieces != 0:
            m_pieces = 1
        pieces = split(r, m_pieces)
        b = column_sums(r)[0]
        merged: set[int] = set()
        for piece in pieces:
            assert set(column_sums(piece)) == {b}
            entries = piece.entry_set()
            assert not merged & entries
            merged |= entries
        assert merged == r.entry_set()

    @settings(max_examples=2500, deadline=None)
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=15),
    )
    def test_balanced_even_validates(self, half_n, p):
        n = 2 * half_n
        r = balanced_even(n, p)
        assert validate(r).ok
        assert set(column_sums(r)) == {n * (n * p + 1) // 2}

    @settings(max_examples=2500, deadline=None)
    @given(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=15),
    )
    def test_balanced_odd_validates(self, half_n, half_p):
        n = 2 * half_n + 1
        p = 2 * half_p + 1
        r = balanced_odd(n, p)
        assert validate(r).ok
        assert set(column_sums(r)) == {n * (n * p + 1) // 2}


class TestEntries:
    def test_numpy_input_becomes_python_ints(self):
        rect = Rectangle(np.array([[1, 2], [3, 4]], dtype=np.int32))
        assert rect.entries == ((1, 2), (3, 4))
        assert all(type(x) is int for row in rect.entries for x in row)
        assert Rectangle([[np.int64(5), 6]]).entries == ((5, 6),)

    def test_float_cell_is_refused(self):
        # numpy's int64 cast truncated 1.5 to 1 without a word
        with pytest.raises(ValueError, match="integers"):
            Rectangle([[1.5, 2], [3, 4]])
        with pytest.raises(ValueError, match="integers"):
            Rectangle(np.array([[1.0, 2.0]]))

    def test_float_deleted_is_refused(self):
        # int() truncated a deleted label of 2.9 to 2 without a word
        with pytest.raises(ValueError, match="integers"):
            Rectangle(((1, 2),), 3, (2.9,))
        with pytest.raises(ValueError, match="integers"):
            rectangle_from_json({"entries": [[1, 2]], "label_ceiling": 3, "deleted": [2.9]})
        assert Rectangle(((1, 2),), 3, (np.int64(3),)).deleted == (3,)

    def test_label_ceiling_must_be_an_integer(self):
        with pytest.raises(ValueError, match="label ceiling"):
            Rectangle(((1, 2),), label_ceiling="x")
        with pytest.raises(ValueError, match="label ceiling"):
            Rectangle(((1, 2),), label_ceiling=3.0)
        assert Rectangle(((1, 2),), label_ceiling=np.int64(3)).label_ceiling == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            "[]",
            [[1, 2]],
            "not json",
            {"entries": 5},
            {"entries": [[1, "a"]]},
            {"entries": [[1, 2], [3]]},
            {"entries": [[1, 2]], "deleted": 5},
            {"entries": [[1, 2]], "deleted": "3"},
            {"entries": [[1, 2]], "deleted": [None]},
            {"entries": [[1, 2]], "label_ceiling": "x"},
            {"entries": [[1, 2]], "label_ceiling": [3]},
        ],
        ids=[
            "empty-object", "json-list", "list", "not-json", "entries-scalar",
            "string-cell", "ragged", "deleted-scalar", "deleted-string",
            "deleted-null-label", "ceiling-string", "ceiling-list",
        ],
    )
    def test_malformed_json_is_a_value_error(self, doc):
        with pytest.raises(ValueError):
            rectangle_from_json(doc)

    @pytest.mark.parametrize(
        "entries", [{}, "", [], [[]]], ids=["object", "string", "no-rows", "empty-row"]
    )
    def test_json_grid_without_rows_is_refused(self, entries):
        # as rectangle_from_csv refuses a file with no rows
        with pytest.raises(ValueError, match="no matrix rows found"):
            rectangle_from_json({"entries": entries})

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="2-D"):
            Rectangle([1, 2, 3])
        with pytest.raises(ValueError, match="2-D"):
            Rectangle([[[1], [2]]])
        with pytest.raises(ValueError, match="same length"):
            Rectangle([[1, 2], [3]])

    def test_csv_cells_past_int64_are_exact(self):
        rect = rectangle_from_csv(f"{2**70},1\n2,{2**70 + 1}\n")
        assert rect.entries == ((2**70, 1), (2, 2**70 + 1))
        assert column_sums(rect) == [2**70 + 2, 2**70 + 2]
        assert rectangle_to_csv(rect) == f"{2**70},1\n2,{2**70 + 1}\n"
