import json
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.graphs import (
    Graph,
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    lex_product,
)
from magiclab.labeling import (
    _labels_tuple,
    Labeling,
    LabelSet,
    NonIntegerConstant,
    admissible_deleted_labels,
    constant_bounds,
    hnp_constant_bounds,
    labeling_from_json,
    labeling_to_json,
    regular_constant,
    verify_blowup,
    verify_s_magic,
    vertex_weight,
)
from magiclab.rectangles import balanced_even, balanced_odd, case1, case2, complement
from magiclab.search import find_labeling


def columns_labeling(rect, n):
    return Labeling(
        tuple(rect.entries[h][g] for g in range(rect.cols) for h in range(n))
    )


class TestLabelSet:
    def test_natural(self):
        s = LabelSet.natural(4)
        assert s.values == (1, 2, 3, 4)
        assert s.alpha == 4
        assert s.deleted == ()

    def test_without(self):
        s = LabelSet.without(7, 6)
        assert s.values == (1, 2, 3, 4, 5, 7)
        assert s.deleted == (6,)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LabelSet((0, 1))
        with pytest.raises(ValueError):
            LabelSet((2, 2))
        with pytest.raises(ValueError):
            LabelSet.from_values([3, 3])
        with pytest.raises(ValueError, match="integers"):
            LabelSet((1.5, 2))
        assert LabelSet((np.int64(1), 2)).values == (1, 2)
        assert type(LabelSet((np.int64(1), 2)).values[0]) is int


class TestVertexWeight:
    def test_isolated_vertex(self):
        g = empty_graph(3)
        assert vertex_weight(g, [5, 6, 7], 0) == 0

    def test_k33_part_sums(self):
        g = build_multipartite(3, 2)
        comp = complement(case1(1))
        lab = columns_labeling(comp, 3)
        for u in range(6):
            assert vertex_weight(g, lab, u) == 13

    def test_c4_hand_labeling(self):
        g = build_cycle(4)
        for u in range(4):
            assert vertex_weight(g, [1, 2, 4, 3], u) == 5

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            vertex_weight(build_cycle(3), [1, 2, 3], 7)


class TestVerify:
    def test_h56_golden_constants(self):
        g = build_multipartite(5, 6)
        a = columns_labeling(case2(3), 5)
        report = verify_s_magic(g, a)
        assert report.is_magic and report.constant == 390
        assert not report.is_distance_magic  # pool skips label 28
        a_prime = columns_labeling(complement(case2(3)), 5)
        report = verify_s_magic(g, a_prime)
        assert report.is_magic and report.constant == 410

    def test_k2_never_magic(self):
        g = build_multipartite(1, 2)
        report = verify_s_magic(g, [1, 2])
        assert not report.is_magic
        assert any("w(0)" in v for v in report.violations)

    def test_distance_magic_flag(self):
        report = verify_s_magic(build_cycle(4), [1, 2, 4, 3])
        assert report.is_magic
        assert report.is_distance_magic
        assert report.constant == 5

    def test_duplicate_label_is_violation(self):
        report = verify_s_magic(build_cycle(4), [1, 2, 1, 2])
        assert not report.is_magic
        assert any("label 1" in v for v in report.violations)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            verify_s_magic(build_cycle(4), [1, 2, 3])

    def test_no_int64_wraparound(self):
        # in int64 the heavy part's weight 2^64 + 7 wraps around to 7
        report = verify_s_magic(build_multipartite(3, 2), [2**63 - 1, 2**63 - 2, 10, 1, 2, 4])
        assert not report.is_magic
        assert report.weights == (7, 7, 7, 2**64 + 7, 2**64 + 7, 2**64 + 7)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_weights_match_python_sums(self, data):
        order = data.draw(st.integers(1, 7))
        pairs = list(combinations(range(order), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(order, edges)
        label = st.one_of(st.integers(1, 50), st.integers(2**60, 2**65))
        labels = data.draw(st.lists(label, min_size=order, max_size=order))
        want = tuple(sum(labels[v] for v in g.neighbors(u)) for u in range(order))
        report = verify_s_magic(g, labels)
        assert report.weights == want
        magic = len(set(want)) == 1 and len(set(labels)) == order
        assert report.is_magic == magic
        assert report.constant == (want[0] if magic else None)


@st.composite
def blowup_labelings(draw):
    """(base, n, labels): a small base, possibly irregular or a union, n <= 4.

    Labels are a permutation of {1..order}, a balanced rectangle read column
    by column (magic whenever the base is regular), small integers with
    repeats and non-positive values, or labels at and beyond 2^63.
    """
    order = draw(st.integers(1, 5))
    pairs = list(combinations(range(order), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    base = disjoint_union(Graph(order, edges), draw(st.integers(1, 2)))
    n = draw(st.integers(1, 4))
    size = base.order * n
    kinds = ["permutation", "small", "huge"]
    if n % 2 == 0 or (n >= 3 and base.order % 2 == 1):
        kinds.append("balanced")
    kind = draw(st.sampled_from(kinds))
    if kind == "permutation":
        labels = draw(st.permutations(range(1, size + 1)))
    elif kind == "balanced":
        rect = (balanced_even if n % 2 == 0 else balanced_odd)(n, base.order)
        labels = columns_labeling(rect, n).labels
    else:
        label = st.integers(-2, size + 2) if kind == "small" else st.integers(2**63 - 4, 2**65)
        labels = draw(st.lists(label, min_size=size, max_size=size))
    return base, n, list(labels)


class TestVerifyBlowup:
    @settings(max_examples=300, deadline=None)
    @given(blowup_labelings())
    def test_matches_verifier_on_built_blowup(self, case):
        base, n, labels = case
        assert verify_blowup(base, n, labels) == verify_s_magic(
            lex_product(base, empty_graph(n)), labels
        )

    def test_h56_golden_constant(self):
        report = verify_blowup(build_multipartite(1, 6), 5, columns_labeling(case2(3), 5))
        assert report.is_magic and report.constant == 390
        assert report == verify_s_magic(build_multipartite(5, 6), columns_labeling(case2(3), 5))

    def test_distance_magic_flag(self):
        report = verify_blowup(build_cycle(3), 2, columns_labeling(balanced_even(2, 3), 2))
        assert report.is_magic and report.is_distance_magic
        assert report.constant == 14

    def test_no_int64_wraparound(self):
        # K_{3,3} = K_2[K̄3]: fiber sums 2^64 + 7 and 7
        report = verify_blowup(build_multipartite(1, 2), 3, [2**63 - 1, 2**63 - 2, 10, 1, 2, 4])
        assert not report.is_magic
        assert report.weights == (7, 7, 7, 2**64 + 7, 2**64 + 7, 2**64 + 7)

    @pytest.mark.parametrize(
        "base,n,labels,report",
        [
            (build_cycle(4), 1, [1, 1, 1, 1], {
                "is_magic": False, "is_distance_magic": False, "constant": None,
                "weights": [2, 2, 2, 2], "violations": ["label 1 assigned to 4 vertices"],
            }),
            (build_cycle(4), 1, [-1, 2, 3, 0], {
                "is_magic": False, "is_distance_magic": False, "constant": None,
                "weights": [2, 2, 2, 2], "violations": ["non-positive label"],
            }),
            (build_cycle(8), 1, [1, 2, 3, 4, 5, 6, 7, 8], {
                "is_magic": False, "is_distance_magic": False, "constant": None,
                "weights": [10, 4, 6, 8, 10, 12, 14, 8],
                "violations": [
                    "w(0)=10 != w(1)=4", "w(0)=10 != w(2)=6", "w(0)=10 != w(3)=8",
                    "w(0)=10 != w(5)=12", "w(0)=10 != w(6)=14",
                ],
            }),
            (build_cycle(5), 1, [0, 0, 3, 3, 7], {
                "is_magic": False, "is_distance_magic": False, "constant": None,
                "weights": [7, 3, 3, 10, 3],
                "violations": [
                    "non-positive label", "label 0 assigned to 2 vertices",
                    "label 3 assigned to 2 vertices", "w(0)=7 != w(1)=3",
                    "w(0)=7 != w(2)=3", "w(0)=7 != w(3)=10", "w(0)=7 != w(4)=3",
                ],
            }),
            (build_cycle(4), 1, [1, 2, 6, 5], {
                "is_magic": True, "is_distance_magic": False, "constant": 7,
                "weights": [7, 7, 7, 7], "violations": [],
            }),
            (build_multipartite(1, 2), 3, [1, 5, 7, 2, 3, 8], {
                "is_magic": True, "is_distance_magic": False, "constant": 13,
                "weights": [13] * 6, "violations": [],
            }),
            (build_cycle(3), 2, [1, 6, 2, 5, 3, 4], {
                "is_magic": True, "is_distance_magic": True, "constant": 14,
                "weights": [14] * 6, "violations": [],
            }),
        ],
        ids=[
            "duplicate", "non-positive", "unequal-weights", "every-fault",
            "magic-not-distance-magic", "blowup-magic-not-distance-magic",
            "blowup-distance-magic",
        ],
    )
    def test_report_fixtures(self, base, n, labels, report):
        # both verifiers, field for field
        built = lex_product(base, empty_graph(n))
        assert verify_s_magic(built, labels).to_json_dict() == report
        assert verify_blowup(base, n, labels).to_json_dict() == report

    def test_bad_input_raises(self):
        with pytest.raises(ValueError):
            verify_blowup(build_cycle(4), 2, [1, 2, 3])
        with pytest.raises(ValueError):
            verify_blowup(build_cycle(4), 0, [])


class TestRegularConstant:
    def test_examples(self):
        assert regular_constant(6, 3, 6) == 11
        assert regular_constant(6, 3, 2) == 13

    def test_non_integer(self):
        with pytest.raises(NonIntegerConstant):
            regular_constant(6, 3, 1)

    def test_matches_rectangle_witness(self):
        # constant of the 3x2 construction equals the formula at a = 6
        g = build_multipartite(3, 2)
        lab = columns_labeling(case1(1), 3)
        report = verify_s_magic(g, lab)
        assert report.constant == regular_constant(6, 3, 6) == 11

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            regular_constant(6, 3, 0)
        with pytest.raises(ValueError):
            regular_constant(6, 0, 2)


class TestAdmissibleDeleted:
    def test_6_3(self):
        assert admissible_deleted_labels(6, 3) == {2, 4, 6}

    def test_excludes_1_for_odd_regular(self):
        assert 1 not in admissible_deleted_labels(6, 3)

    def test_4_2_integrality(self):
        # only odd deletions keep (15 - a)/2 integral; both are realizable on
        # the 4-cycle: {2,3,4,5} pairs to 7, {1,2,4,5} pairs to 6
        assert admissible_deleted_labels(4, 2) == {1, 3}

    def test_mod4_filter(self):
        # r = n = 2 (mod 4) with r >= 6: integrality admits a = 1 at n = 14,
        # the parity obstruction removes it
        naive = {
            a
            for a in range(1, 15)
            if (6 * ((15 * 16) // 2 - a)) % 14 == 0
        }
        assert naive == {1, 8}
        assert admissible_deleted_labels(14, 6) == {8}

    def test_r2_uses_integrality_only(self):
        # degree 2 falls outside the mod-4 obstruction's hypothesis, so the
        # odd label 1 survives (admissible, though not realizable on C_6)
        assert admissible_deleted_labels(6, 2) == {1, 4}

    def test_parity_filter_is_not_implied_by_integrality(self):
        # in the r = n = 2 (mod 4) regime an odd deletion can still give an
        # integral constant (n=18, r=6, a=7 -> c=61), but then c is odd and
        # every vertex would need an odd number of odd-labeled neighbors,
        # 9 of which exist: a handshake contradiction.  The filter must be
        # applied on top of integrality, not derived from it.
        assert regular_constant(18, 6, 7) == 61
        assert admissible_deleted_labels(18, 6) == {4, 10, 16}
        # the excluded constants are all odd in this regime
        for n in range(10, 51, 4):
            for r in range(6, n, 4):
                for a in range(1, n + 1, 2):
                    try:
                        c = regular_constant(n, r, a)
                    except NonIntegerConstant:
                        continue
                    assert c % 2 == 1


class TestConstantBounds:
    def test_6_3(self):
        lower, upper = constant_bounds(6, 3)
        assert lower == Fraction(11)
        assert upper == Fraction(27, 2)
        assert lower <= 11 <= upper
        assert lower <= 13 <= upper

    def test_4_2(self):
        lower, upper = constant_bounds(4, 2)
        assert lower == Fraction(11, 2)
        assert upper == Fraction(7)

    def test_lower_is_constant_at_a_equals_n(self):
        for n, r in [(6, 3), (10, 4), (12, 5), (8, 2)]:
            lower, upper = constant_bounds(n, r)
            try:
                c_at_n = regular_constant(n, r, n)
            except NonIntegerConstant:
                continue
            assert Fraction(c_at_n) == lower
        # the upper end is the constant at a = 1 whenever that is integral
        assert Fraction(regular_constant(4, 2, 1)) == constant_bounds(4, 2)[1]

    def test_rejects_degree_below_1(self):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            constant_bounds(4, 0)

    def test_rejects_order_below_1(self):
        # r/n once raised ZeroDivisionError here
        with pytest.raises(ValueError, match="order must be >= 1"):
            constant_bounds(0, 2)


class TestHnpBounds:
    def test_5_6(self):
        b = hnp_constant_bounds(5, 6)
        assert (b.lower, b.upper) == (390, 410)
        assert b.highest_removable == 28
        assert b.lowest_removable == 4

    def test_3_2(self):
        b = hnp_constant_bounds(3, 2)
        assert (b.lower, b.upper) == (11, 13)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            hnp_constant_bounds(4, 6)
        with pytest.raises(ValueError):
            hnp_constant_bounds(5, 5)


class TestJson:
    def test_round_trip(self):
        lab = Labeling((1, 3, 4, 5, 6, 7))
        doc = labeling_to_json(lab, constant=13)
        assert doc["constant"] == 13
        assert doc["label_set"] == [1, 3, 4, 5, 6, 7]
        assert labeling_from_json(doc) == lab


class TestLabeling:
    """A Labeling is a bare tuple of Python ints with two read-only views."""

    def test_numpy_ints_become_ints(self):
        for lab in (Labeling(np.array([3, 1, 2])), Labeling([np.int64(3), np.int32(1), 2])):
            assert lab == (3, 1, 2)
            assert all(type(x) is int for x in lab)
        # a float is refused, never truncated
        for floats in ([1.9, 2, 4, 3], np.array([3.0, 1.0, 2.0])):
            with pytest.raises(ValueError, match="labels must be integers"):
                Labeling(floats)
        with pytest.raises(ValueError, match="labels must be integers"):
            LabelSet.from_values([1.5, 2, 3, 4])

    def test_labels_is_a_plain_tuple(self):
        lab = Labeling((1, 3, 4, 5, 6, 7))
        assert type(lab.labels) is tuple
        assert lab.labels == (1, 3, 4, 5, 6, 7)
        assert lab.label_set == LabelSet((1, 3, 4, 5, 6, 7))
        assert repr(lab) == "Labeling(labels=(1, 3, 4, 5, 6, 7))"

    def test_equals_and_hashes_as_its_tuple(self):
        t = (2, 1, 4, 3)
        assert Labeling(t) == t and t == Labeling(t)
        assert hash(Labeling(t)) == hash(t)
        assert {Labeling(t): 1}[t] == 1

    def test_json_round_trip(self):
        lab = Labeling((4, 1, 3, 2))
        doc = labeling_to_json(lab, constant=5)
        assert doc == {"labels": [4, 1, 3, 2], "label_set": [1, 2, 3, 4], "constant": 5}
        back = labeling_from_json(json.dumps(doc))
        assert type(back) is Labeling and back == lab

    def test_costs_what_its_tuple_costs(self):
        t = tuple(range(1, 13))
        assert sys.getsizeof(Labeling(t)) == sys.getsizeof(t)
        assert not hasattr(Labeling(t), "__dict__")

    def test_verifier_takes_it_without_a_copy(self):
        lab = Labeling((1, 2, 4, 3))
        assert _labels_tuple(4, lab) is lab
        # a plain sequence is copied, and a float in it is refused
        assert _labels_tuple(4, [np.int64(1), 2, 4, 3]) == lab
        with pytest.raises(ValueError, match="labels must be integers"):
            verify_s_magic(build_cycle(4), [1.9, 2, 4, 3])
        with pytest.raises(ValueError, match="labels must be integers"):
            find_labeling(build_cycle(4), [1.5, 2, 3, 4])
