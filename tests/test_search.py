from itertools import permutations

import numpy as np
import pytest

from magiclab import _kernels, search
from magiclab.graphs import (
    Graph,
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    lex_product,
)
from magiclab.labeling import LabelSet, verify_s_magic
from magiclab.search import (
    SearchBudgetExceeded,
    SearchConfig,
    adjacent_twins,
    compute_index,
    enumerate_labelings,
    find_labeling,
)

PATH3 = Graph(3, [(0, 1), (1, 2)], "P3")
STAR4 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], "S4")
PRISM = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], "prism")
CUBE = Graph(8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b], "cube")


def blowup(g: Graph, n: int) -> Graph:
    return lex_product(g, empty_graph(n))


def naive_enumerate(g: Graph, values) -> list[tuple[int, ...]]:
    """Dumb oracle: filter all permutations of the label set."""
    out = []
    for perm in permutations(sorted(values)):
        weights = {
            u: sum(perm[v] for v in g.neighbors(u)) for u in range(g.order)
        }
        if len(set(weights.values())) == 1:
            out.append(perm)
    return sorted(out)


class TestFindLabeling:
    def test_c4_natural(self):
        lab = find_labeling(build_cycle(4), LabelSet.natural(4))
        assert lab is not None
        report = verify_s_magic(build_cycle(4), lab)
        assert report.is_magic and report.constant == 5

    def test_k33_figure_set(self):
        lab = find_labeling(build_multipartite(3, 2), LabelSet.from_values([1, 3, 4, 5, 6, 7]))
        assert lab is not None
        assert verify_s_magic(build_multipartite(3, 2), lab).constant == 13

    def test_k2_always_absent(self):
        assert find_labeling(build_multipartite(1, 2), [1, 2]) is None
        assert find_labeling(build_multipartite(1, 2), [3, 9]) is None

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            find_labeling(build_cycle(4), [1, 2, 3])

    def test_returns_lexicographically_first(self):
        lab = find_labeling(build_cycle(4), LabelSet.natural(4))
        sols = naive_enumerate(build_cycle(4), [1, 2, 3, 4])
        assert lab.labels == sols[0]

    def test_budget_raises_instead_of_absent(self):
        cfg = SearchConfig(node_limit=1)
        with pytest.raises(SearchBudgetExceeded):
            find_labeling(build_multipartite(3, 2), [1, 3, 4, 5, 6, 7], cfg)


class TestEnumerate:
    def test_k2_empty(self):
        assert enumerate_labelings(build_multipartite(1, 2), [1, 2]) == []

    def test_c4_eight_solutions(self):
        sols = enumerate_labelings(build_cycle(4), LabelSet.natural(4))
        assert len(sols) == 8

    def test_k33_deleted_one_empty(self):
        sols = enumerate_labelings(build_multipartite(3, 2), LabelSet.without(7, 1))
        assert sols == []

    def test_order_guard(self):
        with pytest.raises(ValueError):
            enumerate_labelings(empty_graph(11), range(1, 12))

    def test_buffer_regrowth(self):
        # the edgeless graph accepts every bijection: 6! = 720 solutions
        # forces at least one regrow past the initial buffer... use order 7
        sols = enumerate_labelings(empty_graph(7), range(1, 8))
        assert len(sols) == 5040
        assert len(set(s.labels for s in sols)) == 5040


class TestKernelOverflow:
    """The kernel sums in int64; a label set that could wrap is refused."""

    def test_labels_past_the_bound_raise(self):
        values = [2**62 + k for k in (1, 2, 3, 4)]
        with pytest.raises(ValueError, match="int64"):
            find_labeling(build_cycle(4), values)
        with pytest.raises(ValueError, match="int64"):
            enumerate_labelings(build_cycle(4), values)

    def test_labels_inside_the_bound_are_exact(self):
        offset = 2**61
        values = [offset + k for k in (1, 2, 3, 4)]
        lab = find_labeling(build_cycle(4), values)
        assert lab.labels == tuple(offset + k for k in (1, 2, 4, 3))
        assert verify_s_magic(build_cycle(4), lab).is_magic
        assert len(enumerate_labelings(build_cycle(4), values)) == 8


class TestNaiveOracleAgreement:
    CASES = [
        (build_cycle(4), (1, 2, 3, 4)),
        (build_cycle(5), (1, 2, 3, 4, 5)),
        (build_cycle(6), (2, 3, 4, 5, 6, 7)),
        (PATH3, (1, 2, 3)),
        (PATH3, (2, 4, 6)),
        (STAR4, (1, 2, 3, 4, 5)),
        (build_multipartite(3, 2), (1, 2, 3, 4, 5, 6)),
        (build_multipartite(3, 2), (1, 3, 4, 5, 6, 7)),
        (build_multipartite(2, 3), (1, 2, 3, 4, 5, 6)),
        (build_multipartite(2, 4), (1, 2, 3, 4, 5, 6, 7, 8)),
        (disjoint_union(build_cycle(4), 2), (1, 2, 3, 4, 5, 6, 7, 8)),
    ]

    @pytest.mark.parametrize("g,values", CASES)
    def test_matches_permutation_filter(self, g, values):
        got = [lab.labels for lab in enumerate_labelings(g, values)]
        assert got == naive_enumerate(g, values)


class TestPruningEquivalence:
    GRAPHS = [
        build_cycle(3),
        build_cycle(4),
        build_cycle(7),
        PATH3,
        STAR4,
        build_multipartite(3, 2),
        build_multipartite(1, 4),
        disjoint_union(build_cycle(3), 2),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)], "mixed"),
        # blow-ups with false twins, and the prism with difference rows
        build_multipartite(2, 3),
        blowup(PATH3, 2),
        PRISM,
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name or str(g.order))
    def test_pruned_equals_unpruned(self, g):
        n = g.order
        sets = [tuple(range(1, n + 1))]
        if n >= 3:
            sets.append(tuple(range(2, n + 2)))
            sets.append(tuple(v for v in range(1, n + 2) if v != n))
        dptr, drow, dsign, _ = search._pruning_rows(g)
        indptr, nbrs = g.csr()
        for values in sets:
            fast = enumerate_labelings(g, values, SearchConfig(prune=True))
            slow = enumerate_labelings(g, values, SearchConfig(prune=False))
            assert [x.labels for x in fast] == [x.labels for x in slow]
            # the difference rows alone never drop a magic labeling
            labels = np.asarray(values, dtype=np.int64)
            _, _, count, out = _kernels.backtrack(
                indptr, nbrs, labels, False, 0, True, -1, 2**62, len(slow) + 1,
                dptr, drow, dsign,
            )
            rows = [tuple(out[k * n : (k + 1) * n].tolist()) for k in range(count)]
            assert rows == [x.labels for x in slow]


class TestFirstHitEquivalence:
    """Difference rows and false-twin order never change a first hit."""

    # graphs with false twins, difference rows or both
    GRAPHS = [
        blowup(build_cycle(4), 2),
        blowup(build_cycle(5), 2),
        build_multipartite(2, 4),
        build_multipartite(3, 3),
        disjoint_union(build_multipartite(2, 3), 2),
        PRISM,
        CUBE,
    ]
    # small enough for the unpruned search; P3 and S4 are not regular
    UNPRUNED = [
        blowup(build_cycle(4), 2),
        build_multipartite(2, 4),
        build_multipartite(3, 3),
        PRISM,
        PATH3,
        STAR4,
    ]

    @pytest.mark.parametrize("g", UNPRUNED, ids=lambda g: g.name)
    def test_pruned_equals_unpruned(self, g):
        values = tuple(range(1, g.order + 1))
        slow = SearchConfig(prune=False)
        assert find_labeling(g, values) == find_labeling(g, values, slow)
        assert compute_index(g) == compute_index(g, slow)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
    def test_same_as_neighborhood_pruning_alone(self, g, monkeypatch):
        # the unpruned search is out of reach on C5[K2] and 2H(2,3), so the
        # reference here is the pruned search without the extra rows and twins
        values = tuple(range(1, g.order + 1))
        fast = (find_labeling(g, values), compute_index(g))
        monkeypatch.setattr(search, "_pruning_rows", lambda g: ())
        assert fast == (find_labeling(g, values), compute_index(g))

    # exact node counts: the search succeeds at the pinned budget, not one below
    def test_h26_exact_inside_node_budget(self):
        g = build_multipartite(2, 6)
        res = compute_index(g, SearchConfig(node_limit=2_025))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7)
        assert compute_index(g, SearchConfig(node_limit=2_024)).kind == "indeterminate"

    def test_h34_exact_inside_node_budget(self):
        g = build_multipartite(3, 4)
        res = compute_index(g, SearchConfig(node_limit=5_670))
        assert res.kind == "finite" and res.theta == 1
        assert res.witness.labels == (1, 6, 13, 2, 8, 10, 3, 5, 12, 4, 7, 9)
        assert compute_index(g, SearchConfig(node_limit=5_669)).kind == "indeterminate"

    def test_c6k2_exact_inside_node_budget(self):
        g = blowup(build_cycle(6), 2)
        values = tuple(range(1, 13))
        hit = find_labeling(g, values, SearchConfig(node_limit=28_548))
        assert hit is not None and hit == find_labeling(g, values)
        with pytest.raises(SearchBudgetExceeded):
            find_labeling(g, values, SearchConfig(node_limit=28_547))


class TestComputeIndex:
    def test_c4_distance_magic(self):
        res = compute_index(build_cycle(4))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness is not None

    def test_k33_index_one(self):
        res = compute_index(build_multipartite(3, 2), SearchConfig(theta_cap=2))
        assert res.kind == "finite" and res.theta == 1
        assert res.witness.label_set.alpha == 7
        assert res.constant == 11

    def test_complete_graphs_infinite(self):
        for p in (2, 3, 5):
            res = compute_index(build_multipartite(1, p))
            assert res.kind == "infinite"
            assert "twins" in res.detail

    def test_c5_unknown_at_cap(self):
        res = compute_index(build_cycle(5), SearchConfig(theta_cap=2))
        assert res.kind == "unknown-at-cap"
        assert res.cap == 2

    def test_single_vertex(self):
        res = compute_index(empty_graph(1))
        assert res.kind == "finite" and res.theta == 0

    def test_edgeless(self):
        res = compute_index(empty_graph(5))
        assert res.theta == 0
        assert res.witness.labels == (1, 2, 3, 4, 5)

    def test_node_budget_indeterminate(self):
        res = compute_index(build_multipartite(3, 2), SearchConfig(node_limit=5))
        assert res.kind == "indeterminate"

    def test_wall_clock_budget(self):
        res = compute_index(
            build_multipartite(3, 4), SearchConfig(theta_cap=2, budget_ms=0.0)
        )
        assert res.kind == "indeterminate"

    def test_witness_is_policy_minimal(self):
        # lexicographically smallest label set first: deleting 6 from {1..7}
        res = compute_index(build_multipartite(3, 2))
        assert res.witness.label_set.values == (1, 2, 3, 4, 5, 7)


class TestTwins:
    def test_complete_graph(self):
        assert adjacent_twins(build_multipartite(1, 3)) is not None

    def test_cycle_has_none(self):
        assert adjacent_twins(build_cycle(5)) is None

    def test_octahedron_has_none(self):
        assert adjacent_twins(build_multipartite(2, 3)) is None
