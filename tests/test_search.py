import random
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab import _kernels, search
from magiclab.graphs import (
    Graph,
    build_circulant,
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    lex_product,
    regular_degree,
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
# irregular: P4 with an isolated vertex, and a 10-vertex graph whose
# reference row for vertex 2 sets six labels against one
P4_K1 = Graph(5, [(0, 1), (1, 2), (2, 3)], "P4+K1")
G10 = Graph(
    10,
    [(0, 2), (0, 3), (0, 5), (0, 7), (0, 8), (1, 2), (1, 8), (2, 3), (2, 4), (2, 5),
     (2, 8), (2, 9), (3, 5), (4, 6), (4, 8), (4, 9), (5, 6), (6, 7), (7, 8)],
    "G10",
)
# complete tripartite K(3,2,2): parts {0, 1, 2}, {3, 4} and {5, 6}
K322 = Graph(7, [*product((0, 1, 2), (3, 4, 5, 6)), *product((3, 4), (5, 6))], "K322")
# K(4,2,2): irregular, three twin classes, 192 magic orders on 1..8
K422 = Graph(8, [*product((0, 1, 2, 3), (4, 5, 6, 7)), *product((4, 5), (6, 7))], "K422")
# the leaves and the isolated pair are twin classes, and the isolated pair
# has an empty neighborhood
S4_2K1 = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4)], "S4+2K1")
# N(3) is inside N(1): their difference row asks f(0) = 0
P4 = Graph(4, [(0, 1), (1, 2), (2, 3)], "P4")


def blowup(g: Graph, n: int) -> Graph:
    return lex_product(g, empty_graph(n))


@pytest.fixture
def kernel_nodes(monkeypatch):
    """The node count of every kernel call made during the test, in order."""
    nodes = []
    backtrack = _kernels.backtrack

    def counted(*args):
        result = backtrack(*args)
        nodes.append(result[1])
        return result

    monkeypatch.setattr(_kernels, "backtrack", counted)
    return nodes


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

    def test_wall_clock_budget_raises(self):
        cfg = SearchConfig(budget_ms=0)
        with pytest.raises(SearchBudgetExceeded, match="wall-clock budget 0 ms exhausted"):
            find_labeling(build_cycle(4), [1, 2, 3, 4], cfg)


class TestSearchConfig:
    """The node budget and the cap are integers; a float is refused, not misread."""

    def test_float_node_limit_raises(self):
        # the kernel stops at node limit + 1, which no node count equals for 1.5
        for limit in (1.5, 1.0):
            with pytest.raises(ValueError, match="must be integers"):
                SearchConfig(node_limit=limit)

    def test_float_theta_cap_raises(self):
        with pytest.raises(ValueError, match="must be integers"):
            SearchConfig(theta_cap=1.5)

    def test_negative_budget_ms_raises(self):
        # the first kernel call used to report it as an exhausted budget
        for budget in (-5, -0.001):
            with pytest.raises(ValueError, match="budget_ms must be a number >= 0"):
                SearchConfig(budget_ms=budget)

    def test_non_number_budget_ms_raises_value_error(self):
        for budget in ("x", [1]):
            with pytest.raises(ValueError, match="budget_ms must be a number >= 0"):
                SearchConfig(budget_ms=budget)

    def test_numpy_ints_become_ints(self):
        cfg = SearchConfig(theta_cap=np.int64(2), node_limit=np.int32(7))
        assert (cfg.theta_cap, cfg.node_limit) == (2, 7)
        assert type(cfg.theta_cap) is int and type(cfg.node_limit) is int


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

    def test_wall_clock_budget_raises(self):
        cfg = SearchConfig(budget_ms=0)
        with pytest.raises(SearchBudgetExceeded, match="wall-clock budget 0 ms exhausted"):
            enumerate_labelings(build_cycle(4), [1, 2, 3, 4], cfg)

    @pytest.mark.parametrize(
        "g,nodes", [(build_multipartite(4, 2), 13_948), (blowup(build_cycle(4), 2), 33_136)],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_regular_walk_node_counts(self, g, nodes, kernel_nodes):
        # a regular graph gives enumeration its weight rows and nothing else,
        # so these exact counts move only when the weight-row walk does
        assert len(enumerate_labelings(g, range(1, 9))) == 4_608
        assert kernel_nodes == [nodes]

    def test_buffer_regrowth(self):
        # the edgeless graph accepts every bijection: 7! = 5040 solutions,
        # all gathered by one kernel call whose output grows as it goes
        sols = enumerate_labelings(empty_graph(7), range(1, 8))
        assert len(sols) == 5040
        assert len(set(s.labels for s in sols)) == 5040


class TestKernelOverflow:
    """The kernel sums in Python ints, so labels of any size never wrap."""

    def test_labels_past_int64_are_exact(self):
        # weights of 2^61 + k stay inside int64; 2^62 + 4 times degree 2
        # passes 2^63 - 1, and 2^64 is past int64 itself
        for offset in (2**61, 2**62, 2**64):
            values = [offset + k for k in (1, 2, 3, 4)]
            lab = find_labeling(build_cycle(4), values)
            assert lab.labels == tuple(offset + k for k in (1, 2, 4, 3))
            assert verify_s_magic(build_cycle(4), lab).is_magic
            sols = enumerate_labelings(build_cycle(4), values)
            assert len(sols) == 8
            assert all(verify_s_magic(build_cycle(4), s).is_magic for s in sols)


class TestListKernel:
    """The kernel takes numpy arrays or lists alike and returns a list."""

    CASES = [
        (build_cycle(4), (1, 2, 3, 4), False, -1),
        (PRISM, (1, 2, 3, 4, 5, 6), True, -1),
        (blowup(PATH3, 2), (1, 2, 3, 4, 5, 6), True, -1),
        (blowup(build_cycle(6), 2), tuple(range(1, 13)), True, 5_000),
        (Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6)], "mixed"), tuple(range(1, 8)), False, -1),
    ]

    @pytest.mark.parametrize(
        "g,values,rows,limit", CASES, ids=["C4", "prism-rows", "P3[K2]-rows", "C6[K2]-rows-budget", "mixed"]
    )
    def test_arrays_and_lists_agree(self, g, values, rows, limit):
        refs = regular_degree(g) is None
        indptr, nbrs, plus, minus, twin_prev = search._search_rows(g, refs, rows)
        forced = search._forced_constant(regular_degree(g), values)
        for (have_c, c), prune in product([(False, 0), forced], (True, False)):
            as_arrays = _kernels.backtrack(
                *(np.asarray(a, dtype=np.int64) for a in (indptr, nbrs, values)),
                have_c, c, prune, limit,
                2**62, 2**62, plus, minus, np.asarray(twin_prev, dtype=np.int64),
            )
            as_lists = _kernels.backtrack(
                indptr, nbrs, list(values), have_c, c, prune, limit,
                2**62, 2**62, plus, minus, twin_prev,
            )
            assert as_arrays == as_lists
            assert type(as_lists[3]) is list
            assert all(type(x) is int for x in as_lists[3])

    def test_enumerate_makes_one_kernel_call(self, monkeypatch):
        calls = []
        backtrack = _kernels.backtrack

        def counted(*args):
            calls.append(args)
            return backtrack(*args)

        monkeypatch.setattr(_kernels, "backtrack", counted)
        g = build_multipartite(4, 2)
        sols = enumerate_labelings(g, range(1, 9))
        assert len(calls) == 1
        rows = [s.labels for s in sols]
        assert len(rows) == 4_608
        assert rows == sorted(set(rows))
        assert all(verify_s_magic(g, s).is_magic for s in sols)

    def test_float_labels_raise(self):
        # truncating 1.9 to 1 would make [1, 2, 4, 3] look magic on C4
        indptr, nbrs = build_cycle(4).csr()
        with pytest.raises(ValueError, match="must be integers"):
            _kernels.backtrack(indptr, nbrs, [1.9, 2, 3, 4], False, 0, True, -1, 1, 1)

    @pytest.mark.parametrize(
        "g", [blowup(build_cycle(6), 2), build_multipartite(3, 4), K322, S4_2K1], ids=lambda g: g.name
    )
    def test_vertex_rows_and_class_rows_agree(self, g):
        # the CSR adjacency repeats a weight row for every twin, and a
        # repeated row prunes and accepts exactly what the first one does
        values = tuple(range(1, g.order + 1))
        forced = search._forced_constant(regular_degree(g), values)
        for first_hit in (True, False):
            indptr, nbrs, *extra = search._search_rows(g, regular_degree(g) is None, first_hit)
            assert len(indptr) < g.order + 1
            for (have_c, c), prune in product([(False, 0), forced], (True, False)):
                args = (values, have_c, c, prune, 5_000, 2**62, 2**62, *extra)
                assert _kernels.backtrack(indptr, nbrs, *args) == _kernels.backtrack(*g.csr(), *args)

    def test_out_full_still_reported(self):
        # C4 has eight magic labelings of 1..4; room for three stops the walk
        indptr, nbrs = build_cycle(4).csr()
        status, _, count, out = _kernels.backtrack(
            indptr, nbrs, [1, 2, 3, 4], False, 0, True, -1, 2**62, 3
        )
        assert (status, count) == (_kernels.STATUS_OUT_FULL, 3)
        assert out == [1, 2, 4, 3, 1, 3, 4, 2, 2, 1, 3, 4]


class TestRowWindow:
    """The scan window is the whole extra-row check at a vertex."""

    @staticmethod
    def admits(labels, used, lab, prow, mrow, rsum, npos, nneg):
        # every row can still reach 0 with its open entries between the
        # smallest and the largest unused label other than lab
        others = [x for x, u in zip(labels, used) if not u and x != lab]
        a, b = min(others, default=0), max(others, default=0)
        for rows, sign in ((prow, 1), (mrow, -1)):
            for r in rows:
                s = rsum[r] + sign * lab
                p = npos[r] - (sign > 0)
                m = nneg[r] - (sign < 0)
                if not s + p * a - m * b <= 0 <= s + p * b - m * a:
                    return False
        return True

    def test_window_holds_exactly_the_admitted_labels(self):
        rng = random.Random(1)
        lone = closed = 0
        for _ in range(20_000):
            n = rng.randint(1, 8)
            labels = sorted(rng.sample(range(1, 3 * n + 1), n))
            free = rng.sample(range(n), rng.randint(1, n))
            used = [i not in free for i in range(n)]
            taken = [x for x, u in zip(labels, used) if u]
            prow, mrow, rsum, npos, nneg = [], [], [], [], []
            for r in range(rng.randint(1, 3)):
                # the vertex enters row r with sign +1 or -1 and leaves p + m
                # open entries, at most one per other unused label; the row's
                # assigned entries are used labels with either sign
                sign = rng.choice((1, -1))
                p = rng.randint(0, len(free) - 1)
                m = rng.randint(0, len(free) - 1 - p)
                closed += p + m == 0
                assigned = rng.sample(taken, rng.randint(0, len(taken)))
                rsum.append(sum(rng.choice((1, -1)) * x for x in assigned))
                (prow if sign > 0 else mrow).append(r)
                npos.append(p + (sign > 0))
                nneg.append(m + (sign < 0))
            lone += len(free) == 1
            # half the time the twin order starts the scan later
            first = rng.randint(0, n) if rng.random() < 0.5 else 0
            rows = prow, mrow, rsum, npos, nneg
            start, stop = _kernels._row_window(labels, used, first, *rows)
            assert start >= first
            window = [x for i, x in enumerate(labels[start:stop], start) if not used[i]]
            admitted = [
                x for i, x in enumerate(labels[first:], first)
                if not used[i] and self.admits(labels, used, x, *rows)
            ]
            assert window == admitted, (labels, used, first, rows)
        assert lone and closed


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
        # false-twin classes, whose weights the kernel keeps once per class:
        # one class holding every vertex, so all 3! orders are magic
        (empty_graph(3), (1, 2, 3)),
        (S4_2K1, (1, 2, 3, 4, 5, 6, 7)),
        # irregular, with classes of three, two and two: reference rows
        # built per class
        (K322, (1, 2, 4, 5, 6, 7, 8)),
    ]

    @pytest.mark.parametrize("g,values", CASES)
    def test_matches_permutation_filter(self, g, values):
        got = [lab.labels for lab in enumerate_labelings(g, values)]
        assert got == naive_enumerate(g, values)


def _row_sides(g: Graph) -> list[frozenset]:
    """Each difference row of _search_rows as the pair {+ side, - side}."""
    _, _, plus, minus, _ = search._search_rows(g, False, True)
    sides: dict[int, tuple[set, set]] = {}
    for x in range(g.order):
        for r in plus[x]:
            sides.setdefault(r, (set(), set()))[0].add(x)
        for r in minus[x]:
            sides.setdefault(r, (set(), set()))[1].add(x)
    assert sorted(sides) == list(range(len(sides)))
    return [frozenset((frozenset(pos), frozenset(neg))) for pos, neg in sides.values()]


class TestPruningRows:
    """Each distinct difference row reaches the kernel once."""

    COUNTS = [
        (build_multipartite(3, 4), 6),
        (build_multipartite(4, 3), 3),
        (build_multipartite(2, 6), 15),
        (blowup(PRISM, 2), 3),
        (blowup(build_cycle(6), 2), 6),
    ]

    @pytest.mark.parametrize("g,count", COUNTS, ids=lambda x: getattr(x, "name", str(x)))
    def test_row_counts(self, g, count):
        assert len(_row_sides(g)) == count

    @pytest.mark.parametrize(
        "g", [g for g, _ in COUNTS] + [PRISM, CUBE, P4_K1, G10, K322],
        ids=lambda g: g.name,
    )
    def test_distinct_rows_once_each(self, g):
        # a row and its sign flip are the same row
        rows = _row_sides(g)
        assert len(set(rows)) == len(rows)
        nbhd = [set(g.neighbors(u)) for u in range(g.order)]
        wanted = {
            frozenset((frozenset(nbhd[u] - nbhd[v]), frozenset(nbhd[v] - nbhd[u])))
            for u in range(g.order)
            for v in range(u + 1, g.order)
            if 0 < len(nbhd[u] ^ nbhd[v]) <= max(len(nbhd[u]), len(nbhd[v]))
        }
        assert set(rows) == wanted


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
        # irregular, so the constant is unknown and reference rows prune; the
        # twin classes of K(4,2,2) share one reference row each
        P4_K1,
        K422,
    ]

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name or str(g.order))
    def test_pruned_equals_unpruned(self, g):
        n = g.order
        sets = [
            tuple(range(1, n + 1)),
            tuple(range(2, n + 2)),
            tuple(v for v in range(1, n + 2) if v != n),
        ]
        indptr, nbrs, plus, minus, _ = search._search_rows(g, False, True)
        for values in sets:
            fast = enumerate_labelings(g, values, SearchConfig(prune=True))
            slow = enumerate_labelings(g, values, SearchConfig(prune=False))
            assert [x.labels for x in fast] == [x.labels for x in slow]
            # the difference rows alone never drop a magic labeling
            labels = np.asarray(values, dtype=np.int64)
            _, _, count, out = _kernels.backtrack(
                indptr, nbrs, labels, False, 0, True, -1, 2**62, len(slow) + 1,
                plus, minus,
            )
            rows = [tuple(out[k * n : (k + 1) * n]) for k in range(count)]
            assert rows == [x.labels for x in slow]

    def test_k422_keeps_every_labeling(self):
        # a reference row with a wrong sign would leave none of them
        for values in ((1, 2, 3, 4, 5, 6, 7, 8), (1, 2, 4, 5, 6, 7, 8, 9)):
            assert len(enumerate_labelings(K422, values)) == 192


@st.composite
def _small_graph(draw):
    """A graph of order <= 7: a circulant (regular) or any edge set."""
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        steps = draw(st.sets(st.integers(1, n // 2), max_size=3)) if n > 1 else set()
        edges = {tuple(sorted((u, (u + k) % n))) for u in range(n) for k in steps}
        return Graph(n, sorted(edges), "circ")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, chosen) if keep], "random")


class TestRandomGraphPruning:
    """Pruning never changes an answer, whether the constant is forced or not."""

    @settings(max_examples=200, deadline=None)
    @given(g=_small_graph(), deleted=st.integers(1, 8))
    def test_pruned_equals_unpruned(self, g, deleted):
        n = g.order
        pools = [LabelSet.natural(n), LabelSet.without(n + 1, min(deleted, n + 1))]
        for pool in pools:
            fast = enumerate_labelings(g, pool)
            slow = enumerate_labelings(g, pool, SearchConfig(prune=False))
            assert fast == slow
            assert find_labeling(g, pool) == (fast[0] if fast else None)


class TestFirstHitEquivalence:
    """Difference rows and the lex-leader order never change a first hit."""

    # graphs with false twins, difference rows or both
    GRAPHS = [
        blowup(build_cycle(4), 2),
        blowup(build_cycle(5), 2),
        build_multipartite(2, 4),
        build_multipartite(3, 3),
        disjoint_union(build_multipartite(2, 3), 2),
        PRISM,
        CUBE,
        # order 12: each takes a few thousand nodes with the rows and twins
        blowup(build_cycle(6), 2),
        blowup(PRISM, 2),
        build_multipartite(4, 3),
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

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_random_graphs_match_unpruned(self, seed):
        # regular circulants and irregular edge sets of order 3..7, against
        # the unpruned search: every extra row holds in each magic labeling
        rng = random.Random(seed)
        slow = SearchConfig(prune=False)
        regular = 0
        for k in range(16):
            n = rng.randint(3, 7)
            if k % 2:
                steps = rng.sample(range(1, n // 2 + 1), rng.randint(1, n // 2))
                edges = {tuple(sorted((u, (u + d) % n))) for u in range(n) for d in steps}
            else:
                density = rng.random()
                edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density}
            g = Graph(n, sorted(edges))
            regular += regular_degree(g) is not None
            deleted = LabelSet.without(n + 1, rng.randint(1, n + 1))
            for values in (LabelSet.natural(n), deleted):
                assert find_labeling(g, values) == find_labeling(g, values, slow)
            assert compute_index(g) == compute_index(g, slow)
        assert 0 < regular < 16
        # blow-ups B[K2] of bases of order 2 or 3, where twin order and the
        # windows meet, and irregular graphs with a vertex x whose
        # neighborhood lies inside another's, so one difference row has one
        # side only
        for k in range(4):
            if k % 2:
                b = rng.randint(2, 3)
                base = [(u, v) for u in range(b) for v in range(u + 1, b) if rng.random() < 0.7]
                g = blowup(Graph(b, base), 2)
            else:
                n = rng.randint(3, 6)
                edges = {(0, 1)} | {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6}
                g0 = Graph(n, sorted(edges))
                u = max(range(n), key=lambda x: len(g0.neighbors(x)))
                inside = [y for y in g0.neighbors(u) if rng.random() < 0.6] or [g0.neighbors(u)[0]]
                g = Graph(n + 1, sorted(edges | {(y, n) for y in inside}))
            for values in (LabelSet.natural(g.order), LabelSet.without(g.order + 1, rng.randint(1, g.order + 1))):
                assert find_labeling(g, values) == find_labeling(g, values, slow)
            assert compute_index(g) == compute_index(g, slow)

    def test_p4_settled_without_a_node(self, kernel_nodes):
        # vertex 0 is the one open entry of the row f(0) = 0, so its scan
        # window is empty and no label is tried at any candidate set
        slow = SearchConfig(prune=False)
        assert find_labeling(P4, range(1, 5)) is None
        assert compute_index(P4).kind == "unknown-at-cap"
        assert sum(kernel_nodes) == 0
        assert find_labeling(P4, range(1, 5), slow) is None
        assert compute_index(P4, slow) == compute_index(P4)

    @pytest.mark.parametrize("g", GRAPHS, ids=lambda g: g.name)
    def test_same_as_neighborhood_pruning_alone(self, g, monkeypatch, kernel_nodes):
        # the unpruned search is out of reach on C5[K2] and 2H(2,3), so the
        # reference here is the pruned search without the difference rows and
        # the orbit order: the inputs an enumeration gets
        values = tuple(range(1, g.order + 1))
        fast = (find_labeling(g, values), compute_index(g))
        fast_nodes = sum(kernel_nodes)
        kernel_nodes.clear()
        search_rows = search._search_rows
        monkeypatch.setattr(
            search, "_search_rows", lambda g, refs, first_hit: search_rows(g, refs, False)
        )
        assert fast == (find_labeling(g, values), compute_index(g))
        # the patch took effect: the rows and the orbit order did prune
        assert sum(kernel_nodes) > fast_nodes

    # exact node counts: the search succeeds at the pinned budget, not one below
    def test_h26_exact_inside_node_budget(self):
        g = build_multipartite(2, 6)
        res = compute_index(g, SearchConfig(node_limit=245))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7)
        assert compute_index(g, SearchConfig(node_limit=244)).kind == "indeterminate"

    def test_h34_exact_inside_node_budget(self):
        g = build_multipartite(3, 4)
        res = compute_index(g, SearchConfig(node_limit=1_246))
        assert res.kind == "finite" and res.theta == 1
        assert res.witness.labels == (1, 6, 13, 2, 8, 10, 3, 5, 12, 4, 7, 9)
        assert compute_index(g, SearchConfig(node_limit=1_245)).kind == "indeterminate"

    def test_irregular_exact_inside_node_budget(self):
        # G10 is irregular, and N(9) is inside N(8): their difference row
        # asks f(0) + f(1) + f(7) = 0, so vertex 0's scan window is empty
        # for every set of positive labels and cap 1 is settled in 0 nodes
        res = compute_index(G10, SearchConfig(node_limit=0))
        assert res.kind == "unknown-at-cap"

    def test_prism_k2_exact_inside_node_budget(self):
        g = blowup(PRISM, 2)
        res = compute_index(g, SearchConfig(node_limit=1_169))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 4, 5, 8, 9, 12, 2, 3, 6, 7, 10, 11)
        assert compute_index(g, SearchConfig(node_limit=1_168)).kind == "indeterminate"

    def test_h43_exact_inside_node_budget(self):
        g = build_multipartite(4, 3)
        res = compute_index(g, SearchConfig(node_limit=870))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 2, 11, 12, 3, 4, 9, 10, 5, 6, 7, 8)
        assert compute_index(g, SearchConfig(node_limit=869)).kind == "indeterminate"

    def test_c6k2_exact_inside_node_budget(self):
        g = blowup(build_cycle(6), 2)
        values = tuple(range(1, 13))
        hit = find_labeling(g, values, SearchConfig(node_limit=2_272))
        assert hit is not None and hit == find_labeling(g, values)
        with pytest.raises(SearchBudgetExceeded):
            find_labeling(g, values, SearchConfig(node_limit=2_271))


def chain_prev(g: Graph, colour=None) -> list[int]:
    """Stabiliser-chain predecessors from the full automorphism group.

    The group, of the permutations that keep colour if one is given, is
    found among all permutations of the vertices; prev[j] is the largest
    i < j that an automorphism fixing 0 .. i-1 sends to j.
    """
    n = g.order
    colour = colour or [0] * n
    edges = {(u, v) for u in range(n) for v in g.neighbors(u)}
    autos = [
        p for p in permutations(range(n))
        if all(colour[p[v]] == colour[v] for v in range(n))
        and all((p[u], p[v]) in edges for u, v in edges)
    ]
    prev = [-1] * n
    for i in range(n):
        for p in autos:
            if p[i] != i and p[:i] == tuple(range(i)):
                prev[p[i]] = i
    return prev


@st.composite
def _graph_with_twins(draw):
    """A graph of order <= 7, some vertices copied as false or true twins,
    then relabelled, so that twins need not be neighbours in id order."""
    b = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(b) for v in range(u + 1, b)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    nbrs = [set() for _ in range(b)]
    for (u, v), k in zip(pairs, keep):
        if k:
            nbrs[u].add(v)
            nbrs[v].add(u)
    for _ in range(draw(st.integers(0, 7 - b))):
        x = draw(st.integers(0, len(nbrs) - 1))
        w = len(nbrs)
        nbrs.append(set(nbrs[x]))
        for y in nbrs[x]:
            nbrs[y].add(w)
        if draw(st.booleans()):
            nbrs[x].add(w)
            nbrs[w].add(x)
    order = draw(st.permutations(range(len(nbrs))))
    edges = {tuple(sorted((order[u], order[v]))) for u in range(len(nbrs)) for v in nbrs[u]}
    return Graph(len(nbrs), sorted(edges), "twins")


def orbit_prev(g: Graph) -> list[int]:
    return search._search_rows(g, regular_degree(g) is None, True)[4]


class TestOrbitOrder:
    """A first hit scans each vertex's labels from its chain predecessor's."""

    @settings(max_examples=120, deadline=None)
    @given(g=st.one_of(_small_graph(), _graph_with_twins()))
    def test_equals_full_automorphism_group(self, g):
        assert orbit_prev(g) == chain_prev(g)

    @settings(max_examples=100, deadline=None)
    @given(g=_small_graph(), data=st.data())
    def test_any_coloured_graph(self, g, data):
        # _orbit_prev alone, where false twins and colours are allowed too
        colour = data.draw(st.lists(st.integers(0, 1), min_size=g.order, max_size=g.order))
        adj = [sum(1 << x for x in g.neighbors(v)) for v in range(g.order)]
        assert search._orbit_prev(adj, colour) == chain_prev(g, colour)

    def test_closed_forms(self):
        # blocks: the parts of H(2,3) in order, and each copy of K(2,2) in 3K(2,2)
        assert orbit_prev(build_multipartite(2, 3)) == [-1, 0, 0, 2, 2, 4]
        assert orbit_prev(disjoint_union(build_multipartite(2, 2), 3)) == [-1, 0, 0, 2, 0, 4, 4, 6, 4, 8, 8, 10]
        # the dihedral group of a cycle: 0 reaches all, then the reflection
        # fixing 0 pairs 1 with the other neighbor of 0
        assert orbit_prev(build_cycle(6)) == [-1, 0, 0, 0, 0, 1]
        assert orbit_prev(blowup(build_cycle(5), 2)) == [-1, 0, 0, 2, 0, 4, 0, 6, 2, 8]
        # two triangles: every degree is 2, but no one cycle holds them all
        two_triangles = disjoint_union(build_cycle(3), 2)
        assert orbit_prev(two_triangles) == chain_prev(two_triangles) == [-1, 0, 1, 0, 3, 4]
        # searched: the prism and the cube
        assert orbit_prev(PRISM) == [-1, 0, 1, 0, 0, 0]
        assert orbit_prev(CUBE) == [-1, 0, 1, 0, 2, 0, 0, 0]

    def test_enumeration_gets_no_order(self):
        assert search._search_rows(CUBE, False, False)[4] == []

    @pytest.mark.parametrize(
        "g",
        [PRISM, CUBE, build_multipartite(3, 2), build_multipartite(2, 4), build_circulant(10, [1, 2, 3])],
        ids=["prism", "cube", "K3,3", "H(2,4)", "circ(10;1,2,3)"],
    )
    def test_first_hit_unchanged(self, g, monkeypatch):
        # against the unpruned search; on circ(10;1,2,3) that takes minutes,
        # so there the reference is the pruned search with the twin order alone
        values = tuple(range(1, g.order + 1))
        if g.order < 10:
            slow = SearchConfig(prune=False)
            assert find_labeling(g, values) == find_labeling(g, values, slow)
            assert compute_index(g) == compute_index(g, slow)
            return
        fast = (find_labeling(g, values), compute_index(g))
        monkeypatch.setattr(search, "_orbit_prev", lambda adj, colour: [-1] * len(adj))
        assert orbit_prev(g) == [-1] * g.order
        assert fast == (find_labeling(g, values), compute_index(g))

    @pytest.mark.parametrize("g", [PRISM, CUBE, blowup(PRISM, 2)], ids=lambda g: g.name)
    def test_capped_search_keeps_only_twins(self, g, monkeypatch):
        # a level whose search runs out of nodes keeps no orbit, and a graph
        # past the size limit keeps only the swaps inside blocks; these have
        # no true twins in the quotient, so both leave the false-twin chain
        values = tuple(range(1, g.order + 1))
        want = (find_labeling(g, values), compute_index(g))
        twin_chain = [
            max((u for u in range(v) if g.neighbors(u) == g.neighbors(v)), default=-1)
            for v in range(g.order)
        ]
        for name in ("_ORBIT_NODE_CAP", "_ORBIT_MAX_ORDER"):
            with monkeypatch.context() as patch:
                patch.setattr(search, name, 0)
                assert orbit_prev(g) == twin_chain
                assert (find_labeling(g, values), compute_index(g)) == want


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
        assert res.detail == "node budget 5 exhausted"

    def test_wall_clock_budget(self):
        res = compute_index(
            build_multipartite(3, 4), SearchConfig(theta_cap=2, budget_ms=0.0)
        )
        assert res.kind == "indeterminate"
        assert res.detail == "wall-clock budget 0.0 ms exhausted"

    def test_witness_is_policy_minimal(self):
        # lexicographically smallest label set first: deleting 6 from {1..7}
        res = compute_index(build_multipartite(3, 2))
        assert res.witness.label_set.values == (1, 2, 3, 4, 5, 7)

    def test_non_magic_witness_raises_under_optimize(self, run_optimized):
        # python -O strips assert statements; this self-check must survive it
        proc = run_optimized("""
            import sys
            from magiclab import _kernels, search
            from magiclab.graphs import build_cycle
            if __debug__:
                sys.exit("not running under -O")
            # 1, 2, 3, 4 around C4 weighs 6, 4, 6, 4
            _kernels.backtrack = lambda *args: (_kernels.STATUS_DONE, 1, 1, [1, 2, 3, 4])
            search.compute_index(build_cycle(4))
        """)
        assert proc.returncode == 1
        assert "AssertionError: search returned a non-magic labeling" in proc.stderr


class TestTwins:
    def test_complete_graph(self):
        assert adjacent_twins(build_multipartite(1, 3)) is not None

    def test_cycle_has_none(self):
        assert adjacent_twins(build_cycle(5)) is None

    def test_octahedron_has_none(self):
        assert adjacent_twins(build_multipartite(2, 3)) is None

    # several adjacent-twin pairs: the first by u, then by v, is returned,
    # although a later u may close its pair at a smaller v
    PAIRS = [
        (build_multipartite(1, 4), (0, 1)),
        # N[0] = N[4] = {0, 3, 4} and N[1] = N[2] = {1, 2, 3}
        (Graph(5, [(0, 3), (0, 4), (3, 4), (1, 2), (1, 3), (2, 3)]), (0, 4)),
        # N[0] = N[3] = N[5] = {0, 3, 5}, N[1] = N[2] = {1, 2, 4}
        (Graph(6, [(0, 3), (0, 5), (3, 5), (1, 2), (1, 4), (2, 4)]), (0, 3)),
        # the same pairs on the other ids: 1 and 2 come first now
        (Graph(6, [(1, 3), (1, 5), (3, 5), (0, 2), (0, 4), (2, 4)]), (0, 2)),
        (lex_product(build_cycle(4), build_multipartite(1, 3)), (0, 1)),
    ]

    @pytest.mark.parametrize("g,pair", PAIRS)
    def test_first_pair(self, g, pair):
        assert adjacent_twins(g) == pair

    @settings(max_examples=150, deadline=None)
    @given(g=st.one_of(_small_graph(), _graph_with_twins()))
    def test_first_pair_by_definition(self, g):
        nbhd = [set(g.neighbors(u)) for u in range(g.order)]
        pairs = [
            (u, v)
            for u in range(g.order)
            for v in g.neighbors(u)
            if u < v and nbhd[u] - {v} == nbhd[v] - {u}
        ]
        assert adjacent_twins(g) == min(pairs, default=None)
