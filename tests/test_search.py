import random
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
        indptr, nbrs, plus, minus, twin_prev, targets = search._search_rows(g, refs, rows)
        forced = search._forced_constant(regular_degree(g), values)
        # C6[K2] has a targeted row per fiber, c/2 = 13 on 1..12; the
        # prism's constant 10.5 is fractional
        targets = search._row_targets(targets, forced[1]) if forced[1] >= 0 else []
        assert bool(targets) == (g.name == "C(6)[E(2)]")
        for (have_c, c), prune in product([(False, 0), forced], (True, False)):
            as_arrays = _kernels.backtrack(
                *(np.asarray(a, dtype=np.int64) for a in (indptr, nbrs, values)),
                have_c, c, prune, limit,
                2**62, 2**62, plus, minus, np.asarray(twin_prev, dtype=np.int64),
                np.asarray(targets, dtype=np.int64),
            )
            as_lists = _kernels.backtrack(
                indptr, nbrs, list(values), have_c, c, prune, limit,
                2**62, 2**62, plus, minus, twin_prev, targets,
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

    def test_float_targets_raise(self):
        # the row f(0) + f(1) = 3.5 would read as 3 if truncated, and 1, 2
        # would pass it
        indptr, nbrs = build_cycle(4).csr()
        args = (indptr, nbrs, [1, 2, 3, 4], True, 5, True, -1, 1, 1, [[0], [0], [], []], [[]] * 4, [])
        assert _kernels.backtrack(*args, [3])[2] == 1
        with pytest.raises(ValueError, match="must be integers"):
            _kernels.backtrack(*args, [3.5])

    ROW_CASES = [
        (blowup(build_cycle(6), 2), tuple(range(1, 13))),
        # each part sums to c/3 = 20 on 1..13 without 11
        (build_multipartite(3, 4), LabelSet.without(13, 11).values),
        (K322, tuple(range(1, 8))),
        (S4_2K1, tuple(range(1, 8))),
    ]

    @pytest.mark.parametrize("g,values", ROW_CASES, ids=[g.name for g, _ in ROW_CASES])
    def test_vertex_rows_and_class_rows_agree(self, g, values):
        # the CSR adjacency repeats a weight row for every twin, and a
        # repeated row prunes and accepts exactly what the first one does;
        # a first hit on a nonsingular quotient (C6[K2], H(3,4)) holds no
        # weight row, since its class rows fix every weight
        forced = search._forced_constant(regular_degree(g), values)
        for first_hit in (True, False):
            indptr, nbrs, plus, minus, prev, targets = search._search_rows(g, regular_degree(g) is None, first_hit)
            extra = (plus, minus, prev, search._row_targets(targets, forced[1]))
            assert len(indptr) < g.order + 1
            if indptr == [0]:
                assert first_hit and g.name in ("C(6)[E(2)]", "H(3,4)")
                continue
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
        # every row can still reach 0 with its p open + entries and its m
        # open - entries each taken as distinct integers between the
        # smallest and the largest unused label other than lab
        others = [x for x, u in zip(labels, used) if not u and x != lab]
        a, b = min(others, default=0), max(others, default=0)
        for rows, sign in ((prow, 1), (mrow, -1)):
            for r in rows:
                s = rsum[r] + sign * lab
                p = npos[r] - (sign > 0)
                m = nneg[r] - (sign < 0)
                low = s + sum(range(a, a + p)) - sum(range(b - m + 1, b + 1))
                high = s + sum(range(b - p + 1, b + 1)) - sum(range(a, a + m))
                if not low <= 0 <= high:
                    return False
        return True

    @staticmethod
    def completes(labels, used, lab, prow, mrow, rsum, npos, nneg):
        # every row reaches 0 when its open entries take distinct unused
        # labels other than lab, each row on its own
        others = [x for x, u in zip(labels, used) if not u and x != lab]
        for rows, sign in ((prow, 1), (mrow, -1)):
            for r in rows:
                s = rsum[r] + sign * lab
                p = npos[r] - (sign > 0)
                m = nneg[r] - (sign < 0)
                if not any(
                    s + sum(pos) - sum(neg) == 0
                    for pos in combinations(others, p)
                    for neg in combinations([x for x in others if x not in pos], m)
                ):
                    return False
        return True

    @staticmethod
    def random_state(rng, reachable):
        """A vertex's rows in a random walk state: labels, used, the scan
        start and (prow, mrow, rsum, npos, nneg).  With reachable, every
        row's assigned sum is set so that one unused label and one
        completion by other unused labels bring it to 0."""
        n = rng.randint(1, 8)
        labels = sorted(rng.sample(range(1, 3 * n + 1), n))
        free = rng.sample(range(n), rng.randint(1, n))
        used = [i not in free for i in range(n)]
        taken = [x for x, u in zip(labels, used) if u]
        lab = labels[free[0]]
        others = [labels[i] for i in free[1:]]
        prow, mrow, rsum, npos, nneg = [], [], [], [], []
        for r in range(rng.randint(1, 3)):
            # the vertex enters row r with sign +1 or -1 and leaves p + m
            # open entries, at most one per other unused label; the row's
            # assigned entries are used labels with either sign
            sign = rng.choice((1, -1))
            p = rng.randint(0, len(free) - 1)
            m = rng.randint(0, len(free) - 1 - p)
            assigned = rng.sample(taken, rng.randint(0, len(taken)))
            s = sum(rng.choice((1, -1)) * x for x in assigned)
            if reachable:
                pick = rng.sample(others, p + m)
                s = -(sign * lab + sum(pick[:p]) - sum(pick[p:]))
            rsum.append(s)
            (prow if sign > 0 else mrow).append(r)
            npos.append(p + (sign > 0))
            nneg.append(m + (sign < 0))
        # half the time the twin order starts the scan later
        first = rng.randint(0, n) if rng.random() < 0.5 else 0
        return labels, used, first, (prow, mrow, rsum, npos, nneg)

    def test_window_holds_exactly_the_admitted_labels(self):
        rng = random.Random(1)
        lone = closed = 0
        for _ in range(20_000):
            labels, used, first, rows = self.random_state(rng, rng.random() < 0.5)
            prow, mrow, rsum, npos, nneg = rows
            closed += any(npos[r] + nneg[r] == 1 for r in range(len(rsum)))
            lone += used.count(False) == 1
            start, stop = _kernels._row_window(labels, used, first, *rows)
            assert start >= first
            window = [x for i, x in enumerate(labels[start:stop], start) if not used[i]]
            admitted = [
                x for i, x in enumerate(labels[first:], first)
                if not used[i] and self.admits(labels, used, x, *rows)
            ]
            assert window == admitted, (labels, used, first, rows)
        assert lone and closed

    def test_window_holds_every_completable_label(self):
        # soundness by brute force: a label that some completion by
        # distinct unused labels brings every row to 0 with is never cut
        rng = random.Random(2)
        found = 0
        for _ in range(4_000):
            labels, used, first, rows = self.random_state(rng, rng.random() < 0.8)
            start, stop = _kernels._row_window(labels, used, first, *rows)
            for i in range(first, len(labels)):
                if not used[i] and self.completes(labels, used, labels[i], *rows):
                    found += 1
                    assert start <= i < stop, (labels, used, first, rows, labels[i])
        assert found > 1_000


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


def _row_sides(g: Graph) -> tuple[list[tuple], list[frozenset]]:
    """The extra rows of _search_rows for a first hit, by kind.

    Targeted rows come first, each as (+ side, - side, t, d) for the target
    c*t/d; then each difference row as the pair {+ side, - side}.
    """
    _, _, plus, minus, _, targets = search._search_rows(g, False, True)
    sides: dict[int, tuple[set, set]] = {}
    for x in range(g.order):
        for r in plus[x]:
            sides.setdefault(r, (set(), set()))[0].add(x)
        for r in minus[x]:
            sides.setdefault(r, (set(), set()))[1].add(x)
    assert sorted(sides) == list(range(len(sides)))
    rows = [tuple(map(frozenset, sides[r])) for r in range(len(sides))]
    targeted = [(*row, *target) for row, target in zip(rows, targets)]
    return targeted, [frozenset(row) for row in rows[len(targets):]]


def _parts(size: int, count: int, t: int, d: int) -> list[tuple]:
    """Targeted rows: each block of `size` consecutive vertices sums to c*t/d."""
    return [(frozenset(range(k * size, (k + 1) * size)), frozenset(), t, d) for k in range(count)]


class TestPruningRows:
    """Each distinct difference row reaches the kernel once, after the
    targeted rows that the class sums imply."""

    # a nonsingular quotient pins every class sum, and these graphs label
    # one class after another, so they keep no weight row and no
    # difference row
    PINNED = ("H(3,4)", "H(4,3)", "H(2,6)", "C(6)[E(2)]", "cube")
    COUNTS = [
        # the distinct difference rows of each graph's class pairs, and its
        # targeted rows: each part of H(n,p) sums to c/(p-1), each fiber of
        # C6[K2] to c/2, and the first triangle of the prism[K2] to c
        (build_multipartite(3, 4), 6, _parts(3, 4, 1, 3)),
        (build_multipartite(4, 3), 3, _parts(4, 3, 1, 2)),
        (build_multipartite(2, 6), 15, _parts(2, 6, 1, 5)),
        (blowup(PRISM, 2), 3, _parts(6, 1, 1, 1)),
        (blowup(build_cycle(6), 2), 6, _parts(2, 6, 1, 2)),
    ]

    @staticmethod
    def difference_rows(g: Graph) -> set[frozenset]:
        """Every distinct difference row of a pair of classes, by definition."""
        nbhd = [set(g.neighbors(u)) for u in range(g.order)]
        return {
            frozenset((frozenset(nbhd[u] - nbhd[v]), frozenset(nbhd[v] - nbhd[u])))
            for u in range(g.order)
            for v in range(u + 1, g.order)
            if 0 < len(nbhd[u] ^ nbhd[v]) <= max(len(nbhd[u]), len(nbhd[v]))
        }

    @pytest.mark.parametrize("g,count,targeted", COUNTS, ids=[f"{g.name}-{count}" for g, count, _ in COUNTS])
    def test_row_counts(self, g, count, targeted):
        got, pairwise = _row_sides(g)
        assert len(self.difference_rows(g)) == count
        assert len(pairwise) == (0 if g.name in self.PINNED else count)
        assert len(got) == len(targeted) and set(got) == set(targeted)

    @pytest.mark.parametrize(
        "g", [g for g, _, _ in COUNTS] + [PRISM, CUBE, P4_K1, G10, K322],
        ids=lambda g: g.name,
    )
    def test_distinct_rows_once_each(self, g):
        # a row and its sign flip are the same row, and a targeted row with
        # target 0 does not repeat a difference row
        targeted, rows = _row_sides(g)
        assert len(set(rows)) == len(rows)
        pinned = search._search_rows(g, False, True)[0] == [0]
        assert pinned == (g.name in self.PINNED)
        if pinned:
            # one row per class, and no other
            assert rows == [] and len(targeted) == len({g.neighbors(u) for u in range(g.order)})
            return
        wanted = self.difference_rows(g)
        assert set(rows) == wanted
        assert not {frozenset((pos, neg)) for pos, neg, t, _ in targeted if t == 0} & wanted
        # a targeted row repeats no weight row
        assert not {(pos, neg, t, d) for pos, neg, t, d in targeted} & {
            (frozenset(g.neighbors(u)), frozenset(), 1, 1) for u in range(g.order)
        }


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
        indptr, nbrs, plus, minus, _, targets = search._search_rows(g, False, True)
        for values in sets:
            fast = enumerate_labelings(g, values, SearchConfig(prune=True))
            slow = enumerate_labelings(g, values, SearchConfig(prune=False))
            assert [x.labels for x in fast] == [x.labels for x in slow]
            have_c, c = search._forced_constant(regular_degree(g), values)
            row_targets = search._row_targets(targets, c)
            if have_c and c < 0 or row_targets is None:
                # a fractional constant or target: no magic labeling
                assert slow == []
                continue
            # the extra rows alone never drop a magic labeling
            labels = np.asarray(values, dtype=np.int64)
            _, _, count, out = _kernels.backtrack(
                indptr, nbrs, labels, False, 0, True, -1, 2**62, len(slow) + 1,
                plus, minus, (), row_targets,
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
        res = compute_index(g, SearchConfig(node_limit=12))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 12, 2, 11, 3, 10, 4, 9, 5, 8, 6, 7)
        assert compute_index(g, SearchConfig(node_limit=11)).kind == "indeterminate"

    def test_h34_exact_inside_node_budget(self):
        g = build_multipartite(3, 4)
        res = compute_index(g, SearchConfig(node_limit=13))
        assert res.kind == "finite" and res.theta == 1
        assert res.witness.labels == (1, 6, 13, 2, 8, 10, 3, 5, 12, 4, 7, 9)
        assert compute_index(g, SearchConfig(node_limit=12)).kind == "indeterminate"

    def test_irregular_exact_inside_node_budget(self):
        # G10 is irregular, and N(9) is inside N(8): their difference row
        # asks f(0) + f(1) + f(7) = 0, so vertex 0's scan window is empty
        # for every set of positive labels and cap 1 is settled in 0 nodes
        res = compute_index(G10, SearchConfig(node_limit=0))
        assert res.kind == "unknown-at-cap"

    def test_prism_k2_exact_inside_node_budget(self):
        g = blowup(PRISM, 2)
        res = compute_index(g, SearchConfig(node_limit=59))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 4, 5, 8, 9, 12, 2, 3, 6, 7, 10, 11)
        assert compute_index(g, SearchConfig(node_limit=58)).kind == "indeterminate"

    def test_h43_exact_inside_node_budget(self):
        g = build_multipartite(4, 3)
        res = compute_index(g, SearchConfig(node_limit=12))
        assert res.kind == "finite" and res.theta == 0
        assert res.witness.labels == (1, 2, 11, 12, 3, 4, 9, 10, 5, 6, 7, 8)
        assert compute_index(g, SearchConfig(node_limit=11)).kind == "indeterminate"

    def test_c6k2_exact_inside_node_budget(self):
        g = blowup(build_cycle(6), 2)
        values = tuple(range(1, 13))
        hit = find_labeling(g, values, SearchConfig(node_limit=12))
        assert hit is not None and hit == find_labeling(g, values)
        with pytest.raises(SearchBudgetExceeded):
            find_labeling(g, values, SearchConfig(node_limit=11))


@st.composite
def _regular_graph(draw):
    """A regular graph of order <= 8, its vertices relabelled: a circulant,
    a blow-up B[K2] of one of order <= 4, two copies of one, or a random
    pairing of r stubs per vertex."""
    kind = draw(st.integers(0, 3))
    rng = draw(st.randoms(use_true_random=False))
    edges = set()
    if kind == 3:
        n = draw(st.integers(4, 8))
        r = draw(st.integers(1, n - 1).filter(lambda r: n * r % 2 == 0))
        for _ in range(50):
            stubs = [v for v in range(n) for _ in range(r)]
            rng.shuffle(stubs)
            edges = {tuple(sorted(stubs[i : i + 2])) for i in range(0, len(stubs), 2)}
            if len(edges) == n * r // 2 and all(u != v for u, v in edges):
                break
        else:
            kind = 0
    if kind < 3:
        b = draw(st.integers(3, 8 if kind == 0 else 4))
        steps = draw(st.sets(st.integers(1, b // 2), min_size=1, max_size=3))
        base = Graph(b, sorted({tuple(sorted((u, (u + d) % b))) for u in range(b) for d in steps}))
        g = [base, blowup(base, 2), disjoint_union(base, 2)][kind]
        n = g.order
        edges = set(g.edges())
    order = draw(st.permutations(range(n)))
    return Graph(n, sorted(tuple(sorted((order[u], order[v]))) for u, v in edges), "regular")


def _targeted_rows(g: Graph) -> list[tuple[list[int], list[int], int, int]]:
    """The targeted rows of a first hit: (+ vertices, - vertices, t, d)."""
    _, _, plus, minus, _, targets = search._search_rows(g, False, True)
    rows = [([], [], t, d) for t, d in targets]
    for x in range(g.order):
        for r in plus[x]:
            if r < len(rows):
                rows[r][0].append(x)
        for r in minus[x]:
            if r < len(rows):
                rows[r][1].append(x)
    return rows


def _rref(matrix: list[list[int]], pivots: int) -> tuple[int, list[list[Fraction]]]:
    """(rank, rows): the reduced row echelon form in Fractions, pivots 1,
    with pivots in the first `pivots` columns only."""
    rows = [list(map(Fraction, row)) for row in matrix]
    rank = 0
    for j in range(pivots):
        piv = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][j] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                rows[i] = [x - rows[i][j] * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank, rows


def _fraction_rows(g: Graph, pinned: bool = False) -> set[tuple]:
    """The targeted rows by their definition, in Fractions: the reduced
    echelon form of M s = c 1 over the false-twin classes, columns by last
    vertex, latest first; each row whose nonzero entries are all +d or -d,
    as (+ vertices, - vertices, target / c), less the weight rows unless
    pinned, when the search keeps no weight row."""
    n = g.order
    nbhd = [g.neighbors(v) for v in range(n)]
    heads = [v for v in range(n) if nbhd.index(nbhd[v]) == v]
    members = {u: [v for v in range(n) if nbhd[v] == nbhd[u]] for u in heads}
    cols = sorted(heads, key=lambda u: members[u][-1], reverse=True)
    rank, rows = _rref([[int(u in nbhd[h]) for u in cols] + [1] for h in heads], len(cols))
    weight = {(tuple(row), (), Fraction(1)) for row in nbhd}
    out = set()
    for *coef, t in rows[:rank]:
        d = max(map(abs, coef))
        if all(x in (0, d, -d) for x in coef):
            pos = tuple(sorted(v for u, x in zip(cols, coef) if x == d for v in members[u]))
            neg = tuple(sorted(v for u, x in zip(cols, coef) if x == -d for v in members[u]))
            out.add((pos, neg, t / d))
    return out if pinned else out - weight


class TestClassSumRows:
    """The +-1 rows that the class sums imply hold in every magic labeling."""

    @settings(max_examples=80, deadline=None)
    @given(g=_regular_graph(), deleted=st.integers(1, 9))
    def test_every_labeling_meets_every_targeted_row(self, g, deleted):
        rows = _targeted_rows(g)
        n = g.order
        for pool in (LabelSet.natural(n), LabelSet.without(n + 1, min(deleted, n + 1))):
            sols = enumerate_labelings(g, pool)
            _, c = search._forced_constant(regular_degree(g), pool.values)
            wanted = search._row_targets([(t, d) for *_, t, d in rows], c) if c >= 0 else None
            if wanted is None:
                # a fractional constant or target: no magic labeling
                assert sols == []
                continue
            for sol in sols:
                for (pos, neg, _, _), want in zip(rows, wanted):
                    assert sum(sol[x] for x in pos) - sum(sol[x] for x in neg) == want

    @settings(max_examples=40, deadline=None)
    @given(g=_regular_graph())
    def test_first_hit_equals_unpruned(self, g):
        values = tuple(range(1, g.order + 1))
        slow = SearchConfig(prune=False)
        assert find_labeling(g, values) == find_labeling(g, values, slow)
        assert compute_index(g) == compute_index(g, slow)

    @settings(max_examples=150, deadline=None)
    @given(g=_regular_graph())
    def test_rows_are_the_reduced_system(self, g):
        got = {
            (tuple(pos), tuple(neg), Fraction(t, d)) for pos, neg, t, d in _targeted_rows(g)
        }
        if search._search_rows(g, False, True)[0] == [0]:
            # M is nonsingular: its reduced form is s_k = c |k| / r, and
            # every class keeps its row, as no weight row is left
            assert got == _fraction_rows(g, pinned=True)
            assert len(got) == len({g.neighbors(v) for v in range(g.order)})
            return
        want = _fraction_rows(g)
        # a targeted row with target 0 is dropped when it repeats a
        # difference row, so only those may be missing
        assert got <= want
        assert all(target == 0 for _, _, target in want - got)

    @pytest.mark.parametrize(
        "g,count",
        [
            (build_cycle(6), 6),
            (build_multipartite(3, 4), 4),
            (blowup(PRISM, 2), 1),
            (build_circulant(12, [1, 4]), 9),
            (CUBE, 8),
        ],
        ids=lambda x: getattr(x, "name", str(x)),
    )
    def test_known_rows_against_fractions(self, g, count):
        rows = _targeted_rows(g)
        assert len(rows) == count
        assert {(tuple(pos), tuple(neg), Fraction(t, d)) for pos, neg, t, d in rows} <= _fraction_rows(g)

    @pytest.mark.parametrize(
        "g",
        [build_cycle(8), blowup(build_cycle(8), 3), build_multipartite(3, 2), disjoint_union(build_multipartite(2, 2), 3)],
        ids=lambda g: g.name,
    )
    def test_no_new_row(self, g):
        # C8 is singular and gives only weight rows; a quotient component
        # of two classes gives weight rows alone
        assert _targeted_rows(g) == []

    def test_irregular_graph_gets_none(self):
        for g in (P4_K1, G10, K322, STAR4):
            assert _targeted_rows(g) == []

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_elimination_matches_fractions(self, data):
        # any 0/1 matrix M with a column of ones after it, packed as
        # _class_sum_rows packs [M | 1]; pivots are taken in M only
        m = data.draw(st.integers(1, 9))
        matrix = [data.draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)) + [1] for _ in range(m)]
        w = m * (max(map(sum, matrix)).bit_length()) + 4
        rank, rows = search._eliminate([sum(x << (w * j) for j, x in enumerate(row)) for row in matrix], w)
        want_rank, want = _rref(matrix, m)
        assert rank == want_rank
        half = 1 << (w - 1)
        # half in every field, so that each reads as a nonnegative number
        off = sum(half << (w * j) for j in range(m + 1))
        coefs = [[((row + off) >> (w * j) & ((1 << w) - 1)) - half for j in range(m + 1)] for row in rows]
        for coef, reduced in zip(coefs, want[:rank]):
            pivot = next(x for x in coef if x)
            assert pivot > 0
            assert [Fraction(x, pivot) for x in coef] == reduced
        # past the rank only the column of ones can be left
        assert not any(any(coef[:m]) for coef in coefs[rank:])

    @settings(max_examples=150, deadline=None)
    @given(g=st.one_of(_small_graph(), _regular_graph()), cycles=st.lists(st.integers(3, 9), min_size=1, max_size=3),
           cliques=st.lists(st.integers(2, 6), min_size=1, max_size=3))
    def test_nonsingular_shape(self, g, cycles, cliques):
        # a True proves the matrix nonsingular; on disjoint cycles and on
        # disjoint cliques it decides
        def adjacency(graph):
            return [sum(1 << x for x in graph.neighbors(v)) for v in range(graph.order)]

        def nonsingular(adj):
            return _rref([[a >> k & 1 for k in range(len(adj))] for a in adj], len(adj))[0] == len(adj)

        union = lambda parts: Graph(
            sum(p.order for p in parts),
            [(u + sum(q.order for q in parts[:i]), v + sum(q.order for q in parts[:i])) for i, p in enumerate(parts) for u, v in p.edges()],
        )
        adj = adjacency(g)
        if search._nonsingular_shape(adj):
            assert nonsingular(adj)
        for shape in (union([build_cycle(p) for p in cycles]), union([build_multipartite(1, p) for p in cliques])):
            adj = adjacency(shape)
            assert search._nonsingular_shape(adj) == nonsingular(adj)

    def test_c6_refuted_by_fractional_targets(self, kernel_nodes):
        # each vertex of C6 must take c/2: 7/2 on 1..6, and 9/2 on 1..7
        # without 1, so only 1..7 without 4 (c/2 = 4) reaches the kernel
        res = compute_index(build_cycle(6))
        assert res.kind == "unknown-at-cap"
        assert len(kernel_nodes) == 1

    def test_large_quotient_skips_the_reduction(self, monkeypatch):
        # 192 classes: the reduction would take many times what the rest of
        # _search_rows takes, so past _CLASS_ROWS_MAX classes it is skipped
        g = build_circulant(192, [1, 2, 3])

        def fastest():
            times = []
            for _ in range(3):
                start = time.perf_counter()
                search._search_rows(g, False, True)
                times.append(time.perf_counter() - start)
            return min(times)

        guarded = fastest()
        with monkeypatch.context() as patch:
            patch.setattr(search, "_class_sum_rows", lambda *args: [])
            without = fastest()
        assert guarded < 2 * without
        eliminated = []
        monkeypatch.setattr(search, "_eliminate", lambda *args: eliminated.append(args))
        assert search._search_rows(g, False, True)[5] == []
        assert eliminated == []


def _quotient(g: Graph) -> tuple[list[list[int]], list[list[int]]]:
    """(members, M): the false-twin classes in order of first vertex, and
    the quotient's adjacency matrix over them."""
    heads: dict[tuple[int, ...], list[int]] = {}
    for v in range(g.order):
        heads.setdefault(g.neighbors(v), []).append(v)
    members = list(heads.values())
    return members, [[int(k[0] in row) for k in members] for row in heads]


@st.composite
def _pinned_graph(draw):
    """A regular graph of order <= 8 whose false-twin quotient M is
    nonsingular and not a union of edges, its vertices relabelled: C_p
    with 4 not dividing p, H(n,p) with p >= 3, a blow-up of K3 or K4 by
    K̄2, or a circulant whose M has full rank."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        g = build_cycle(draw(st.sampled_from([3, 5, 6, 7])))
    elif kind == 1:
        p = draw(st.integers(3, 8))
        g = build_multipartite(draw(st.integers(1, 8 // p)), p)
    elif kind == 2:
        g = blowup(build_multipartite(1, draw(st.integers(3, 4))), 2)
    else:
        n = draw(st.integers(5, 8))
        g = build_circulant(n, sorted(draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=3))))
        members, m = _quotient(g)
        assume(_rref([row + [1] for row in m], len(m))[0] == len(m) and max(map(sum, m)) > 1)
    order = draw(st.permutations(range(g.order)))
    return Graph(g.order, sorted(tuple(sorted((order[u], order[v]))) for u, v in g.edges()), "pinned")


class TestPinnedQuotient:
    """A nonsingular quotient fixes every class sum: a first hit walks one
    row per class and no weight row."""

    @settings(max_examples=60, deadline=None)
    @given(g=_pinned_graph())
    def test_one_row_per_class(self, g):
        indptr, nbrs, plus, minus, _, targets = search._search_rows(g, False, True)
        assert (indptr, nbrs) == ([0], [])
        sides: dict[int, tuple[list, list]] = {}
        for x in range(g.order):
            for r in plus[x]:
                sides.setdefault(r, ([], []))[0].append(x)
            for r in minus[x]:
                sides.setdefault(r, ([], []))[1].append(x)
        members, _ = _quotient(g)
        r = regular_degree(g)
        # the targeted rows: s_k = c |k| / r for every class k
        assert sorted(sides[k] for k in range(len(targets))) == sorted((twins, []) for twins in members)
        for k, (t, d) in enumerate(targets):
            assert Fraction(t, d) == Fraction(len(sides[k][0]), r)
        # the rest: the difference rows of two classes whose vertices
        # interleave in the vertex order
        nbhd = [set(g.neighbors(twins[0])) for twins in members]
        wanted = {
            frozenset((frozenset(nbhd[i] - nbhd[j]), frozenset(nbhd[j] - nbhd[i])))
            for i, j in combinations(range(len(members)), 2)
            if members[j][0] < members[i][-1] and len(nbhd[i] ^ nbhd[j]) <= r
        }
        rows = [frozenset(map(frozenset, sides[k])) for k in range(len(targets), len(sides))]
        assert len(rows) == len(set(rows)) and set(rows) == wanted

    @settings(max_examples=30, deadline=None)
    @given(g=_pinned_graph(), deleted=st.integers(1, 9))
    def test_first_hit_equals_unpruned(self, g, deleted):
        slow = SearchConfig(prune=False)
        for pool in (LabelSet.natural(g.order), LabelSet.without(g.order + 1, min(deleted, g.order + 1))):
            assert find_labeling(g, pool) == find_labeling(g, pool, slow)
        if g.order <= 7:
            assert compute_index(g) == compute_index(g, slow)

    def test_interleaved_classes_keep_their_difference_rows(self):
        # circ(12;1,2,3,5,6) is H(3,4) with class k = {k, k+4, k+8}; a class
        # row is checked only at its own vertices, and the rows joining two
        # classes that interleave still cut, so they stay: without them the
        # search takes 63 nodes
        g = build_circulant(12, [1, 2, 3, 5, 6])
        assert len(search._search_rows(g, False, True)[5]) == 4
        res = compute_index(g, SearchConfig(node_limit=50))
        assert res.kind == "finite" and res.theta == 1
        assert res.witness.labels == (1, 2, 3, 4, 6, 8, 5, 7, 13, 10, 12, 9)
        assert compute_index(g, SearchConfig(node_limit=49)).kind == "indeterminate"

    def test_kernel_without_weight_rows(self):
        # with indptr = [0] a leaf is accepted exactly when every extra row
        # meets its target: the kernel's hits are the permutations that a
        # filter keeps, in order
        rng = random.Random(26)
        hits = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            labels = sorted(rng.sample(range(1, 2 * n + 2), n))
            rows = []
            for _ in range(rng.randint(1, 3)):
                signs = [rng.choice((1, -1, 0)) for _ in range(n)]
                if not any(signs):
                    signs[rng.randrange(n)] = 1
                rows.append(signs)
            perm = rng.sample(labels, n)
            # half the time the targets come from one permutation
            targets = [
                sum(x * f for x, f in zip(signs, perm)) + (0 if rng.random() < 0.5 else rng.randint(-2, 2))
                for signs in rows
            ]
            plus = [[r for r, signs in enumerate(rows) if signs[v] > 0] for v in range(n)]
            minus = [[r for r, signs in enumerate(rows) if signs[v] < 0] for v in range(n)]
            want = [
                f for f in permutations(labels)
                if all(sum(x * y for x, y in zip(signs, f)) == t for signs, t in zip(rows, targets))
            ]
            for have_c in (False, True):
                status, _, count, out = _kernels.backtrack(
                    [0], [], labels, have_c, 0, True, -1, 2**62, 2**62, plus, minus, [], targets
                )
                assert status == _kernels.STATUS_DONE
                assert [tuple(out[k * n : (k + 1) * n]) for k in range(count)] == want
            hits += bool(want)
        assert 50 < hits < 300

    def test_non_magic_hit_raises(self, monkeypatch):
        # 1, 2, 3, 4 around C4 weighs 6, 4, 6, 4
        monkeypatch.setattr(_kernels, "backtrack", lambda *args: (_kernels.STATUS_DONE, 1, 1, [1, 2, 3, 4]))
        with pytest.raises(AssertionError, match="search returned a non-magic labeling"):
            find_labeling(build_cycle(4), range(1, 5))


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
