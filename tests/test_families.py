import hashlib
import json
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab import families
from magiclab.families import (
    HypothesisError,
    NotMagicError,
    NotRegularError,
    eit_feasible,
    eit_schedule,
    schedule_table,
    theta_hnp,
    theta_lex_blowup,
    theta_m_cycle_lex,
    theta_m_hnp,
)
from magiclab.graphs import (
    Graph,
    build_circulant,
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    lex_product,
)
from magiclab.labeling import Labeling, verify_s_magic
from magiclab.rectangles import case1, complement, construct_deleted
from magiclab.search import SearchConfig


def witness_graph(kind, *args):
    if kind == "hnp":
        n, p = args
        return build_multipartite(n, p)
    if kind == "m-hnp":
        m, n, p = args
        return disjoint_union(build_multipartite(n, p), m)
    m, p, n = args
    return disjoint_union(lex_product(build_cycle(p), empty_graph(n)), m)


def cycle_edges(start, length):
    """Edges of a cycle on start..start+length-1."""
    return [(start + i, start + (i + 1) % length) for i in range(length)]


def check_witness(result, graph):
    """Shared sanity for every constructed witness."""
    assert result.witness is not None
    report = verify_s_magic(graph, result.witness)
    assert report.is_magic
    assert report.constant == result.constant
    s = result.witness.label_set
    assert s.alpha <= graph.order + result.theta
    assert s.alpha - graph.order == result.theta
    return report


class TestThetaHnp:
    def test_5_6(self):
        r = theta_hnp(5, 6)
        assert (r.theta, r.constant) == (1, 390)
        check_witness(r, build_multipartite(5, 6))

    def test_4_3(self):
        r = theta_hnp(4, 3)
        assert (r.theta, r.constant) == (0, 52)
        report = check_witness(r, build_multipartite(4, 3))
        assert report.is_distance_magic

    def test_3_2(self):
        r = theta_hnp(3, 2)
        assert (r.theta, r.constant) == (1, 11)

    def test_rejects_hypothesis(self):
        with pytest.raises(HypothesisError):
            theta_hnp(1, 3)
        with pytest.raises(HypothesisError):
            theta_hnp(3, 1)

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("p", range(2, 8))
    def test_theta_parity_rule(self, n, p):
        r = theta_hnp(n, p)
        want = 1 if (n % 2 == 1 and p % 2 == 0) else 0
        assert r.theta == want
        check_witness(r, build_multipartite(n, p))

    def test_witness_check_raises_under_optimize(self, run_optimized):
        # python -O strips assert statements; this self-check must survive it
        proc = run_optimized("""
            import sys
            from magiclab import families, rectangles
            if __debug__:
                sys.exit("not running under -O")
            # columns summing to 5, 7 and 9 label H(2,3), so weights differ
            rectangles.balanced_even = lambda n, p: rectangles.Rectangle(((1, 2, 3), (4, 5, 6)), 6)
            families.theta_hnp(2, 3)
        """)
        assert proc.returncode == 1
        assert "AssertionError: constructed witness failed verification: ['w(0)=16 != w(2)=14'" in proc.stderr

    def test_constant_is_degree_times_column_sum(self):
        r = theta_hnp(7, 4)
        # (p-1) column sums: every vertex sees all parts but its own
        assert r.constant == 3 * ((49 * 4 + 7 + 1) // 2)


class TestThetaMHnp:
    def test_2_3_2(self):
        r = theta_m_hnp(2, 3, 2)
        assert (r.theta, r.constant) == (1, 20)
        assert r.witness.label_set.deleted == (11,)
        check_witness(r, witness_graph("m-hnp", 2, 3, 2))
        # base vertex b of 2*K_2 gets column b of one deleted rectangle
        cols = zip(*construct_deleted(3, 4).entries)
        assert r.witness.labels == tuple(x for col in cols for x in col)

    def test_1_5_6_reduces(self):
        r = theta_m_hnp(1, 5, 6)
        assert (r.theta, r.constant) == (1, 390)

    def test_3_3_3_odd_product(self):
        r = theta_m_hnp(3, 3, 3)
        assert r.theta == 0
        check_witness(r, witness_graph("m-hnp", 3, 3, 3))

    def test_matches_single_copy_dispatch(self):
        for n in range(2, 10):
            for p in range(2, 11):
                single = theta_hnp(n, p)
                multi = theta_m_hnp(1, n, p)
                assert multi.theta == single.theta
                assert multi.constant == single.constant
                assert multi.witness.labels == single.witness.labels

    @pytest.mark.parametrize("m,n,p", [(2, 3, 3), (2, 5, 2), (4, 3, 2), (3, 3, 4)])
    def test_union_witnesses(self, m, n, p):
        r = theta_m_hnp(m, n, p)
        want = 0 if (n % 2 == 0 or (m * n * p) % 2 == 1) else 1
        assert r.theta == want
        check_witness(r, witness_graph("m-hnp", m, n, p))

    def test_rejects_hypothesis(self):
        with pytest.raises(HypothesisError):
            theta_m_hnp(0, 3, 2)
        with pytest.raises(HypothesisError):
            theta_m_hnp(1, 1, 2)


class TestThetaCycleLex:
    def test_1_3_3(self):
        r = theta_m_cycle_lex(1, 3, 3)
        assert (r.theta, r.constant) == (0, 30)
        check_witness(r, witness_graph("cycle", 1, 3, 3))

    def test_quarter_cycle_has_no_witness(self):
        r = theta_m_cycle_lex(1, 4, 3)
        assert r.theta == 0
        assert r.witness is None
        assert r.theorem == "cycle-blowup-quarter"

    def test_2_3_3(self):
        r = theta_m_cycle_lex(2, 3, 3)
        assert (r.theta, r.constant) == (1, 58)
        check_witness(r, witness_graph("cycle", 2, 3, 3))

    @pytest.mark.parametrize(
        "m,p,n",
        [(1, 3, 2), (1, 5, 3), (2, 4, 2), (1, 6, 3), (3, 3, 3), (2, 5, 3)],
    )
    def test_rule_and_witnesses(self, m, p, n):
        r = theta_m_cycle_lex(m, p, n)
        if n % 2 == 0 or (m * n * p) % 2 == 1 or p % 4 == 0:
            assert r.theta == 0
        else:
            assert r.theta == 1
        if r.witness is not None:
            check_witness(r, witness_graph("cycle", m, p, n))

    def test_fiber_weight_is_two_column_sums(self):
        r = theta_m_cycle_lex(1, 6, 3)
        assert r.constant == 9 * 6 + 3 + 1  # 2 * (n^2 p + n + 1)/2

    def test_rejects_hypothesis(self):
        with pytest.raises(HypothesisError):
            theta_m_cycle_lex(1, 2, 3)


PRISM = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], "prism")


class TestThetaLexBlowup:
    def test_k33_blowup_by_one_uses_search(self):
        r = theta_lex_blowup(build_multipartite(3, 2), 1)
        assert r.method == "search"
        assert (r.theta, r.constant) == (1, 11)
        assert r.witness.label_set.values == (1, 2, 3, 4, 5, 7)

    def test_blowup_by_one_keeps_the_search_budget(self):
        # C8[K̄3] by 1 is a 24-vertex search of about 7.9M nodes unbudgeted
        g = lex_product(build_cycle(8), empty_graph(3))
        start = time.perf_counter()
        r = theta_lex_blowup(g, 1, SearchConfig(node_limit=20_000))
        assert time.perf_counter() - start < 5.0
        assert (r.kind, r.detail) == ("indeterminate", "node budget 20000 exhausted")

    def test_blowup_by_one_keeps_the_cap(self):
        r = theta_lex_blowup(build_cycle(5), 1, SearchConfig(theta_cap=0))
        assert (r.kind, r.cap) == ("unknown-at-cap", 0)

    def test_c6_by_3(self):
        r = theta_lex_blowup(build_cycle(6), 3)
        assert (r.theta, r.constant) == (1, 58)
        check_witness(r, lex_product(build_cycle(6), empty_graph(3)))

    def test_c3_by_3(self):
        r = theta_lex_blowup(build_cycle(3), 3)
        assert r.theta == 0
        check_witness(r, lex_product(build_cycle(3), empty_graph(3)))

    def test_k4_by_3_odd_degree(self):
        base = build_multipartite(1, 4)
        r = theta_lex_blowup(base, 3)
        assert (r.theta, r.constant) == (1, 60)
        check_witness(r, lex_product(base, empty_graph(3)))

    def test_even_blowup(self):
        r = theta_lex_blowup(PRISM, 2)
        assert r.theta == 0
        check_witness(r, lex_product(PRISM, empty_graph(2)))

    def test_tournament_branch_has_no_witness(self):
        # n odd, p = 0 (mod 4), r even: decided 0, construction deferred to
        # search (the 12-vertex instance is cross-checked in acceptance)
        blown = theta_lex_blowup(build_cycle(4), 3)
        assert blown.theta == 0
        assert blown.witness is None
        assert blown.theorem == "regular-blowup-tournament"

    def test_nonsingular_base_gets_deleted_witness(self):
        # 4*C3 has det A = 16: theta = 0 would need every fiber sum to be
        # the half-integer 55.5, so the deleted rectangle is optimal
        base = disjoint_union(build_cycle(3), 4)
        r = theta_lex_blowup(base, 3)
        assert (r.theta, r.constant) == (1, 112)
        assert r.theorem == "regular-blowup-nonsingular"
        check_witness(r, lex_product(base, empty_graph(3)))
        same = theta_m_hnp(4, 3, 3)
        assert (same.theta, same.constant) == (r.theta, r.constant)

    def test_singular_circulant_keeps_tournament_rule(self):
        # circ(12;1,2) has eigenvalue 0 at k = 6
        r = theta_lex_blowup(build_circulant(12, [1, 2]), 3)
        assert r.theorem == "regular-blowup-tournament"
        assert (r.theta, r.witness) == (0, None)

    @pytest.mark.parametrize("n,constant", [(3, 112), (5, 306)])
    def test_one_nonsingular_component_is_enough(self, n, constant):
        # A(C4) is singular, but on the C3 component every fiber sum would
        # be the half-integer n(12n+1)/2, so theta = 1
        base = Graph(12, cycle_edges(0, 4) + cycle_edges(4, 3) + cycle_edges(7, 5))
        r = theta_lex_blowup(base, n)
        assert (r.theta, r.constant) == (1, constant)
        assert r.theorem == "regular-blowup-nonsingular"
        check_witness(r, lex_product(base, empty_graph(n)))

    def test_large_union_of_nonsingular_components(self):
        # repeated components are tested once, so 1000*C3 (det 2^1000) is
        # decided from one 3 x 3 elimination
        base = disjoint_union(build_cycle(3), 1000)
        r = theta_lex_blowup(base, 3)
        assert r.theorem == "regular-blowup-nonsingular"
        same = theta_m_hnp(1000, 3, 3)
        assert (r.theta, r.constant) == (same.theta, same.constant) == (1, 27004)

    def test_large_base_skips_determinant(self):
        # C_4000 is one component above DET_MAX_ORDER: no elimination runs,
        # the answer stays the tournament rule and says it was not tested
        start = time.perf_counter()
        r = theta_lex_blowup(build_cycle(4000), 3)
        assert time.perf_counter() - start < 5.0
        assert (r.theta, r.witness) == (0, None)
        assert r.theorem == "regular-blowup-tournament"
        assert "not tested" in r.detail

    def test_dense_base_at_the_cap_is_decided(self):
        # the costliest input the determinant test accepts: one dense
        # component of DET_MAX_ORDER vertices, eliminated in Python ints
        base = build_circulant(families.DET_MAX_ORDER, range(1, 101))
        start = time.perf_counter()
        r = theta_lex_blowup(base, 3)
        assert time.perf_counter() - start < 10.0
        assert (r.theta, r.witness) == (0, None)
        assert r.theorem == "regular-blowup-tournament"
        assert "not tested" not in r.detail

    def test_edgeless_base(self):
        r = theta_lex_blowup(empty_graph(4), 3)
        assert (r.theta, r.constant) == (0, 0)
        check_witness(r, lex_product(empty_graph(4), empty_graph(3)))

    def test_rejects_irregular(self):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotRegularError):
            theta_lex_blowup(path, 2)


def det_by_fractions(g):
    """Reference determinant of the adjacency matrix by rational elimination."""
    size = g.order
    a = [[Fraction(int(v in g.neighbors(u))) for v in range(size)] for u in range(size)]
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, size):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def components(g):
    """The connected components of g, each as a graph on local ids."""
    seen, out = set(), []
    for root in range(g.order):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        local = {v: i for i, v in enumerate(sorted(comp))}
        edges = [(local[u], local[v]) for u, v in g.edges() if u in comp]
        out.append(Graph(len(comp), edges))
    return out


class TestNonsingular:
    @pytest.mark.parametrize(
        "g,want",
        [
            (build_cycle(3), True),
            (build_cycle(4), False),
            (build_cycle(6), True),
            (build_multipartite(1, 4), True),
            (build_multipartite(2, 3), False),
            (disjoint_union(build_cycle(3), 4), True),
            (build_circulant(12, [1, 2]), False),
            (empty_graph(2), False),
            (build_cycle(families.DET_MAX_ORDER - 2), True),
            (build_cycle(families.DET_MAX_ORDER + 2), None),  # not tested
        ],
    )
    def test_known_graphs(self, g, want):
        assert families._some_component_nonsingular(g) is want

    def test_determinant_above_the_prime(self):
        # this determinant is about 3.3e12, far above anything int64
        # residues mod a 31-bit prime could hold; exact elimination finds it
        g = build_circulant(43, [1, 3, 4, 9, 13])
        assert abs(det_by_fractions(g)) > 2**31
        assert families._some_component_nonsingular(g) is True

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_rational_elimination(self, data):
        order = data.draw(st.integers(1, 7))
        pairs = list(combinations(range(order), 2))
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(order, edges)
        want = any(det_by_fractions(c) != 0 for c in components(g))
        assert families._some_component_nonsingular(g) == want


def labels_of(result):
    return None if result.witness is None else result.witness.labels


class TestDecompositionsAgree:
    """The same graph reached through two dispatchers gets the same theta and witness."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_m_hnp_is_blowup_of_complete_graphs(self, m, n, p):
        a = theta_m_hnp(m, n, p)
        b = theta_lex_blowup(disjoint_union(build_multipartite(1, p), m), n)
        assert (a.theta, a.constant) == (b.theta, b.constant)
        assert labels_of(a) == labels_of(b)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_triangle_blowup_is_multipartite(self, m, n):
        a = theta_m_cycle_lex(m, 3, n)
        b = theta_m_hnp(m, n, 3)
        assert (a.theta, a.constant) == (b.theta, b.constant)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [3, 5, 6, 7, 10])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_cycle_blowup_is_regular_blowup(self, m, p, n):
        a = theta_m_cycle_lex(m, p, n)
        b = theta_lex_blowup(disjoint_union(build_cycle(p), m), n)
        assert (a.theta, a.constant) == (b.theta, b.constant)
        assert labels_of(a) == labels_of(b)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_four_cycle_blowup_is_bipartite(self, n):
        assert theta_m_cycle_lex(1, 4, n).theta == theta_hnp(2 * n, 2).theta


class TestAboveDeterminantCap:
    """Bases above DET_MAX_ORDER: the families' own nonsingularity facts decide."""

    def test_complete_graph_union(self):
        # A(K_301) = J - I is nonsingular; no determinant test runs on 2*K_301
        r = theta_m_hnp(2, 3, 301)
        assert (r.theta, r.theorem) == (1, "multipartite-union-deleted")
        assert r.witness is not None

    def test_cycle_union(self):
        # 4 does not divide 302, so A(C_302) is nonsingular
        r = theta_m_cycle_lex(2, 302, 3)
        assert (r.theta, r.theorem) == (1, "cycle-blowup-deleted")
        assert r.witness is not None

    def test_quarter_cycle(self):
        r = theta_m_cycle_lex(1, 304, 3)
        assert (r.theta, r.theorem, r.witness) == (0, "cycle-blowup-quarter", None)


class TestNoBlowupBuilt:
    """Witnesses are checked over the base: no graph larger than it is built."""

    @pytest.mark.parametrize(
        "call,base_order",
        [
            (lambda: theta_hnp(5, 6), 6),
            (lambda: theta_hnp(4, 3), 3),
            (lambda: theta_m_hnp(2, 3, 4), 8),
            (lambda: theta_m_hnp(3, 3, 3), 9),
            (lambda: theta_m_cycle_lex(2, 5, 3), 10),
            (lambda: theta_m_cycle_lex(1, 8, 3), 8),
            (lambda: theta_m_cycle_lex(2, 6, 2), 12),
        ],
    )
    def test_family_dispatchers(self, monkeypatch, call, base_order):
        orders = self._spy(monkeypatch)
        assert call().is_finite
        assert orders and max(orders) <= base_order

    @pytest.mark.parametrize(
        "base",
        [
            build_cycle(6),
            PRISM,
            build_multipartite(1, 4),
            disjoint_union(build_cycle(3), 4),
            build_circulant(12, [1, 2]),
            empty_graph(4),
        ],
    )
    def test_lex_blowup(self, monkeypatch, base):
        orders = self._spy(monkeypatch)
        assert theta_lex_blowup(base, 3).is_finite
        assert max(orders, default=0) <= base.order

    @staticmethod
    def _spy(monkeypatch) -> list[int]:
        # the order of every graph built, validated or by a generator
        orders: list[int] = []
        init = Graph.__init__
        from_adjacency = Graph._from_adjacency

        def counting_init(self, order, *args, **kwargs):
            orders.append(order)
            init(self, order, *args, **kwargs)

        def counting_from_adjacency(nbrs, name):
            orders.append(len(nbrs))
            return from_adjacency(nbrs, name)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        monkeypatch.setattr(Graph, "_from_adjacency", staticmethod(counting_from_adjacency))
        return orders


# the closed_form instances of perfbench/corpus.py, as (dispatcher, args)
BENCHMARK_INSTANCES = [
    (theta_hnp, (20, 30)),
    (theta_hnp, (15, 31)),
    (theta_hnp, (21, 40)),
    (theta_hnp, (25, 60)),
    (theta_m_hnp, (4, 10, 12)),
    (theta_m_hnp, (3, 11, 15)),
    (theta_m_hnp, (2, 15, 20)),
    (theta_m_cycle_lex, (2, 6, 50)),
    (theta_m_cycle_lex, (1, 8, 61)),
    (theta_m_cycle_lex, (2, 5, 51)),
    (theta_lex_blowup, (build_circulant(10, (1, 2, 3)), 50)),
    (theta_lex_blowup, (build_circulant(11, (1, 2)), 45)),
    (theta_lex_blowup, (build_circulant(10, (1, 5)), 51)),
    (theta_lex_blowup, (build_circulant(14, (1, 3, 5)), 35)),
    (theta_lex_blowup, (build_circulant(12, (1, 2)), 41)),
]


class TestRecordedAnswers:
    """Closed-form answers pinned byte for byte by the sha256 of their JSON."""

    @staticmethod
    def digest(calls) -> str:
        h = hashlib.sha256()
        for func, args in calls:
            h.update(json.dumps(func(*args).to_json_dict()).encode() + b"\n")
        return h.hexdigest()

    def test_small_grid_matches_recorded_digest(self):
        # recorded from per-edge generators and a per-cell case3
        bases = [build_cycle(p) for p in range(3, 9)] + [
            build_circulant(6, (1, 3)),
            build_circulant(8, (1, 4)),
            build_circulant(9, (2, 3)),
            build_circulant(10, (1, 2, 3)),
            build_circulant(12, (1, 2)),
            build_multipartite(2, 3),
            disjoint_union(build_cycle(3), 2),
            lex_product(build_cycle(4), empty_graph(2)),
            PRISM,
            empty_graph(4),
        ]
        calls = [(theta_hnp, (n, p)) for n in range(2, 10) for p in range(2, 10)]
        calls += [
            (theta_m_hnp, (m, n, p))
            for m in range(1, 4) for n in range(2, 7) for p in range(2, 7)
        ]
        calls += [
            (theta_m_cycle_lex, (m, p, n))
            for m in range(1, 4) for p in range(3, 11) for n in range(2, 7)
        ]
        calls += [(theta_lex_blowup, (g, n)) for g in bases for n in range(2, 6)]
        assert self.digest(calls) == (
            "b133e5e2974e1a12dc55e2808083243eb1b2625745a3438ab8b091037b754685"
        )

    def test_benchmark_instances_match_recorded_digest(self):
        assert self.digest(BENCHMARK_INSTANCES) == (
            "698ce6978290a98e996107c478f740b85aedbc20a4139576cfa1938bac2e3763"
        )


class TestEitFeasible:
    def test_8_2(self):
        v = eit_feasible(8, 2)
        assert v.feasible is True

    def test_6_2(self):
        v = eit_feasible(6, 2)
        assert v.feasible is False
        assert "mod 4" in v.reason

    def test_6_3_odd_rounds(self):
        v = eit_feasible(6, 3)
        assert v.feasible is False
        assert "odd rounds" in v.reason

    def test_6_4(self):
        # n = r + 2 = 2 (mod 4)
        assert eit_feasible(6, 4).feasible is True

    @pytest.mark.parametrize("teams", [6, 10])
    def test_two_mod_four_teams_with_rounds_zero_mod_four(self, teams):
        v = eit_feasible(teams, 4)
        assert (v.feasible, v.reason) == (True, "n = 2 (mod 4) with r = 0 (mod 4)")

    def test_out_of_range(self):
        assert eit_feasible(8, 8).feasible is False
        assert eit_feasible(8, 0).feasible is False

    @pytest.mark.parametrize("teams,rounds", [(5, 4), (7, 6), (7, 8), (7, 0)])
    def test_odd_teams_out_of_range(self, teams, rounds):
        # r = n-1 is K_n, r >= n is no simple graph, and r = 0 is refused
        v = eit_feasible(teams, rounds)
        assert v.feasible is False
        assert "2 <= r <= n-2" in v.reason

    def test_odd_teams_even_rounds_undecided(self):
        assert eit_feasible(7, 2).feasible is None
        assert eit_feasible(9, 4).feasible is None

    def test_verdict_json(self):
        doc = eit_feasible(8, 2).to_json_dict()
        assert doc["teams"] == 8 and doc["feasible"] is True


class TestEitSchedule:
    def test_k33_figure_labels(self):
        g = build_multipartite(3, 2)
        comp = complement(case1(1))
        lab = Labeling(
            tuple(comp.entries[h][c] for c in range(2) for h in range(3))
        )
        sched = eit_schedule(g, lab)
        assert sched["constant"] == 13
        assert all(row["total"] == 13 for row in sched["rows"])
        table = schedule_table(sched)
        assert "constant=13" in table

    def test_c4(self):
        sched = eit_schedule(build_cycle(4), Labeling((1, 2, 4, 3)))
        assert sched["constant"] == 5
        assert sched["rounds"] == 2

    def test_rejects_non_magic(self):
        with pytest.raises(NotMagicError):
            eit_schedule(build_cycle(4), Labeling((1, 2, 3, 4)))

    def test_rejects_irregular(self):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotRegularError):
            eit_schedule(path, Labeling((1, 2, 3)))


class TestIndexResultJson:
    def test_finite_with_witness(self):
        doc = theta_hnp(3, 2).to_json_dict()
        assert doc["theta"] == 1
        assert doc["constant"] == 11
        assert doc["labels"]
        assert doc["label_set"] == [1, 2, 3, 4, 5, 7]

    def test_witnessless(self):
        doc = theta_m_cycle_lex(1, 4, 3).to_json_dict()
        assert doc["theta"] == 0
        assert "labels" not in doc
