import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.graphs import (
    EdgeListParseError,
    Graph,
    build_circulant,
    build_cycle,
    build_multipartite,
    disjoint_union,
    emit_edge_list,
    empty_graph,
    graph_from_json,
    graph_to_json,
    lex_product,
    parse_edge_list,
    regular_degree,
)


def assert_symmetric(g: Graph):
    for u in range(g.order):
        for v in g.neighbors(u):
            assert u != v
            assert u in g.neighbors(v)


class TestBuilders:
    def test_multipartite_single_vertex(self):
        g = build_multipartite(1, 1)
        assert g.order == 1
        assert g.num_edges == 0

    def test_multipartite_k33(self):
        g = build_multipartite(3, 2)
        assert g.order == 6
        assert g.num_edges == 9
        assert regular_degree(g) == 3
        assert g.neighbors(0) == (3, 4, 5)

    def test_multipartite_h56_degree(self):
        g = build_multipartite(5, 6)
        assert g.order == 30
        assert regular_degree(g) == 25  # n*(p-1)

    @pytest.mark.parametrize("n,p", [(2, 2), (3, 3), (4, 2), (1, 5), (2, 5)])
    def test_multipartite_regularity(self, n, p):
        assert regular_degree(build_multipartite(n, p)) == n * (p - 1)

    def test_multipartite_rejects_zero(self):
        with pytest.raises(ValueError):
            build_multipartite(0, 3)
        with pytest.raises(ValueError):
            build_multipartite(3, 0)

    def test_cycle(self):
        g = build_cycle(4)
        assert g.order == 4
        assert regular_degree(g) == 2
        with pytest.raises(ValueError):
            build_cycle(2)

    def test_circulant_with_half_offset(self):
        g = build_circulant(6, {1, 3})
        assert regular_degree(g) == 3

    def test_circulant_degree_formula(self):
        for p in range(3, 12):
            for offs in [{1}, {1, 2}, {2}]:
                if max(offs) > p // 2:
                    continue
                g = build_circulant(p, offs)
                want = 2 * len(offs) - (1 if p % 2 == 0 and p // 2 in offs else 0)
                assert regular_degree(g) == want

    def test_circulant_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            build_circulant(6, {0})
        with pytest.raises(ValueError):
            build_circulant(6, {4})
        with pytest.raises(ValueError):
            build_circulant(6, [])
        with pytest.raises(ValueError):
            build_circulant(6, [1, 1])

    def test_disjoint_union(self):
        g = disjoint_union(build_cycle(3), 2)
        assert g.order == 6
        assert g.num_edges == 6
        assert g.neighbors(3) == (4, 5)

    def test_disjoint_union_preserves_regularity(self):
        g = disjoint_union(build_multipartite(2, 3), 3)
        assert regular_degree(g) == 4
        assert g.order == 18

    def test_regular_degree_absent_on_path(self):
        path = Graph(3, [(0, 1), (1, 2)])
        assert regular_degree(path) is None


class TestLexProduct:
    def test_k2_blowup_is_bipartite(self):
        got = lex_product(build_multipartite(1, 2), empty_graph(3))
        assert got == build_multipartite(3, 2)

    def test_blowup_by_one_is_identity(self):
        c4 = build_cycle(4)
        assert lex_product(c4, empty_graph(1)) == c4

    def test_triangle_blowup_is_octahedron(self):
        got = lex_product(build_cycle(3), empty_graph(2))
        assert got.order == 6
        assert regular_degree(got) == 4
        assert got == build_multipartite(2, 3)

    def test_order_and_degree(self):
        g = lex_product(build_cycle(5), empty_graph(3))
        assert g.order == 15
        assert regular_degree(g) == 6  # r*n

    def test_second_factor_edges(self):
        # g[h] keeps h-edges inside each fiber
        got = lex_product(build_multipartite(1, 2), build_multipartite(1, 2))
        assert got == build_multipartite(1, 4)


class TestInvariants:
    def test_symmetry_after_every_builder(self):
        corpus = [
            build_multipartite(n, p) for n in (1, 2, 3, 5) for p in (1, 2, 4)
        ]
        corpus += [build_cycle(p) for p in (3, 4, 7)]
        corpus += [build_circulant(8, {1, 4}), build_circulant(9, {2, 3})]
        corpus += [disjoint_union(build_cycle(4), 3)]
        corpus += [lex_product(build_cycle(4), empty_graph(3))]
        for g in corpus:
            assert g.order <= 60
            assert_symmetric(g)

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError, match=r"duplicate edge \(0,1\)"):
            Graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match=r"duplicate edge \(1,2\)"):
            Graph(3, [(2, 1), (2, 1)])
        with pytest.raises(ValueError):
            Graph(2, [(0, 5)])


class TestEdgeListFormat:
    def test_parse_k2(self):
        g = parse_edge_list("n 2\n0 1")
        assert g == build_multipartite(1, 2)

    def test_parse_without_header(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.order == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("n 3\n0 1\n2 2")
        assert exc.value.line == 3

    def test_duplicate_reports_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("0 1\n1 0")
        assert exc.value.line == 2

    def test_out_of_range_reports_line(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("n 2\n0 3")
        assert exc.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 1 2")
        with pytest.raises(EdgeListParseError):
            parse_edge_list("a b")

    def test_one_indexed(self):
        g = parse_edge_list("n 2\n1 2", one_indexed=True)
        assert g == build_multipartite(1, 2)
        assert emit_edge_list(g, one_indexed=True) == "n 2\n1 2\n"

    def test_round_trip_fixed(self):
        text = "n 4\n0 1\n2 3\n1 2\n"
        g = parse_edge_list(text)
        canon = emit_edge_list(g)
        assert parse_edge_list(canon) == g
        assert emit_edge_list(parse_edge_list(canon)) == canon

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_round_trip_fuzzed(self, data):
        order = data.draw(st.integers(min_value=1, max_value=9))
        all_pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
        edges = data.draw(st.lists(st.sampled_from(all_pairs) if all_pairs else st.nothing(), unique=True, max_size=len(all_pairs)) if all_pairs else st.just([]))
        g = Graph(order, edges)
        again = parse_edge_list(emit_edge_list(g))
        assert again == g
        assert emit_edge_list(again) == emit_edge_list(g)


class TestJson:
    def test_round_trip(self):
        g = build_circulant(7, {1, 3})
        doc = graph_to_json(g)
        assert graph_from_json(doc) == g
        assert doc["order"] == 7
        assert doc["name"] == g.name
