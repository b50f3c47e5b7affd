import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magiclab.graphs import (
    MAX_INPUT_ORDER,
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
from magiclab.graphs import _read_lines, _read_plain


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

    def test_circulant_rejects_non_integer_offsets(self):
        # the generator checks no edge, so a float offset would become float ids
        with pytest.raises(TypeError):
            build_circulant(6, [1.0])

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


PATH3 = Graph(3, [(0, 1), (1, 2)], "P3")


def _pair(u, v):
    return (u, v) if u < v else (v, u)


def _reference(kind, *args):
    """(generated graph, its edges from the definition, pair by pair)."""
    if kind == "H":
        n, p = args
        edges = {(u, v) for u in range(n * p) for v in range(u + 1, n * p) if u // n != v // n}
        return build_multipartite(n, p), n * p, edges
    if kind == "C":
        (p,) = args
        return build_cycle(p), p, {_pair(i, (i + 1) % p) for i in range(p)}
    if kind == "circ":
        p, offs = args
        edges = {_pair(i, (i + d) % p) for i in range(p) for d in offs}
        return build_circulant(p, offs), p, edges
    if kind == "E":
        (n,) = args
        return empty_graph(n), n, set()
    if kind == "union":
        g, m = args
        k = g.order
        edges = {(u + c * k, v + c * k) for c in range(m) for u, v in g.edges()}
        return disjoint_union(g, m), m * k, edges
    g, h = args
    k = h.order
    edges = {_pair(a * k + x, b * k + y) for a, b in g.edges() for x in range(k) for y in range(k)}
    edges |= {(a * k + x, a * k + y) for a in range(g.order) for x, y in h.edges()}
    return lex_product(g, h), g.order * k, edges


GENERATED = (
    [("H", n, p) for n in range(1, 7) for p in range(1, 7)]
    + [("C", p) for p in range(3, 13)]
    + [
        ("circ", p, offs)
        for p, offs in [
            (2, (1,)), (6, (1, 3)), (8, (1, 4)), (8, (2, 4)), (9, (2, 3)),
            (10, (1, 2, 3)), (12, (1, 2)), (12, (6,)), (14, (1, 3, 5)),
        ]
    ]
    + [("E", n) for n in (1, 2, 5)]
    + [
        ("union", g, m)
        for g in (build_cycle(3), build_multipartite(2, 3), empty_graph(2), PATH3)
        for m in (1, 2, 3)
    ]
    + [
        ("lex", g, h)
        for g in (build_cycle(4), PATH3, build_circulant(6, (1, 3)))
        for h in (empty_graph(1), empty_graph(3), build_cycle(3), PATH3)
    ]
)


class TestGeneratorAdjacency:
    """Generators build adjacency directly; it must match the validated path."""

    @pytest.mark.parametrize(
        "case",
        GENERATED,
        ids=lambda c: "-".join(x.name if isinstance(x, Graph) else str(x) for x in c),
    )
    def test_matches_validated_graph(self, case):
        g, order, edges = _reference(*case)
        assert g == Graph(g.order, g.edges())
        assert g == Graph(order, sorted(edges))
        for u in range(g.order):
            adj = g.neighbors(u)
            assert list(adj) == sorted(set(adj))
            assert u not in adj
            assert all(type(v) is int and u in g.neighbors(v) for v in adj)


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


LIMIT = MAX_INPUT_ORDER

# (input, one_indexed, line, full message) for every parse error kind; a
# duplicate found before any later fault is the one reported
PARSE_ERRORS = [
    ("0 1\n1 0", False, 2, "line 2: duplicate edge (0,1), first seen on line 1"),
    ("0 1\n1 2\n0 1", False, 3, "line 3: duplicate edge (0,1), first seen on line 1"),
    (
        "# a comment\n\n0 1\n   \n1 2  # tail\n# more\n\n2 1",
        False, 8, "line 8: duplicate edge (1,2), first seen on line 5",
    ),
    ("n 3\n1 2\n2 3\n2 1", True, 4, "line 4: duplicate edge (1,2), first seen on line 2"),
    ("1 2\n\n# c\n2 1", True, 4, "line 4: duplicate edge (1,2), first seen on line 1"),
    ("0 1\n1 0\n0 1 2", False, 2, "line 2: duplicate edge (0,1), first seen on line 1"),
    # a fault before a later duplicate comes first; a third copy is named on the second
    ("0 1\n0 1 2\n1 0", False, 2, "line 2: expected 'u v', got '0 1 2'"),
    ("0 1\n1 0\n0 1", False, 2, "line 2: duplicate edge (0,1), first seen on line 1"),
    ("0 1\n01 0", False, 2, "line 2: duplicate edge (0,1), first seen on line 1"),
    (f"0 1\n1 0\n0 {LIMIT}", False, 2, "line 2: duplicate edge (0,1), first seen on line 1"),
    (f"0 1\n0 {LIMIT}", False, 2, f"line 2: vertex id {LIMIT} exceeds the limit {LIMIT - 1}"),
    (f"0 1\n0 {LIMIT}\n0 1", False, 2, f"line 2: vertex id {LIMIT} exceeds the limit {LIMIT - 1}"),
    (
        f"0 1\n5 {LIMIT}\n{LIMIT} 3",
        False, 2, f"line 2: vertex id {LIMIT} exceeds the limit {LIMIT - 1}",
    ),
    (f"0 1\n5 {LIMIT}\n{2 * LIMIT} 3", False, 2, f"line 2: vertex id {LIMIT} exceeds the limit {LIMIT - 1}"),
    (f"0 {LIMIT}\n0 1 2", False, 1, f"line 1: vertex id {LIMIT} exceeds the limit {LIMIT - 1}"),
    (f"1 {LIMIT + 1}", True, 1, f"line 1: vertex id {LIMIT + 1} exceeds the limit {LIMIT}"),
    ("n 3\n0 1\n2 2", False, 3, "line 3: self-loop at vertex 2"),
    ("n 3\n1 1", True, 2, "line 2: self-loop at vertex 1"),
    ("n 2\n0 3", False, 2, "line 2: vertex id exceeds declared order 2"),
    ("n 2\n1 3", True, 2, "line 2: vertex id exceeds declared order 2"),
    ("0 1\n-1 2", False, 2, "line 2: vertex id below 0 in '-1 2'"),
    ("1 2\n0 2", True, 2, "line 2: vertex id below 1 in '0 2'"),
    ("n x", False, 1, "line 1: bad header 'n x'"),
    # each passes the header's isdigit check, and int() refuses it
    ("n --5\n0 1", False, 1, "line 1: bad header 'n --5'"),
    ("n ²", False, 1, "line 1: bad header 'n ²'"),
    ("n " + "9" * 5000, False, 1, f"line 1: bad header 'n {'9' * 5000}'"),  # past int()'s digit limit
    ("  n   x  # note", False, 1, "line 1: bad header 'n   x'"),
    ("n 2 3", False, 1, "line 1: bad header 'n 2 3'"),
    ("n 0", False, 1, "line 1: order must be >= 1, got 0"),
    (f"n {LIMIT + 1}", False, 1, f"line 1: order {LIMIT + 1} exceeds the limit {LIMIT}"),
    ("n 3\nn 3", False, 2, "line 2: repeated header"),
    ("0 1\nn 3", False, 2, "line 2: header must precede edges"),
    ("\n 0  1 2 # c", False, 2, "line 2: expected 'u v', got '0  1 2'"),
    ("0 1\n  a  b  #x", False, 2, "line 2: non-integer ids in 'a  b'"),
    # a token seen on an earlier line is not checked again, its partner is
    ("0 1\n1 2\n1 1", False, 3, "line 3: self-loop at vertex 1"),
    ("0 1\n01 1", False, 2, "line 2: self-loop at vertex 1"),
    ("0 1\n1 x", False, 2, "line 2: non-integer ids in '1 x'"),
    ("n 2\n0 1\n1 2", False, 3, "line 3: vertex id exceeds declared order 2"),
    ("1 2\n2 0", True, 2, "line 2: vertex id below 1 in '2 0'"),
    ("", False, 1, "line 1: empty input (no header, no edges)"),
    ("# only\n\n", False, 1, "line 1: empty input (no header, no edges)"),
]


class TestEdgeListErrors:
    @pytest.mark.parametrize("text,one_indexed,line,message", PARSE_ERRORS)
    def test_message_and_line(self, text, one_indexed, line, message):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(text, one_indexed=one_indexed)
        assert str(exc.value) == message
        assert exc.value.line == line


FAULTS = ["self-loop", "out of range", "non-integer", "three ids", "repeat"]


@st.composite
def two_faults(draw) -> tuple[str, bool, int]:
    """(text, one_indexed, line): a valid edge list with faults put on two lines, the first on `line`.

    Each fault is one of FAULTS; a repeat copies an earlier valid edge,
    perhaps reversed or with a leading zero.
    """
    order = draw(st.integers(min_value=2, max_value=7))
    base = draw(st.integers(min_value=0, max_value=1))
    pairs = [(u, v) for u in range(order) for v in range(order) if u < v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    lines = [f"{u + base} {v + base}" for u, v in edges]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(st.sampled_from(["", "# c", "  "])))
    head = [f"n {order}"] if draw(st.booleans()) else []
    lines = head + lines
    valid = [line for line in lines[len(head):] if line.strip() and not line.startswith("#")]
    too_big = [base - 1, MAX_INPUT_ORDER + base] + ([order + base] if head else [])
    at = draw(st.integers(min_value=len(head), max_value=len(lines)))
    first = at + 1
    for _ in range(2):
        earlier = [line.split() for line in lines[:at] if line in valid]
        kind = draw(st.sampled_from(FAULTS if earlier else FAULTS[:-1]))
        if kind == "self-loop":
            fault = [str(draw(st.integers(min_value=base, max_value=order + base - 1)))] * 2
        elif kind == "out of range":
            fault = [str(base), str(draw(st.sampled_from(too_big)))]
        elif kind == "non-integer":
            fault = [str(base), draw(st.sampled_from(["x", "1.0", "0x1", "²"]))]
        elif kind == "three ids":
            fault = [str(base), str(base + 1), str(base)]
        else:
            fault = draw(st.sampled_from(earlier))[:: draw(st.sampled_from([1, -1]))]
            if draw(st.booleans()):
                fault = ["0" + fault[0], fault[1]]
        lines.insert(at, " ".join(fault))
        at = draw(st.integers(min_value=at + 1, max_value=len(lines)))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines), bool(base), first


class TestFirstFault:
    """Of two faults, the one on the earlier line is reported, whatever their kinds."""

    @settings(max_examples=300, deadline=None)
    @given(two_faults())
    def test_earlier_line_is_named(self, case):
        text, one_indexed, line = case
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(text, one_indexed=one_indexed)
        assert exc.value.line == line


# tokens that are not ASCII-digit ids: some int() reads, some it refuses
ODD_TOKENS = ["x", "-1", "+1", "1_0", "0x1", "²", "١", "３", "1.0"]


EDITS = [
    "duplicate", "self-loop", "out of range", "odd token", "leading zero", "three ids",
    "bad header", "no header", "comment", "blank line", "tab", "double space", "crlf",
    "no final newline",
]


@st.composite
def edge_list_texts(draw) -> tuple[str, bool]:
    """(text, one_indexed): a simple graph written out plainly, then up to three edits.

    Each line is [tokens, separator, line end]; the edits add faults
    (duplicates, self-loops, bad ids and headers) and layouts that are not
    plain (comments, blank lines, tabs, CRLF, no header).
    """
    order = draw(st.integers(min_value=1, max_value=7))
    base = draw(st.integers(min_value=0, max_value=1))
    pairs = [(u, v) for u in range(order) for v in range(order) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique_by=frozenset)) if pairs else []
    lines = [[["n", str(order)], " ", "\n"]]
    lines += [[[str(u + base), str(v + base)], " ", "\n"] for u, v in edges]
    for edit in draw(st.lists(st.sampled_from(EDITS), max_size=3)):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        line = lines[at % len(lines)] if lines else [[], " ", "\n"]
        if edit == "duplicate" and len(lines) > 1:
            tokens = draw(st.sampled_from(lines))[0]
            lines.insert(at, [tokens[:: draw(st.sampled_from([1, -1]))], " ", "\n"])
        elif edit == "self-loop":
            lines.insert(at, [[str(draw(st.integers(min_value=0, max_value=order)))] * 2, " ", "\n"])
        elif edit == "out of range":
            bad = draw(st.sampled_from([order + base, base - 1, MAX_INPUT_ORDER]))
            lines.insert(at, [[str(base), str(bad)], " ", "\n"])
        elif edit == "odd token" and line[0]:
            line[0][-1] = draw(st.sampled_from(ODD_TOKENS))
        elif edit == "leading zero" and line[0]:
            line[0][-1] = "0" + line[0][-1]
        elif edit == "three ids":
            line[0].append(str(base))
        elif edit == "bad header" and lines and lines[0][0][:1] == ["n"]:
            lines[0][0][1:] = [draw(st.sampled_from(["0", str(MAX_INPUT_ORDER + 1), "--5", "²", "x"]))]
        elif edit == "no header" and lines and lines[0][0][:1] == ["n"]:
            del lines[0]
        elif edit == "comment":
            lines.insert(at, [["#", "c"], " ", "\n"])
        elif edit == "blank line":
            lines.insert(at, [[], " ", "\n"])
        elif edit in ("tab", "double space"):
            line[1] = "\t" if edit == "tab" else "  "
        elif edit == "crlf":
            line[2] = "\r\n"
        elif edit == "no final newline" and lines:
            lines[-1][2] = ""
    return "".join(sep.join(tokens) + end for tokens, sep, end in lines), bool(base)


def _outcome(read, *args):
    """read(*args) as (order, name, adjacency), or its ValueError as (type, message)."""
    try:
        g = read(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.order, g.name, tuple(map(g.neighbors, range(g.order)))


class TestBulkRead:
    """A plain edge list is read in bulk; the line scan reads every other text the same."""

    @settings(max_examples=400, deadline=None)
    @given(edge_list_texts())
    def test_same_as_line_scan(self, case):
        text, one_indexed = case
        base = int(one_indexed)
        expected = _outcome(_read_lines, text, base)
        assert _outcome(parse_edge_list, text, one_indexed) == expected
        bulk = _read_plain(text, base)
        if bulk is not None:
            assert _outcome(lambda: bulk) == expected

    @pytest.mark.parametrize("text,one_indexed", [
        (emit_edge_list(build_multipartite(3, 4)), False),
        (emit_edge_list(build_cycle(5), one_indexed=True), True),
        ("n 4\n3 0\n1 2\n0 1", False),
        ("n 3\n00 02\n1 2\n", False),
        ("n 7\n", False),
    ])
    def test_plain_text_is_read_in_bulk(self, text, one_indexed):
        bulk = _read_plain(text, int(one_indexed))
        assert bulk is not None
        assert bulk == parse_edge_list(text.replace("\n", "\r\n"), one_indexed=one_indexed)

    @pytest.mark.parametrize("text", [
        "n 3\r\n0 1\r\n", "n 3\n0\t1\n", "n 3\n0 1 # c\n", "n 3\n\n0 1\n", "0 1\n1 2\n",
        "n 3\n0  1\n", "n 3\n0 1 2\n1\n", "n 3\n0 ²\n", " n 3\n0 1\n", "n 3\n0 1\n1 1\n",
        "n 3\n0 1\n1 0\n", "n 3\n0 3\n", "n 0\n",
    ])
    def test_other_text_is_left_to_the_line_scan(self, text):
        assert _read_plain(text, 0) is None


class TestJson:
    def test_round_trip(self):
        g = build_circulant(7, {1, 3})
        doc = graph_to_json(g)
        assert graph_from_json(doc) == g
        assert doc["order"] == 7
        assert doc["name"] == g.name
