"""Simple undirected graphs and the generators used throughout the toolkit.

Vertices are dense 0-based ids.  Graphs are immutable once built, so they can
be shared freely between verifier calls and parallel test workers.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "EdgeListParseError",
    "MAX_INPUT_ORDER",
    "build_multipartite",
    "lex_product",
    "build_cycle",
    "build_circulant",
    "disjoint_union",
    "empty_graph",
    "regular_degree",
    "parse_edge_list",
    "emit_edge_list",
    "graph_to_json",
    "graph_from_json",
]


class EdgeListParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Graph:
    """Immutable simple undirected graph on vertices 0..order-1."""

    __slots__ = ("order", "name", "_nbrs", "_csr")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]], name: str = ""):
        if order < 1:
            raise ValueError(f"graph order must be >= 1, got {order}")
        nbrs: list[set[int]] = [set() for _ in range(order)]
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u},{v}) out of range for order {order}")
            if v in nbrs[u]:
                raise ValueError(f"duplicate edge ({min(u, v)},{max(u, v)})")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.order = order
        self.name = name
        self._nbrs: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in nbrs
        )
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._nbrs[u]

    def degree(self, u: int) -> int:
        return len(self._nbrs[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.order) for v in self._nbrs[u] if u < v]

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self._nbrs) // 2

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency in CSR form: (indptr, indices), both int64."""
        if self._csr is None:
            indptr = np.zeros(self.order + 1, dtype=np.int64)
            for u in range(self.order):
                indptr[u + 1] = indptr[u] + len(self._nbrs[u])
            indices = np.fromiter(
                (v for u in range(self.order) for v in self._nbrs[u]),
                dtype=np.int64,
                count=indptr[-1],
            )
            self._csr = (indptr, indices)
        return self._csr

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.order == other.order and self._nbrs == other._nbrs

    def __hash__(self) -> int:
        return hash((self.order, self._nbrs))

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"<Graph{tag} order={self.order} edges={self.num_edges}>"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def build_multipartite(n: int, p: int) -> Graph:
    """Complete multipartite graph with p parts of n vertices each.

    Vertex v sits in part v // n; two vertices are adjacent iff their parts
    differ, so the graph is n*(p-1)-regular on n*p vertices.
    """
    if n < 1 or p < 1:
        raise ValueError(f"part size and part count must be >= 1, got ({n},{p})")
    edges = [
        (u, v)
        for u in range(n * p)
        for v in range(u + 1, n * p)
        if u // n != v // n
    ]
    return Graph(n * p, edges, name=f"H({n},{p})")


def empty_graph(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    return Graph(n, [], name=f"E({n})")


def build_cycle(p: int) -> Graph:
    """Cycle on p >= 3 vertices, edges i ~ i+1 mod p."""
    if p < 3:
        raise ValueError(f"cycle length must be >= 3, got {p}")
    return Graph(p, [(i, (i + 1) % p) for i in range(p)], name=f"C({p})")


def build_circulant(p: int, offsets: Iterable[int]) -> Graph:
    """Circulant graph: i ~ i+d mod p for every offset d.

    Offsets must be distinct values in 1..p//2.  Degree is 2*len(offsets),
    less one when p is even and p/2 is an offset.
    """
    offs = list(offsets)
    if not offs:
        raise ValueError("offsets must be nonempty")
    if len(set(offs)) != len(offs):
        raise ValueError(f"duplicate offsets in {offs}")
    for d in offs:
        if not (1 <= d <= p // 2):
            raise ValueError(f"offset {d} outside 1..{p // 2}")
    edges = {
        (min(i, (i + d) % p), max(i, (i + d) % p)) for i in range(p) for d in offs
    }
    name = f"circ({p};{','.join(str(d) for d in sorted(offs))})"
    return Graph(p, sorted(edges), name=name)


def disjoint_union(g: Graph, m: int) -> Graph:
    """m vertex-disjoint copies of g; copy k occupies ids k*|V| .. (k+1)*|V|-1."""
    if m < 1:
        raise ValueError(f"copy count must be >= 1, got {m}")
    base = g.edges()
    edges = [
        (u + k * g.order, v + k * g.order) for k in range(m) for (u, v) in base
    ]
    name = g.name if m == 1 else f"{m}*{g.name or 'G'}"
    return Graph(m * g.order, edges, name=name)


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product g[h], vertices (a, b) -> a*|V(h)| + b (row-major).

    (a,b) ~ (a',b') iff a ~ a' in g, or a = a' and b ~ b' in h.  With h
    edgeless this is the blow-up of g; fiber i is the block of ids with
    first coordinate i.
    """
    nh = h.order
    edges = []
    for a, b in g.edges():
        for x in range(nh):
            for y in range(nh):
                edges.append((a * nh + x, b * nh + y))
    for a in range(g.order):
        for x, y in h.edges():
            edges.append((a * nh + x, a * nh + y))
    name = f"{g.name or 'G'}[{h.name or 'H'}]"
    return Graph(g.order * nh, edges, name=name)


def regular_degree(g: Graph) -> int | None:
    """The common degree r when g is r-regular, else None."""
    degs = {len(g.neighbors(u)) for u in range(g.order)}
    return degs.pop() if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# edge-list and JSON formats
# ---------------------------------------------------------------------------

# Largest order accepted from edge-list or JSON input, and by the CLI for a
# requested construction.  Graph allocates every vertex up front, so a
# header such as "n 10000000000" would exhaust memory before any other
# check could run.
MAX_INPUT_ORDER = 1_000_000


def parse_edge_list(text: str, one_indexed: bool = False) -> Graph:
    """Parse "u v" lines with an optional "n <order>" header.

    Blank lines and '#' comments are skipped.  Without a header the order is
    max id + 1.  Reports malformed lines, out-of-range ids, self-loops, and
    duplicate edges with their line numbers.  An order above MAX_INPUT_ORDER
    is rejected before any vertex is allocated.
    """
    order: int | None = None
    edges: list[tuple[int, int]] = []
    lines_of_edge: dict[tuple[int, int], int] = {}
    base = 1 if one_indexed else 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if tok[0] == "n":
            if order is not None:
                raise EdgeListParseError("repeated header", lineno)
            if edges:
                raise EdgeListParseError("header must precede edges", lineno)
            if len(tok) != 2 or not tok[1].lstrip("-").isdigit():
                raise EdgeListParseError(f"bad header {line!r}", lineno)
            order = int(tok[1])
            if order < 1:
                raise EdgeListParseError(f"order must be >= 1, got {order}", lineno)
            if order > MAX_INPUT_ORDER:
                raise EdgeListParseError(
                    f"order {order} exceeds the limit {MAX_INPUT_ORDER}", lineno
                )
            continue
        if len(tok) != 2:
            raise EdgeListParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tok[0]) - base, int(tok[1]) - base
        except ValueError:
            raise EdgeListParseError(f"non-integer ids in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise EdgeListParseError(f"vertex id below {base} in {line!r}", lineno)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u + base}", lineno)
        if order is not None and (u >= order or v >= order):
            raise EdgeListParseError(
                f"vertex id exceeds declared order {order}", lineno
            )
        key = (min(u, v), max(u, v))
        if key in lines_of_edge:
            raise EdgeListParseError(
                f"duplicate edge ({key[0] + base},{key[1] + base}), "
                f"first seen on line {lines_of_edge[key]}",
                lineno,
            )
        lines_of_edge[key] = lineno
        edges.append(key)
    if order is None:
        if not edges:
            raise EdgeListParseError("empty input (no header, no edges)", 1)
        top = max(edges, key=lambda e: e[1])
        order = top[1] + 1
        if order > MAX_INPUT_ORDER:
            raise EdgeListParseError(
                f"vertex id {top[1] + base} exceeds the limit {MAX_INPUT_ORDER - 1 + base}",
                lines_of_edge[top],
            )
    return Graph(order, edges)


def emit_edge_list(g: Graph, one_indexed: bool = False) -> str:
    """Canonical edge-list text: header line, then sorted "u v" rows (u < v)."""
    base = 1 if one_indexed else 0
    rows = [f"n {g.order}"]
    rows.extend(f"{u + base} {v + base}" for u, v in sorted(g.edges()))
    return "\n".join(rows) + "\n"


def graph_to_json(g: Graph) -> dict:
    return {"order": g.order, "edges": [list(e) for e in sorted(g.edges())], "name": g.name}


def graph_from_json(doc: dict | str) -> Graph:
    """Graph from {"order", "edges", "name"}; ids must be JSON integers.

    Like parse_edge_list, rejects an order above MAX_INPUT_ORDER.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or not _is_int(doc.get("order")):
        raise ValueError('expected a JSON object with an integer "order" field')
    edges = doc.get("edges", [])
    if not isinstance(edges, list) or not all(
        isinstance(e, (list, tuple)) and len(e) == 2 and all(_is_int(x) for x in e)
        for e in edges
    ):
        raise ValueError('"edges" must be a list of integer pairs')
    if doc["order"] > MAX_INPUT_ORDER:
        raise ValueError(f"order {doc['order']} exceeds the limit {MAX_INPUT_ORDER}")
    return Graph(doc["order"], [(u, v) for u, v in edges], name=str(doc.get("name", "")))


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)
