"""Simple undirected graphs and the generators used throughout the toolkit.

Vertices are dense 0-based ids.  Graphs are immutable once built, so they can
be shared freely between verifier calls and parallel test workers.
"""

from __future__ import annotations

import json
import operator
from collections import defaultdict
from itertools import accumulate, chain
from typing import Iterable

from ._limits import MAX_INPUT_ORDER

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

    __slots__ = ("order", "name", "_nbrs")

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

    @classmethod
    def _from_adjacency(cls, nbrs: tuple[tuple[int, ...], ...], name: str) -> Graph:
        """A graph from neighbour tuples that are already sorted, symmetric and loop-free.

        The generators below and the edge-list readers build graphs this
        way, with no per-edge check here; JSON input and user code go
        through __init__.
        """
        g = object.__new__(cls)
        g.order = len(nbrs)
        g.name = name
        g._nbrs = nbrs
        return g

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

    def csr(self) -> tuple[list[int], list[int]]:
        """Adjacency in CSR form: (indptr, indices), lists of Python ints."""
        adj = self._nbrs
        return list(accumulate(map(len, adj), initial=0)), [v for a in adj for v in a]

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
    differ, so the graph is n*(p-1)-regular on n*p vertices.  The vertices
    of one part share one neighbour tuple: every id outside the part.
    """
    if n < 1 or p < 1:
        raise ValueError(f"part size and part count must be >= 1, got ({n},{p})")
    parts = [tuple(chain(range(k * n), range(k * n + n, n * p))) for k in range(p)]
    return Graph._from_adjacency(
        tuple(adj for adj in parts for _ in range(n)), name=f"H({n},{p})"
    )


def empty_graph(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    if n < 1:
        raise ValueError(f"graph order must be >= 1, got {n}")
    return Graph._from_adjacency(((),) * n, name=f"E({n})")


def build_cycle(p: int) -> Graph:
    """Cycle on p >= 3 vertices, edges i ~ i+1 mod p."""
    if p < 3:
        raise ValueError(f"cycle length must be >= 3, got {p}")
    nbrs = tuple(tuple(sorted(((i - 1) % p, (i + 1) % p))) for i in range(p))
    return Graph._from_adjacency(nbrs, name=f"C({p})")


def build_circulant(p: int, offsets: Iterable[int]) -> Graph:
    """Circulant graph: i ~ i+d mod p for every offset d.

    Offsets must be distinct values in 1..p//2.  Degree is 2*len(offsets),
    less one when p is even and p/2 is an offset.
    """
    offs = list(map(operator.index, offsets))
    if not offs:
        raise ValueError("offsets must be nonempty")
    if len(set(offs)) != len(offs):
        raise ValueError(f"duplicate offsets in {offs}")
    for d in offs:
        if not (1 <= d <= p // 2):
            raise ValueError(f"offset {d} outside 1..{p // 2}")
    steps = set(offs) | {p - d for d in offs}
    nbrs = tuple(tuple(sorted((i + d) % p for d in steps)) for i in range(p))
    name = f"circ({p};{','.join(str(d) for d in sorted(offs))})"
    return Graph._from_adjacency(nbrs, name=name)


def disjoint_union(g: Graph, m: int) -> Graph:
    """m vertex-disjoint copies of g; copy k occupies ids k*|V| .. (k+1)*|V|-1."""
    if m < 1:
        raise ValueError(f"copy count must be >= 1, got {m}")
    nbrs = tuple(
        tuple([v + k * g.order for v in adj]) for k in range(m) for adj in g._nbrs
    )
    name = g.name if m == 1 else f"{m}*{g.name or 'G'}"
    return Graph._from_adjacency(nbrs, name=name)


def lex_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product g[h], vertices (a, b) -> a*|V(h)| + b (row-major).

    (a,b) ~ (a',b') iff a ~ a' in g, or a = a' and b ~ b' in h.  With h
    edgeless this is the blow-up of g; fiber i is the block of ids with
    first coordinate i.  Vertex (a, b) sees the whole fibers of a's
    neighbours below a, then its own fiber's h-neighbours, then the whole
    fibers above a.
    """
    nh = h.order
    nbrs = []
    for a, adj in enumerate(g._nbrs):
        below = [v for c in adj if c < a for v in range(c * nh, c * nh + nh)]
        above = [v for c in adj if c > a for v in range(c * nh, c * nh + nh)]
        nbrs += [tuple(below + [a * nh + y for y in inner] + above) for inner in h._nbrs]
    name = f"{g.name or 'G'}[{h.name or 'H'}]"
    return Graph._from_adjacency(tuple(nbrs), name=name)


def regular_degree(g: Graph) -> int | None:
    """The common degree r when g is r-regular, else None."""
    degs = {len(g.neighbors(u)) for u in range(g.order)}
    return degs.pop() if len(degs) == 1 else None


# ---------------------------------------------------------------------------
# edge-list and JSON formats
# ---------------------------------------------------------------------------

def parse_edge_list(text: str, one_indexed: bool = False) -> Graph:
    """Parse "u v" lines with an optional "n <order>" header.

    Blank lines and '#' comments are skipped.  Without a header the order is
    max id + 1.  Reports malformed lines, out-of-range ids, self-loops, and
    duplicate edges with their line numbers; when a line has more than one
    of these faults, or several lines do, the first in the text is reported.
    An order above MAX_INPUT_ORDER is rejected before any vertex is
    allocated.

    A plain text, a header and then one edge per line in ASCII digits, is
    read in bulk by _read_plain.  Any other text, and any plain text with a
    fault, is read in one pass by _read_lines, which names the fault.
    """
    base = 1 if one_indexed else 0
    graph = _read_plain(text, base)
    return graph if graph is not None else _read_lines(text, base)


# every ASCII digit, to be deleted by str.translate
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _read_plain(text: str, base: int) -> Graph | None:
    r"""The graph of a plain edge list, or None when the text is not plain or has a fault.

    Plain is "n <order>", then "u v" lines, every id ASCII digits and every
    separator one space or one newline; the last newline may be missing.
    With the digits deleted such a text is "n \n" and then " \n" once per
    edge, which one comparison checks.  The text is split once, each
    distinct token is converted once, and the adjacency is built from one
    flat list of ids.  An order or id out of range, a self-loop and a
    duplicate edge all return None, so that the line scan raises.
    """
    tokens = text.split()
    edges = len(tokens) // 2 - 1
    if edges < 0 or len(tokens) % 2 or tokens[0] != "n":
        return None
    layout = "n \n" + " \n" * edges
    if text.translate(_NO_DIGITS) != (layout if text.endswith("\n") else layout[:-1]):
        return None
    body = tokens[2:]
    try:
        order = int(tokens[1])
        ids = {tok: int(tok) - base for tok in set(body)}
    except ValueError:  # more digits than int() converts
        return None
    if not 1 <= order <= MAX_INPUT_ORDER or not all(0 <= v < order for v in ids.values()):
        return None
    flat = list(map(ids.__getitem__, body))
    nbrs: list[list[int]] = [[] for _ in range(order)]
    for u, v in zip(flat[0::2], flat[1::2]):
        nbrs[u].append(v)
        nbrs[v].append(u)
    adj = []
    for vs in nbrs:
        distinct = set(vs)
        if len(distinct) != len(vs):  # a repeated edge; a self-loop lists its vertex twice
            return None
        adj.append(tuple(sorted(distinct)))
    return Graph._from_adjacency(tuple(adj), name="")


def _read_lines(text: str, base: int) -> Graph:
    """The graph of any edge-list text, read line by line; raises on its first fault.

    One pass over the lines builds the neighbour sets, so a repeated edge is
    found on its own line, like every other fault.  Without a header, the
    first id past MAX_INPUT_ORDER - 1 is a fault, as the order is the
    largest id + 1.  Each distinct token is checked once: `ids` maps it to
    its id, and a line whose two tokens are both there needs only the
    self-loop and duplicate checks.  A set is made only for a vertex with
    an edge, so a large order costs nothing until the end.
    """
    lines = text.splitlines()
    order: int | None = None
    nbrs: defaultdict[int, set[int]] = defaultdict(set)
    ids: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        tok = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tok:
            continue
        if tok[0] == "n":
            if order is not None:
                raise EdgeListParseError("repeated header", lineno)
            if nbrs:
                raise EdgeListParseError("header must precede edges", lineno)
            try:
                # isdigit admits tokens that int() refuses, such as "--5" and "²"
                if len(tok) != 2 or not tok[1].lstrip("-").isdigit():
                    raise ValueError
                order = int(tok[1])
            except ValueError:
                raise EdgeListParseError(f"bad header {_content(raw)!r}", lineno) from None
            if order < 1:
                raise EdgeListParseError(f"order must be >= 1, got {order}", lineno)
            if order > MAX_INPUT_ORDER:
                raise EdgeListParseError(
                    f"order {order} exceeds the limit {MAX_INPUT_ORDER}", lineno
                )
            continue
        if len(tok) != 2:
            raise EdgeListParseError(f"expected 'u v', got {_content(raw)!r}", lineno)
        u = ids.get(tok[0])
        v = ids.get(tok[1])
        fresh = u is None or v is None
        if fresh:
            try:
                u, v = int(tok[0]) - base, int(tok[1]) - base
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer ids in {_content(raw)!r}", lineno
                ) from None
            if u < 0 or v < 0:
                raise EdgeListParseError(
                    f"vertex id below {base} in {_content(raw)!r}", lineno
                )
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u + base}", lineno)
        if fresh:
            if order is None:
                if max(u, v) >= MAX_INPUT_ORDER:
                    raise EdgeListParseError(
                        f"vertex id {max(u, v) + base} exceeds the limit {MAX_INPUT_ORDER - 1 + base}",
                        lineno,
                    )
            elif max(u, v) >= order:
                raise EdgeListParseError(
                    f"vertex id exceeds declared order {order}", lineno
                )
            ids[tok[0]] = u
            ids[tok[1]] = v
        if v in nbrs[u]:
            # every earlier line was read without fault, so each edge's tokens are in ids
            first = next(
                at for at, t in enumerate((r.split("#", 1)[0].split() for r in lines), start=1)
                if len(t) == 2 and t[0] != "n" and {ids[t[0]], ids[t[1]]} == {u, v}
            )
            raise EdgeListParseError(
                f"duplicate edge ({min(u, v) + base},{max(u, v) + base}), first seen on line {first}",
                lineno,
            )
        nbrs[u].add(v)
        nbrs[v].add(u)
    del lines, ids  # freed before the tuples are built, which lowers the peak
    if order is None:
        if not nbrs:
            raise EdgeListParseError("empty input (no header, no edges)", 1)
        order = max(nbrs) + 1
    return Graph._from_adjacency(
        tuple(tuple(sorted(nbrs.get(u, ()))) for u in range(order)), name=""
    )


def _content(raw: str) -> str:
    """A line without its comment and surrounding blanks, as error messages quote it."""
    return raw.split("#", 1)[0].strip()


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
