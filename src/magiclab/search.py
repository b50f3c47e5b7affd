"""Exact computation of magic labelings and the distance magic index.

This is the oracle side of the toolkit: a complete backtracking search over
label assignments, usable up to roughly a dozen vertices.  Results are
deterministic -- candidate label sets are tried in lexicographic order and
the first assignment found is the lexicographically smallest one -- so any
reported index is minimal by construction.
"""

from __future__ import annotations

import operator
import time
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable

from . import _kernels
from .families import IndexResult
from .graphs import Graph, regular_degree
from .labeling import Labeling, LabelSet, verify_s_magic

__all__ = [
    "SearchConfig",
    "SearchBudgetExceeded",
    "find_labeling",
    "enumerate_labelings",
    "compute_index",
    "adjacent_twins",
]

ENUMERATION_ORDER_CAP = 10


class SearchBudgetExceeded(RuntimeError):
    """The node or wall-clock budget ran out before the search finished."""


@dataclass
class SearchConfig:
    """Search limits and switches.

    theta_cap bounds the index explored by compute_index; node_limit is a
    total backtracking-node budget shared across candidate label sets (None
    = unlimited); both are integers, and a float raises ValueError.
    budget_ms is a wall-clock budget in ms, a number >= 0, checked before
    every kernel call of find_labeling, enumerate_labelings and
    compute_index.  prune disables the fail-fast checks when False (used to
    show pruning never changes outcomes).  The tie policy is fixed: smallest
    index, then lexicographically smallest label set, then smallest
    assignment.
    """

    theta_cap: int = 1
    node_limit: int | None = None
    budget_ms: float | None = None
    prune: bool = True

    def __post_init__(self):
        try:
            self.theta_cap = operator.index(self.theta_cap)
            if self.node_limit is not None:
                self.node_limit = operator.index(self.node_limit)
        except TypeError as exc:
            raise ValueError(f"theta_cap and node_limit must be integers: {exc}") from None
        if self.theta_cap < 0:
            raise ValueError(f"theta_cap must be >= 0, got {self.theta_cap}")
        if self.node_limit is not None and self.node_limit < 0:
            # the kernel reads a negative limit as "unlimited"
            raise ValueError(f"node_limit must be >= 0, got {self.node_limit}")
        if self.budget_ms is not None:
            try:
                ok = self.budget_ms >= 0  # False for NaN
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"budget_ms must be a number >= 0, got {self.budget_ms!r}")


def _as_label_tuple(g: Graph, label_set: LabelSet | Iterable[int]) -> tuple[int, ...]:
    values = (
        label_set.values
        if isinstance(label_set, LabelSet)
        else LabelSet.from_values(label_set).values
    )
    if len(values) != g.order:
        raise ValueError(
            f"label set has {len(values)} values for a graph of order {g.order}"
        )
    return values


def _forced_constant(degree: int | None, values: tuple[int, ...]) -> tuple[bool, int]:
    """(known, value) for the constant forced on a regular graph, if integral.

    For an r-regular graph of order n, summing all weights gives
    n*c = r*sum(S); `degree` is r, or None when the graph is not regular.  A
    fractional result means no magic labeling exists for this label set;
    the caller treats (known=True, value=-1) as an immediate negative.
    """
    if degree is None:
        return False, 0
    total = degree * sum(values)
    if total % len(values) != 0:
        return True, -1
    return True, total // len(values)


def _search_rows(g: Graph, refs: bool, first_hit: bool) -> tuple[list, ...]:
    """Kernel inputs (indptr, nbrs, plus, minus, prev) for a search of g.

    False twins (N(u) = N(v)) always weigh the same, so the weight rows
    (indptr, nbrs) hold one row per false-twin class, in CSR form: N(u) for
    the class's first vertex u, classes in the order of those vertices.

    Extra rows target 0 and reach the kernel by vertex: plus[x] and minus[x]
    list, in increasing order, the rows that x enters with sign +1 and -1.
    In a magic labeling w(u) = w(v), so the labels on N(u)-N(v) and on
    N(v)-N(u) have equal sums, and the kernel can cut a partial row by the
    unused labels.  Difference rows, for a first hit: a pair of classes gets
    that row when its two sides hold no more vertices together than the
    larger neighborhood.  Longer rows cost a check at every vertex they
    hold and rarely cut: on the benchmark's oracle corpus, keeping every
    pair saves under 1% of the nodes and takes about 25% longer.  Each
    distinct row is kept once, a row and its sign flip being the same row.
    Reference rows, with refs, when no degree forces the constant: the pair
    (u, ref) for every class u other than ref, the class whose neighborhood
    is labeled first (the smallest largest neighbor), after the difference
    rows.  They all hold exactly when every weight is equal.

    For a first hit, prev is the lex-leader order of the stabiliser chain
    (Crawford, Ginsberg, Luks & Roy, KR 1996).  An automorphism s of g maps
    a magic labeling f to the magic labeling f o s, so the lexicographically
    first f has f(i) < f(j) whenever some automorphism fixing 0 .. i-1
    sends i to j.  prev[j] is the largest such i < j, or -1, and the kernel
    scans j's labels from just above i's.  That single predecessor implies
    every such constraint on j: if i1 < i2 both reach j, then i1 reaches i2.
    The orbits come from the false-twin quotient (_lex_leader_prev), and
    the kernel still finds the lexicographically first witness.
    Enumeration gets no order.
    """
    n = g.order
    # the false-twin class of every vertex, numbered by first vertex
    classes: dict[tuple[int, ...], int] = {}
    cls = [classes.setdefault(g.neighbors(v), len(classes)) for v in range(n)]
    weight_rows = list(classes)
    nbhd = [set(row) for row in weight_rows]
    sides: list[tuple[set, set]] = []
    if first_hit:
        # a row and its sign flip are one row, keyed by its two sides
        seen: set[frozenset] = set()
        for (nu, du), (nv, dv) in combinations(zip(nbhd, map(len, weight_rows)), 2):
            pos, neg = nu - nv, nv - nu
            if len(pos) + len(neg) <= max(du, dv):
                key = frozenset((frozenset(pos), frozenset(neg)))
                if key not in seen:
                    seen.add(key)
                    sides.append((pos, neg))
    if refs:
        ref = nbhd[min(range(len(nbhd)), key=lambda k: max(weight_rows[k], default=-1))]
        sides += [(nu - ref, ref - nu) for nu in nbhd if nu != ref]
    plus: list[list[int]] = [[] for _ in range(n)]
    minus: list[list[int]] = [[] for _ in range(n)]
    for r, (pos, neg) in enumerate(sides):
        for x in pos:
            plus[x].append(r)
        for x in neg:
            minus[x].append(r)
    indptr = list(accumulate(map(len, weight_rows), initial=0))
    nbrs = [x for row in weight_rows for x in row]
    return indptr, nbrs, plus, minus, _lex_leader_prev(cls, weight_rows) if first_hit else []


def _lex_leader_prev(cls: list[int], weight_rows: list[tuple[int, ...]]) -> list[int]:
    """The stabiliser-chain predecessor of every vertex, from its twin classes.

    cls[v] is v's false-twin class and weight_rows[c] the neighborhood of
    class c, classes numbered by first vertex.  Every automorphism of g maps
    classes to classes of the same size; on the quotient Q, one vertex per
    class, these are the automorphisms that keep class sizes, and each one
    lifts to g with any bijections between the classes it pairs.  So a
    vertex with an earlier twin reaches exactly the later vertices of its
    class, and its predecessor is its previous twin.  The first vertex of
    class c reaches every vertex of the classes that c reaches in Q under
    the automorphisms fixing classes 0 .. c-1, and its predecessor is the
    first vertex of the last class whose orbit holds c.
    """
    n = len(cls)
    m = len(weight_rows)
    prev = [-1] * n
    last = [-1] * m
    size = [0] * m
    heads: list[int] = []
    # a row holds whole classes, so its first vertices name each class once
    head_bit = [0] * n
    for v, c in enumerate(cls):
        if last[c] < 0:
            heads.append(v)
            head_bit[v] = 1 << c
        prev[v] = last[c]
        last[c] = v
        size[c] += 1
    adj = [sum(map(head_bit.__getitem__, row)) for row in weight_rows]
    # degree and class size; every automorphism keeps both
    colour = list(zip(map(len, weight_rows), size))
    for c, i in enumerate(_orbit_prev(adj, colour)):
        if i >= 0:
            prev[heads[c]] = heads[i]
    return prev


def _orbit_prev(adj: list[int], colour: list) -> list[int]:
    """For each vertex j of a coloured graph, its stabiliser-chain predecessor.

    adj[v] is v's neighborhood as a bit mask, and automorphisms keep
    colour.  The result is the largest i < j that an automorphism fixing
    0 .. i-1 pointwise sends to j, or -1.  Two closed forms come first.

    A single cycle of one colour, as in C_p[K̄_n], has the dihedral group.
    Every vertex reaches every other, and the reflection r fixing vertex 0
    is all that fixes 0; past the first vertex a > 0 that r moves, nothing
    but the identity is left.  So every j > 0 has predecessor 0, except
    r(a), whose predecessor is a.

    Blocks are the sets of true twins of one colour (N[u] = N[v]): cliques
    whose vertices can be swapped alone.  When the blocks of each colour
    have one size and are false twins of each other (equal neighborhoods
    outside themselves, so no edge between them), those swaps and the
    swaps of whole blocks are every automorphism, as in a union of complete
    multipartite graphs.  Fixing 0 .. i-1 then fixes each block they meet,
    and i reaches the later vertices of its block if it is not the block's
    first, else every vertex of the blocks of its colour that start at i or
    later.  So j's predecessor is the previous vertex of its block, or for
    a block's first vertex the first vertex of the previous block of its
    colour.

    Any other graph goes to _orbit_search.
    """
    m = len(adj)
    if all(a.bit_count() == 2 for a in adj) and len(set(colour)) == 1:
        # walk the cycle through vertex 0, if one cycle holds every vertex
        order = [0]
        back, here = 0, (adj[0] & -adj[0]).bit_length() - 1
        while here:
            order.append(here)
            back, here = here, (adj[here] & ~(1 << back)).bit_length() - 1
        if len(order) == m:
            mirror = [0] * m
            for t, x in enumerate(order):
                mirror[x] = order[-t]
            a = next(c for c in range(1, m) if mirror[c] != c)
            prev = [-1] + [0] * (m - 1)
            prev[mirror[a]] = a
            return prev
    prev = [-1] * m
    mate = [-1] * m
    blocks: dict = {}
    lead: dict = {}
    for c, col in enumerate(colour):
        key = (adj[c] | 1 << c, col)
        mask = blocks.get(key, 0)
        if mask:
            prev[c] = mate[c] = mask.bit_length() - 1
        else:
            prev[c] = lead.get(col, -1)
            lead[col] = c
        blocks[key] = mask | 1 << c
    # one block per colour, or blocks alike within each colour
    if len(blocks) == len(lead) or len(
        {(col, mask.bit_count(), closed & ~mask) for (closed, col), mask in blocks.items()}
    ) == len(lead):
        return prev
    if m > _ORBIT_MAX_ORDER:
        return mate
    return _orbit_search(adj, colour, blocks)


# search nodes one level of the stabiliser chain may spend on its orbit; a
# level that runs out keeps no orbit, which only drops constraints
_ORBIT_NODE_CAP = 2_000
# a larger graph keeps only the swaps inside blocks, since the packed
# domains of a search take m*m bits each
_ORBIT_MAX_ORDER = 64


def _orbit_search(adj: list[int], colour: list, blocks: dict) -> list[int]:
    """_orbit_prev by search, for graphs with no closed form.

    blocks maps (closed neighborhood, colour) to its true twins, as in
    _orbit_prev.  Levels run from the last vertex to the first, as in nauty
    (McKay & Piperno, J. Symbolic Comput. 60, 2014), and orb[x] is the
    orbit of x, a bit mask, under the automorphisms found so far.  One
    found at level k fixes 0 .. k-1, so it serves every earlier level too.
    Level k first swaps k with the next vertex of its block, then searches
    for an automorphism fixing 0 .. k-1 that sends k to each candidate d
    outside orb[k]; a failed search rules out all of orb[d].

    A search is a depth-first walk over domains packed in one integer:
    field u, bits u*m .. u*m+m-1, holds the vertices u may still map to.
    Mapping v to y keeps, in field u, N(y) when u ~ v and the other
    vertices but y when not: one and over every field.  A branch dies as
    soon as a later field is empty.  The fields at the root of level k,
    with 0 .. k-1 fixed, hold its candidates.
    """
    m = len(adj)
    prev = [-1] * m
    full = (1 << m) - 1
    # ones: bit 0 of every field; high and low: the top bit and the rest
    ones = ((1 << m * m) - 1) // full
    high = ones << (m - 1)
    low = high - ones
    # same[y] repeats N(y) in every field, and near[v] fills field u when
    # u ~ v; mapping v to y keeps ~(near[v] ^ same[y]) without y
    same = [a * ones for a in adj]
    packed = sum(a << (v * m) for v, a in enumerate(adj))
    near = [(packed >> v & ones) * full for v in range(m)]
    # need[v]: the top bit of every field from v on
    need = [high & -(1 << (v * m)) for v in range(m + 1)]
    cells: dict = {}
    for (_, col), mask in blocks.items():
        cells[col] = cells.get(col, 0) | mask
    dom = sum(cells[col] << (u * m) for u, col in enumerate(colour))
    roots = []
    for k in range(m - 1):
        if dom >> (k * m) & full != 1 << k:
            roots.append((k, dom))
        dom &= ~(near[k] ^ same[k] | ones << k)
    orb = [1 << x for x in range(m)]
    unset = full
    for k, root in reversed(roots):
        twins = blocks[adj[k] | 1 << k, colour[k]] >> k + 1
        moves = [(k, (twins & -twins).bit_length() + k)] if twins else []
        todo = root >> (k * m) & full
        budget = _ORBIT_NODE_CAP
        while True:
            for x, y in moves:
                if not orb[x] >> y & 1:
                    both = rest = orb[x] | orb[y]
                    while rest:
                        z = rest & -rest
                        orb[z.bit_length() - 1] = both
                        rest ^= z
            todo &= ~orb[k]
            if not todo:
                break
            d = (todo & -todo).bit_length() - 1
            # map k to d, then v = k+1, k+2, ... to the first choice left
            image = [d]
            doms = [root & ~(near[k] ^ same[d] | ones << d)]
            v = k + 1
            choices = [doms[0] >> (v * m) & full]
            if ((doms[0] & low) + low | doms[0]) & need[v] != need[v]:
                choices.clear()
            while choices and v < m:
                pick = choices[-1]
                if not pick:
                    doms.pop()
                    choices.pop()
                    image.pop()
                    v -= 1
                    continue
                budget -= 1
                if budget < 0:
                    break
                pick &= -pick
                choices[-1] ^= pick
                y = pick.bit_length() - 1
                sub = doms[-1] & ~(near[v] ^ same[y] | ones << y)
                if ((sub & low) + low | sub) & need[v + 1] == need[v + 1]:
                    image.append(y)
                    v += 1
                    doms.append(sub)
                    choices.append(sub >> (v * m) & full)
            if budget < 0:
                break
            if v < m:
                todo &= ~orb[d]
                moves = []
            else:
                moves = zip(range(k, m), image)
        if budget >= 0:
            reached = orb[k] & unset & ~(1 << k)
            unset ^= reached
            while reached:
                z = reached & -reached
                prev[z.bit_length() - 1] = k
                reached ^= z
    return prev


class _Kernel:
    """The one caller of the kernel, and the one place budgets are enforced.

    Graph inputs are built once per search, after the deadline is set, so
    they count against it; the node budget is shared by every run().
    Each label set's forced constant comes from the regular degree found
    here; an irregular graph gets reference rows instead.  `first_hit` asks
    for the difference rows and the lex-leader order of _search_rows, built
    here too, so their time counts against budget_ms.  Extra rows apply
    only when pruning.
    """

    def __init__(self, g: Graph, cfg: SearchConfig, first_hit: bool):
        self.deadline = None
        if cfg.budget_ms is not None:
            self.deadline = time.perf_counter() + cfg.budget_ms / 1000.0
        self.cfg = cfg
        self.nodes_left = -1 if cfg.node_limit is None else cfg.node_limit
        self.degree = regular_degree(g) if cfg.prune else None
        self.inputs = _search_rows(
            g, cfg.prune and self.degree is None, cfg.prune and first_hit
        )

    def run(self, values: tuple[int, ...], stop_after: int) -> list[Labeling]:
        """The first `stop_after` magic assignments of `values`, in order.

        Raises SearchBudgetExceeded when either budget runs out first.
        """
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise SearchBudgetExceeded(
                f"wall-clock budget {self.cfg.budget_ms} ms exhausted"
            )
        have_c, c = _forced_constant(self.degree, values)
        if have_c and c < 0:
            return []
        indptr, nbrs, *extra = self.inputs
        status, nodes, count, out = _kernels.backtrack(
            indptr, nbrs, values, have_c, c, self.cfg.prune, self.nodes_left,
            stop_after, stop_after, *extra,
        )
        if status == _kernels.STATUS_NODE_LIMIT:
            raise SearchBudgetExceeded(f"node budget {self.cfg.node_limit} exhausted")
        if self.nodes_left >= 0:
            self.nodes_left = max(0, self.nodes_left - nodes)
        n = len(values)
        return [Labeling(out[k * n : (k + 1) * n]) for k in range(count)]


def find_labeling(
    g: Graph,
    label_set: LabelSet | Iterable[int],
    config: SearchConfig | None = None,
) -> Labeling | None:
    """First magic assignment of the label set, or None when none exists.

    Deterministic: the returned labeling is the lexicographically smallest
    magic assignment by vertex id.  Raises SearchBudgetExceeded when the
    node or wall-clock budget runs out -- an exhausted budget is never
    reported as absence.
    """
    cfg = config or SearchConfig()
    values = _as_label_tuple(g, label_set)
    hits = _Kernel(g, cfg, first_hit=True).run(values, 1)
    return hits[0] if hits else None


def enumerate_labelings(
    g: Graph,
    label_set: LabelSet | Iterable[int],
    config: SearchConfig | None = None,
) -> list[Labeling]:
    """Every magic assignment of the label set, in lexicographic order.

    Complete and duplicate-free; guarded to graphs of order <= 10 because
    the answer can grow factorially.  Raises SearchBudgetExceeded when the
    node or wall-clock budget runs out.
    """
    if g.order > ENUMERATION_ORDER_CAP:
        raise ValueError(
            f"enumeration is guarded to order <= {ENUMERATION_ORDER_CAP}, "
            f"got {g.order}"
        )
    cfg = config or SearchConfig()
    values = _as_label_tuple(g, label_set)
    return _Kernel(g, cfg, first_hit=False).run(values, 2**62)


def adjacent_twins(g: Graph) -> tuple[int, int] | None:
    """An adjacent pair with identical neighborhoods away from each other.

    For such u ~ v every bijection forces w(u) - w(v) = f(v) - f(u) != 0,
    so no label set of any size can be magic: a certificate that the
    distance magic index is infinite.  Such a pair is exactly two vertices
    with the same closed neighborhood N[u] = N[v], so each vertex's is
    built once.  Returns the first pair (u, v), u < v, by u and then by v.
    """
    first: dict[tuple[int, ...], int] = {}
    pair = None
    for v in range(g.order):
        row = g.neighbors(v)
        i = bisect_left(row, v)
        u = first.setdefault(row[:i] + (v,) + row[i:], v)
        # the first repeat of a closed neighborhood is its smallest pair
        if u != v and (pair is None or u < pair[0]):
            pair = u, v
    return pair


def _candidate_sets(order: int, d: int):
    """Label sets of size `order` with maximum order+d, lexicographically."""
    top = order + d
    for rest in combinations(range(1, top), order - 1):
        yield rest + (top,)


def compute_index(g: Graph, config: SearchConfig | None = None) -> IndexResult:
    """Smallest d <= theta_cap admitting a magic label set with alpha = order+d.

    Walks d upward and, within each d, candidate label sets in lexicographic
    order, so the first hit is the minimal index with the policy-minimal
    witness.  Returns kind "infinite" only with an adjacent-twin certificate,
    "unknown-at-cap" when the cap is exhausted, and "indeterminate" when a
    node or wall-clock budget ran out first.
    """
    cfg = config or SearchConfig()
    twins = adjacent_twins(g)
    if twins is not None:
        return IndexResult(
            kind="infinite",
            theta=None,
            method="search",
            detail=f"adjacent twins {twins[0]} and {twins[1]} force unequal weights",
        )
    kernel = _Kernel(g, cfg, first_hit=True)
    try:
        for d in range(cfg.theta_cap + 1):
            for values in _candidate_sets(g.order, d):
                hits = kernel.run(values, 1)
                if hits:
                    report = verify_s_magic(g, hits[0])
                    if not report.is_magic:
                        raise AssertionError("search returned a non-magic labeling")
                    return IndexResult(
                        kind="finite",
                        theta=d,
                        method="search",
                        constant=report.constant,
                        witness=hits[0],
                    )
    except SearchBudgetExceeded as exc:
        return IndexResult(
            kind="indeterminate", theta=None, method="search", cap=d, detail=str(exc)
        )
    return IndexResult(
        kind="unknown-at-cap",
        theta=None,
        method="search",
        cap=cfg.theta_cap,
        detail=f"no magic label set with index <= {cfg.theta_cap}",
    )
