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
from math import gcd
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
    """Kernel inputs (indptr, nbrs, plus, minus, prev, targets) for a search of g.

    False twins (N(u) = N(v)) always weigh the same, so the weight rows
    (indptr, nbrs) hold one row per false-twin class, in CSR form: N(u) for
    the class's first vertex u, classes in the order of those vertices.  A
    first hit on a regular graph whose quotient M is nonsingular gets no
    weight row (indptr = [0]): its targeted rows fix every class sum, and
    with them every weight.

    Extra rows reach the kernel by vertex: plus[x] and minus[x] list, in
    increasing order, the rows that x enters with sign +1 and -1.  Row r
    must sum to c*t/d for the magic constant c when r < len(targets) and
    targets[r] = (t, d), and every later row must sum to 0; _row_targets
    makes the kernel's integers.
    - Targeted rows, for a first hit on a regular graph, come first: the
      +-1 rows that the class sums must meet (_class_sum_rows), less any
      that repeats a difference row.  A nonsingular M gives exactly one
      per class, s_k = c * |class k| / r.
    - Difference rows, for a first hit: in a magic labeling w(u) = w(v), so
      the labels on N(u)-N(v) and on N(v)-N(u) have equal sums, and the
      kernel can cut a partial row by the unused labels.  A pair of classes
      gets that row when its two sides hold no more vertices together than
      the larger neighborhood.  Longer rows cost a check at every vertex
      they hold and rarely cut: on the benchmark's oracle corpus, keeping
      every pair saves under 1% of the nodes and takes about 25% longer.
      Each distinct row is kept once, a row and its sign flip being the
      same row.  With a nonsingular M, only a pair of classes whose
      vertices interleave in the vertex order keeps its row: the kernel
      checks a row only at its own vertices, so there the pair row still
      cuts when one class's row has gone out of reach, while after a
      class labeled whole it only repeats the other class's row.
    - Reference rows, with refs, when no degree forces the constant: the
      pair (u, ref) for every class u other than ref, the class whose
      neighborhood is labeled first (the smallest largest neighbor).  They
      all hold exactly when every weight is equal.

    For a first hit, prev is the lex-leader order of the stabiliser chain
    (_lex_leader_prev), and the kernel still finds the lexicographically
    first witness.  Enumeration gets no order and no extra rows but
    reference rows.
    """
    n = g.order
    # the false-twin class of every vertex, numbered by first vertex
    classes: dict[tuple[int, ...], int] = {}
    cls = [classes.setdefault(g.neighbors(v), len(classes)) for v in range(n)]
    weight_rows = list(classes)
    indptr = list(accumulate(map(len, weight_rows), initial=0))
    nbrs = [x for row in weight_rows for x in row]
    plus: list[list[int]] = [[] for _ in range(n)]
    minus: list[list[int]] = [[] for _ in range(n)]
    prev: list[int] = []
    targets: list[tuple[int, int]] = []
    if not (refs or first_hit):
        return indptr, nbrs, plus, minus, prev, targets
    # neighborhoods as bit masks of vertices; each holds whole classes
    bit = [1 << x for x in range(n)]
    nbhd = [sum(map(bit.__getitem__, row)) for row in weight_rows]
    # each side of an extra row as a bit mask of vertices
    sides: list[tuple[int, int]] = []
    if first_hit:
        prev, members, adj = _lex_leader_prev(cls, weight_rows)
        rows = []
        # on a regular graph every weight is the forced constant c, and a
        # quotient component of at most two classes gives only weight rows
        # (s_b = c and s_a = c for the edge ab)
        if (
            len(adj) <= _CLASS_ROWS_MAX
            and len(set(map(len, weight_rows))) == 1
            and max(map(int.bit_count, adj)) > 1
        ):
            rows = _class_sum_rows(adj, members, weight_rows)
        # a nonsingular M gives one row per class, and they fix every class
        # sum: every weight is then c, so no weight row is needed
        pinned = len(rows) == len(adj)
        if pinned:
            indptr, nbrs = [0], []
        # a row and its sign flip are one row, keyed by its two sides
        pairs: dict[tuple[int, int], None] = {}
        for (i, nu), (j, nv) in combinations(enumerate(nbhd), 2):
            # with pinned sums, the row of classes i and j repeats class j's
            # row once i is labeled, so it is kept only when they interleave
            if pinned and members[i][-1] < members[j][0]:
                continue
            if (nu ^ nv).bit_count() <= max(len(weight_rows[i]), len(weight_rows[j])):
                pos, neg = nu & ~nv, nv & ~nu
                pairs[(pos, neg) if pos < neg else (neg, pos)] = None
        for pos, neg, t, d in rows:
            if t or ((pos, neg) if pos < neg else (neg, pos)) not in pairs:
                sides.append((pos, neg))
                targets.append((t, d))
        sides += pairs
    if refs:
        ref = nbhd[min(range(len(nbhd)), key=lambda k: max(weight_rows[k], default=-1))]
        sides += [(nu & ~ref, ref & ~nu) for nu in nbhd if nu != ref]
    for r, (pos, neg) in enumerate(sides):
        while pos:
            low = pos & -pos
            plus[low.bit_length() - 1].append(r)
            pos ^= low
        while neg:
            low = neg & -neg
            minus[low.bit_length() - 1].append(r)
            neg ^= low
    return indptr, nbrs, plus, minus, prev, targets


def _row_targets(targets: list[tuple[int, int]], c: int) -> list[int] | None:
    """The kernel's integer targets c*t/d, or None when one is fractional.

    Every magic labeling meets every row, so a fractional target means the
    label set has none.
    """
    out = []
    for t, d in targets:
        q, rest = divmod(t * c, d)
        if rest:
            return None
        out.append(q)
    return out


# a quotient with more classes gets no targeted rows: the elimination is
# cubic in the class count, and skipping rows only drops constraints
_CLASS_ROWS_MAX = 64


def _class_sum_rows(
    adj: list[int], members: list[list[int]], weight_rows: list[tuple[int, ...]]
) -> list[tuple[int, int, int, int]]:
    """The +-1 rows with known targets that the class sums must meet.

    adj[k] is the neighborhood of false-twin class k as a bit mask of
    classes, members[k] the vertices of class k in increasing order, and
    weight_rows[k] the neighborhood as vertices, on a regular graph of
    degree r.  Every weight of a magic labeling is then the forced constant
    c, so its class sums s solve M s = c 1, where row k of M is adj[k].
    A row (pos, neg, t, d) says that the labels on the vertices of the bit
    mask pos less those on neg sum to c*t/d, with t/d in lowest terms and
    d > 0.

    M times the class sizes is r * 1, so when M is nonsingular its one
    solution is s_k = c * |class k| / r, and the rows are those, one per
    class in class order (_pinned_rows).  The shape of the quotient proves
    M nonsingular without an elimination when it can (_nonsingular_shape),
    and full rank proves it otherwise.

    A singular system is reduced exactly (_eliminate), with the classes
    ordered by last vertex, latest first: the free columns are then the
    classes labeled first, and each reduced row is complete as early in the
    vertex order as it can be.  Each reduced row a.s = t c whose nonzero a
    are all +d or -d is a row, less any that repeats a weight row, so a
    singular M gives fewer rows than classes.
    """
    if _nonsingular_shape(adj):
        return _pinned_rows(members, len(weight_rows[0]))
    m = len(adj)
    cols = sorted(range(m), key=lambda k: members[k][-1], reverse=True)
    # a minor is at most the product of its rows' lengths (Hadamard), and a
    # field holds a product of two minors and their difference
    w = m * (max(map(int.bit_count, adj)) + 1).bit_length() + 4
    place = [0] * sum(map(len, members))
    # column j is class cols[j], and column m is the 1; a row holds whole
    # classes, so its first vertices place each class
    for j, k in enumerate(cols):
        place[members[k][0]] = 1 << (w * j)
    one = 1 << (w * m)
    rank, packed = _eliminate([sum(map(place.__getitem__, row)) + one for row in weight_rows], w)
    if rank == m:
        return _pinned_rows(members, len(weight_rows[0]))
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    # adding half to every field reads each as a nonnegative number
    off = half * ((one << w) - 1) // mask
    rows = []
    for row in packed[:rank]:
        row += off
        coef = [(row >> (w * j) & mask) - half for j in range(m + 1)]
        t = coef.pop()
        d = max(map(abs, coef))
        pos = neg = 0
        for k, x in zip(cols, coef):
            if x == d:
                pos |= 1 << k
            elif x == -d:
                neg |= 1 << k
            elif x:
                break
        else:
            e = gcd(t, d)
            t //= e
            d //= e
            if neg or t != d or pos not in adj:
                rows.append((_vertices(members, pos), _vertices(members, neg), t, d))
    return rows


def _pinned_rows(members: list[list[int]], degree: int) -> list[tuple[int, int, int, int]]:
    """The rows s_k = c * |class k| / r of a nonsingular M, one per class,
    as _class_sum_rows gives them."""
    rows = []
    for twins in members:
        e = gcd(len(twins), degree)
        rows.append((sum(map((1).__lshift__, twins)), 0, len(twins) // e, degree // e))
    return rows


def _nonsingular_shape(adj: list[int]) -> bool:
    """True when the shape of the graph with these bit-mask rows proves its
    adjacency matrix M nonsingular; False decides nothing.

    Two shapes, those of the quotients of the paper's graphs:
    - disjoint cliques of two or more vertices, as for a complete
      multipartite graph or a union of them: M is J - I on each clique,
      whose eigenvalues are p - 1 and -1;
    - disjoint cycles, as for C_p[K̄n]: the eigenvalues of C_p are
      2 cos(2 pi j / p), and 0 is one exactly when 4 divides p.
    """
    if all(adj) and sum(map(int.bit_count, {a | 1 << k for k, a in enumerate(adj)})) == len(adj):
        # every closed neighborhood is a block of one partition
        return True
    if any(a.bit_count() != 2 for a in adj):
        return False
    left = (1 << len(adj)) - 1
    while left:
        # walk the cycle through the first vertex left, taking it out
        start = (left & -left).bit_length() - 1
        back, here = start, (adj[start] & -adj[start]).bit_length() - 1
        left ^= 1 << start
        length = 1
        while here != start:
            left ^= 1 << here
            length += 1
            back, here = here, (adj[here] & ~(1 << back)).bit_length() - 1
        if length % 4 == 0:
            return False
    return True


def _vertices(members: list[list[int]], classes: int) -> int:
    """The vertices of the classes in a bit mask, as a bit mask."""
    out = 0
    while classes:
        low = classes & -classes
        out |= sum(map((1).__lshift__, members[low.bit_length() - 1]))
        classes ^= low
    return out


def _eliminate(rows: list[int], w: int) -> tuple[int, list[int]]:
    """(rank, rows): a matrix in reduced echelon form, up to row scaling.

    Each row is packed in one integer, column j in the w-bit field at bit
    w*j, as a signed number: the integer is the sum of entry j * 2^(w*j).
    Such integers add, scale and divide exactly as their rows do while every
    entry stays below 2^(w-1) in size, so a row operation is a few integer
    operations whatever the number of columns.  The elimination is without
    fractions (Bareiss, Math. Comp. 22, 1968, with each row reduced against
    every pivot for the Gauss-Jordan form): every entry it forms is a minor
    of the matrix, so each division is exact.  Pivots are positive, and the
    first `rank` rows hold them; there is one more column than rows, which
    never holds a pivot of [M | 1].  rows is reduced in place.
    """
    m = len(rows)
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    off = half * ((1 << (w * (m + 1))) - 1) // mask
    prev = 1
    rank = 0
    for j in range(m):
        shift = w * j
        piv = rank
        while piv < m and (rows[piv] + off) >> shift & mask == half:
            piv += 1
        if piv == m:
            continue
        p = rows[piv]
        a = ((p + off) >> shift & mask) - half
        if a < 0:
            p, a = -p, -a
        rows[piv] = rows[rank]
        rows[rank] = p
        for i, row in enumerate(rows):
            if i != rank:
                b = ((row + off) >> shift & mask) - half
                rows[i] = (a * row - b * p) // prev
        prev = a
        rank += 1
    return rank, rows


def _lex_leader_prev(
    cls: list[int], weight_rows: list[tuple[int, ...]]
) -> tuple[list[int], list[list[int]], list[int]]:
    """The stabiliser-chain predecessor of every vertex, from its twin classes.

    This is the lex-leader order (Crawford, Ginsberg, Luks & Roy, KR 1996).
    An automorphism s of g maps a magic labeling f to the magic labeling
    f o s, so the lexicographically first f has f(i) < f(j) whenever some
    automorphism fixing 0 .. i-1 sends i to j.  prev[j] is the largest such
    i < j, or -1, and the kernel scans j's labels from just above i's.
    That single predecessor implies every such constraint on j: if i1 < i2
    both reach j, then i1 reaches i2.

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

    Returns (prev, members, adj): the predecessors, the vertices of each
    class in increasing order, and Q's adjacency, each class's neighbor
    classes as a bit mask.
    """
    n = len(cls)
    m = len(weight_rows)
    prev = [-1] * n
    members: list[list[int]] = [[] for _ in range(m)]
    # a row holds whole classes, so its first vertices name each class once
    head_bit = [0] * n
    for v, c in enumerate(cls):
        twins = members[c]
        if twins:
            prev[v] = twins[-1]
        else:
            head_bit[v] = 1 << c
        twins.append(v)
    adj = [sum(map(head_bit.__getitem__, row)) for row in weight_rows]
    # degree and class size; every automorphism keeps both
    colour = list(zip(map(len, weight_rows), map(len, members)))
    for c, i in enumerate(_orbit_prev(adj, colour)):
        if i >= 0:
            prev[members[c][0]] = members[i][0]
    return prev, members, adj


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
    for the targeted and difference rows and the lex-leader order of
    _search_rows, built here too, so their time counts against budget_ms.
    On a nonsingular quotient those inputs hold no weight row, and the
    kernel accepts a leaf on the targeted rows alone, so a first hit is
    verified before it is returned (_checked).
    run() turns each targeted row's fraction of the constant into an
    integer target, and a fractional one settles the label set without a
    kernel call, as a fractional constant does.  Extra rows apply only
    when pruning.
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
        indptr, nbrs, plus, minus, prev, targets = self.inputs
        if targets:
            targets = _row_targets(targets, c)
            if targets is None:
                return []
        status, nodes, count, out = _kernels.backtrack(
            indptr, nbrs, values, have_c, c, self.cfg.prune, self.nodes_left,
            stop_after, stop_after, plus, minus, prev, targets,
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
    if not hits:
        return None
    _checked(g, hits[0])
    return hits[0]


def _checked(g: Graph, hit: Labeling) -> int:
    """The magic constant of a first hit, checked by the verifier.

    With a nonsingular quotient the kernel holds no weight row, and accepts
    a leaf on the class-sum rows alone, so every first hit is verified.
    """
    report = verify_s_magic(g, hit)
    if not report.is_magic:
        raise AssertionError("search returned a non-magic labeling")
    return report.constant


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
                    return IndexResult(
                        kind="finite",
                        theta=d,
                        method="search",
                        constant=_checked(g, hits[0]),
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
