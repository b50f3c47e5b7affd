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
    """Kernel inputs (indptr, nbrs, plus, minus, twin_prev) for a search of g.

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

    Sorting the labels inside every twin class maps a magic labeling to a
    magic labeling that is lexicographically no larger.  So for a first hit
    twin_prev[v] is the previous vertex of v's class (-1 for the first), and
    the kernel tries only increasing labels along each class and still finds
    the lexicographically first witness.  Enumeration gets no twin order.
    """
    n = g.order
    twin_prev = [-1] * n
    last: dict[tuple[int, ...], int] = {}
    for v in range(n):
        key = g.neighbors(v)
        twin_prev[v] = last.get(key, -1)
        last[key] = v
    weight_rows = [g.neighbors(u) for u in range(n) if twin_prev[u] < 0]
    nbhd = [set(row) for row in weight_rows]
    sides: list[tuple[set, set]] = []
    if first_hit:
        # a row and its sign flip are one row, keyed by its two sides
        seen: set[frozenset] = set()
        for nu, nv in combinations(nbhd, 2):
            pos, neg = nu - nv, nv - nu
            key = frozenset((frozenset(pos), frozenset(neg)))
            if len(pos) + len(neg) <= max(len(nu), len(nv)) and key not in seen:
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
    return indptr, nbrs, plus, minus, twin_prev if first_hit else []


class _Kernel:
    """The one caller of the kernel, and the one place budgets are enforced.

    Graph inputs are built once per search, after the deadline is set, so
    they count against it; the node budget is shared by every run().
    Each label set's forced constant comes from the regular degree found
    here; an irregular graph gets reference rows instead.  `first_hit` asks
    for the difference rows and the twin order of _search_rows.  Extra rows
    apply only when pruning.
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
    distance magic index is infinite.
    """
    for u in range(g.order):
        nu = set(g.neighbors(u))
        for v in g.neighbors(u):
            if v < u:
                continue
            nv = set(g.neighbors(v))
            if nu - {v} == nv - {u}:
                return u, v
    return None


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
