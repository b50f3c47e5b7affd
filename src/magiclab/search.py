"""Exact computation of magic labelings and the distance magic index.

This is the oracle side of the toolkit: a complete backtracking search over
label assignments, usable up to roughly a dozen vertices.  Results are
deterministic -- candidate label sets are tried in lexicographic order and
the first assignment found is the lexicographically smallest one -- so any
reported index is minimal by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

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
_INT64_MAX = np.iinfo(np.int64).max


class SearchBudgetExceeded(RuntimeError):
    """The node or wall-clock budget ran out before the search finished."""


@dataclass
class SearchConfig:
    """Search limits and switches.

    theta_cap bounds the index explored by compute_index; node_limit is a
    total backtracking-node budget shared across candidate label sets (None
    = unlimited); budget_ms is a wall-clock budget checked between candidate
    sets.  prune disables the fail-fast checks when False (used to show
    pruning never changes outcomes).  The tie policy is fixed: smallest
    index, then lexicographically smallest label set, then smallest
    assignment.
    """

    theta_cap: int = 1
    node_limit: int | None = None
    budget_ms: float | None = None
    prune: bool = True

    def __post_init__(self):
        if self.theta_cap < 0:
            raise ValueError(f"theta_cap must be >= 0, got {self.theta_cap}")
        if self.node_limit is not None and self.node_limit < 0:
            # the kernel reads a negative limit as "unlimited"
            raise ValueError(f"node_limit must be >= 0, got {self.node_limit}")
        if self.budget_ms is not None and math.isnan(self.budget_ms):
            raise ValueError("budget_ms must be a number, got NaN")


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


def _forced_constant(g: Graph, values: tuple[int, ...]) -> tuple[bool, int]:
    """(known, value) for the constant forced on a regular graph, if integral.

    For an r-regular graph, summing all weights gives n*c = r*sum(S).  A
    fractional result means no magic labeling exists for this label set;
    the caller treats (known=True, value=-1) as an immediate negative.
    """
    r = regular_degree(g)
    if r is None:
        return False, 0
    total = r * sum(values)
    if total % g.order != 0:
        return True, -1
    return True, total // g.order


def _pruning_rows(g: Graph) -> tuple[np.ndarray, ...]:
    """Extra kernel inputs (dptr, drow, dsign, twin_prev) for a first hit.

    Difference rows: in a magic labeling w(u) = w(v), so the labels on
    N(u)-N(v) and on N(v)-N(u) have equal sums.  A pair u < v gets that row
    when the two sets are not both empty and hold fewer vertices together
    than either neighborhood, so the row closes before the neighborhood rows
    do.  The rows are handed to the kernel by vertex in CSR form.

    False twins (N(u) = N(v)) are interchangeable: sorting the labels inside
    every twin class maps a magic labeling to a magic labeling that is
    lexicographically no larger.  twin_prev[v] is the previous vertex of v's
    class (-1 for the first), so the kernel tries only increasing labels
    along each class and still finds the lexicographically first witness.
    """
    n = g.order
    nbhd = [set(g.neighbors(u)) for u in range(n)]
    cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    nrows = 0
    for u in range(n):
        for v in range(u + 1, n):
            plus = nbhd[u] - nbhd[v]
            minus = nbhd[v] - nbhd[u]
            if 0 < len(plus) + len(minus) < min(len(nbhd[u]), len(nbhd[v])):
                for x in plus:
                    cols[x].append((nrows, 1))
                for x in minus:
                    cols[x].append((nrows, -1))
                nrows += 1
    dptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        dptr[v + 1] = dptr[v] + len(cols[v])
    drow = np.array([r for col in cols for r, _ in col], dtype=np.int64)
    dsign = np.array([s for col in cols for _, s in col], dtype=np.int64)
    twin_prev = np.empty(n, dtype=np.int64)
    last: dict[tuple[int, ...], int] = {}
    for v in range(n):
        key = g.neighbors(v)
        twin_prev[v] = last.get(key, -1)
        last[key] = v
    return dptr, drow, dsign, twin_prev


def _run_kernel(
    g: Graph,
    values: tuple[int, ...],
    prune: bool,
    node_limit: int,
    stop_after: int,
    max_out: int,
    rows: tuple[np.ndarray, ...] = (),
):
    """One kernel call; `rows` are the extra inputs from _pruning_rows.

    The kernel sums in int64.  Every partial row sum it forms is at most the
    largest label times the row length, and no row is longer than the
    largest neighborhood, so a label set that could overflow is refused.
    """
    if values[-1] * max(1, max(map(g.degree, range(g.order)))) > _INT64_MAX:
        raise ValueError(
            "label set too large for the search kernel: largest label times "
            "largest degree exceeds int64"
        )
    indptr, nbrs = g.csr()
    labels = np.asarray(values, dtype=np.int64)
    have_c, c0 = (False, 0)
    if prune:
        known, c = _forced_constant(g, values)
        if known and c < 0:
            return _kernels.STATUS_DONE, 0, 0, np.empty(0, dtype=np.int64)
        have_c, c0 = known, c
    return _kernels.backtrack(
        indptr,
        nbrs,
        labels,
        have_c,
        c0,
        prune,
        node_limit,
        stop_after,
        max_out,
        *rows,
    )


def find_labeling(
    g: Graph,
    label_set: LabelSet | Iterable[int],
    config: SearchConfig | None = None,
) -> Labeling | None:
    """First magic assignment of the label set, or None when none exists.

    Deterministic: the returned labeling is the lexicographically smallest
    magic assignment by vertex id.  Raises SearchBudgetExceeded when the
    node budget runs out -- an exhausted budget is never reported as absence.
    """
    cfg = config or SearchConfig()
    values = _as_label_tuple(g, label_set)
    limit = -1 if cfg.node_limit is None else cfg.node_limit
    rows = _pruning_rows(g) if cfg.prune else ()
    status, _, count, out = _run_kernel(
        g, values, cfg.prune, limit, stop_after=1, max_out=1, rows=rows
    )
    if status == _kernels.STATUS_NODE_LIMIT:
        raise SearchBudgetExceeded(
            f"node budget {cfg.node_limit} exhausted before the search finished"
        )
    if count == 0:
        return None
    return Labeling(tuple(int(x) for x in out[: g.order]))


def enumerate_labelings(
    g: Graph,
    label_set: LabelSet | Iterable[int],
    config: SearchConfig | None = None,
) -> list[Labeling]:
    """Every magic assignment of the label set, in lexicographic order.

    Complete and duplicate-free; guarded to graphs of order <= 10 because
    the answer can grow factorially.
    """
    if g.order > ENUMERATION_ORDER_CAP:
        raise ValueError(
            f"enumeration is guarded to order <= {ENUMERATION_ORDER_CAP}, "
            f"got {g.order}"
        )
    cfg = config or SearchConfig()
    values = _as_label_tuple(g, label_set)
    limit = -1 if cfg.node_limit is None else cfg.node_limit
    cap = 1024
    while True:
        status, _, count, out = _run_kernel(
            g, values, cfg.prune, limit, stop_after=2**62, max_out=cap
        )
        if status == _kernels.STATUS_NODE_LIMIT:
            raise SearchBudgetExceeded(
                f"node budget {cfg.node_limit} exhausted during enumeration"
            )
        if status == _kernels.STATUS_OUT_FULL:
            cap *= 4
            continue
        n = g.order
        return [
            Labeling(tuple(int(x) for x in out[k * n : (k + 1) * n]))
            for k in range(count)
        ]


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
    deadline = None
    if cfg.budget_ms is not None:
        deadline = time.perf_counter() + cfg.budget_ms / 1000.0
    nodes_left = -1 if cfg.node_limit is None else cfg.node_limit
    rows = _pruning_rows(g) if cfg.prune else ()
    n = g.order
    for d in range(cfg.theta_cap + 1):
        for values in _candidate_sets(n, d):
            if deadline is not None and time.perf_counter() > deadline:
                return IndexResult(
                    kind="indeterminate",
                    theta=None,
                    method="search",
                    cap=d,
                    detail=f"wall-clock budget {cfg.budget_ms} ms exhausted",
                )
            status, nodes, count, out = _run_kernel(
                g, values, cfg.prune, nodes_left, stop_after=1, max_out=1, rows=rows
            )
            if status == _kernels.STATUS_NODE_LIMIT:
                return IndexResult(
                    kind="indeterminate",
                    theta=None,
                    method="search",
                    cap=d,
                    detail=f"node budget {cfg.node_limit} exhausted",
                )
            if nodes_left >= 0:
                nodes_left = max(0, nodes_left - nodes)
            if count > 0:
                witness = Labeling(tuple(int(x) for x in out[:n]))
                report = verify_s_magic(g, witness)
                assert report.is_magic, "search returned a non-magic labeling"
                return IndexResult(
                    kind="finite",
                    theta=d,
                    method="search",
                    constant=report.constant,
                    witness=witness,
                )
    return IndexResult(
        kind="unknown-at-cap",
        theta=None,
        method="search",
        cap=cfg.theta_cap,
        detail=f"no magic label set with index <= {cfg.theta_cap}",
    )
