"""Per-layer tracing from outside the package.

`Tracer.install` replaces each layer's public entry points with recording
wrappers at every module attribute that holds them, because callers look
them up by name: `families` imports the generators, the rectangle builders
and `verify_s_magic` by name, `search` imports `verify_s_magic` by name and
calls `_kernels.backtrack` through the module, and `cli` imports
`parse_edge_list` and `verify_s_magic` by name.  `Graph.csr` is a method and
is wrapped on the class.  No package file changes.

A span is [name, start, end, parent index, operation id, counts]; counts are
read from return values, e.g. the kernel's (status, nodes, count, out).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, COUNTS = range(6)


def _edges(args, graph):
    return (graph.num_edges,)


def _cells(args, rect):
    return (rect.rows * rect.cols,)


def _theta(args, result):
    return (int(result.witness is not None),)


def _kernel(args, result):
    status, nodes, count, _ = result
    return (int(status), int(nodes), int(count))


class Tracer:
    """Records spans of one process; `op` tags every span with an operation id."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, ()]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list, counts: tuple = ()) -> None:
        span[END] = time.perf_counter()
        span[COUNTS] = counts
        self._stack.pop()

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        from magiclab import _kernels, families, graphs, labeling, rectangles, search

        csr = graphs.Graph.csr

        def arcs(args, report):
            return (len(csr(args[0])[1]),)

        targets = [
            ("graphs.build", graphs, ("build_multipartite", "build_cycle", "build_circulant",
                                      "disjoint_union", "lex_product", "empty_graph"), _edges),
            ("graphs.parse", graphs, ("parse_edge_list",), _edges),
            ("rectangles.construct", rectangles, ("balanced_even", "balanced_odd", "construct_deleted"), _cells),
            ("rectangles.split", rectangles, ("split",), None),
            ("labeling.verify", labeling, ("verify_s_magic",), arcs),
            ("families.theta", families, ("theta_hnp", "theta_m_hnp", "theta_m_cycle_lex", "theta_lex_blowup"), _theta),
            ("families.eit", families, ("eit_feasible", "eit_schedule"), None),
            ("search.index", search, ("compute_index",), None),
            ("search.enumerate", search, ("enumerate_labelings",), None),
            ("search.find", search, ("find_labeling",), None),
            ("search.twins", search, ("adjacent_twins",), None),
            ("kernels.backtrack", _kernels, ("backtrack",), _kernel),
        ]
        holders = [m for name, m in sorted(sys.modules.items()) if name == "magiclab" or name.startswith("magiclab.")]
        for span_name, home, names, count in targets:
            for attr in names:
                orig = getattr(home, attr)
                wrapped = self._wrap(span_name, orig, count)
                for mod in holders:
                    if getattr(mod, attr, None) is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        self._undo.append((graphs.Graph, "csr", csr))
        graphs.Graph.csr = self._wrap("graphs.csr", csr, None)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)


def adopt(tracer: Tracer, parent_idx: int, child_spans: list) -> None:
    """Append spans recorded by a child process under span `parent_idx`.

    perf_counter reads CLOCK_MONOTONIC, which is shared by every process on
    the machine, so child times line up with the parent's without shifting.
    """
    base = len(tracer.spans)
    op = tracer.spans[parent_idx][OP]
    for name, start, end, par, _, counts in child_spans:
        tracer.spans.append([name, start, end, parent_idx if par < 0 else base + par, op, tuple(counts)])


# Units of the per-layer metrics, in the order they are reported.
UNITS = {
    "graphs.build_s": "s", "graphs.edges_built": "count", "graphs.csr_s": "s", "graphs.parse_s": "s",
    "rectangles.construct_s": "s", "rectangles.split_s": "s", "rectangles.cells": "count",
    "labeling.verify_s": "s", "labeling.verify_calls": "count", "labeling.arcs_checked": "count",
    "labeling.arcs_per_s": "1/s",
    "families.self_s": "s", "families.results": "count", "families.witnessed_share": "share",
    "search.index_s": "s", "search.self_s": "s", "search.twins_s": "s", "search.enumerate_s": "s",
    "kernels.calls": "count", "kernels.nodes": "count", "kernels.s": "s", "kernels.nodes_per_s": "1/s",
    "kernels.empty_share": "share", "kernels.budget_stops": "count", "kernels.rerun_nodes_share": "share",
    "cli.process_s": "s", "cli.main_s": "s", "cli.startup_s": "s", "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}

EXACT_COUNTS = ("kernels.nodes", "kernels.calls", "graphs.edges_built", "labeling.arcs_checked")


def layer_metrics(spans: list, ops: set) -> dict:
    """Per-layer totals over the spans of one pass (the operations in `ops`)."""
    child = defaultdict(float)
    chosen = [(i, s) for i, s in enumerate(spans) if s[OP] in ops]
    for _, s in chosen:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = defaultdict(float)
    incl = defaultdict(float)
    calls = defaultdict(int)
    count_sum = defaultdict(int)
    k_empty = k_stops = k_rerun_nodes = 0
    for i, s in chosen:
        name = s[NAME]
        dur = s[END] - s[START]
        incl[name] += dur
        self_s[name] += dur - child[i]
        calls[name] += 1
        c = s[COUNTS]
        if name == "kernels.backtrack":
            status, nodes, found = c
            count_sum[name] += nodes
            k_empty += found == 0
            k_stops += status == 1
            k_rerun_nodes += nodes if status == 2 else 0
        elif c:
            count_sum[name] += c[0]
    verify_s = self_s["labeling.verify"]
    arcs = count_sum["labeling.verify"]
    results = calls["families.theta"]
    k_calls = calls["kernels.backtrack"]
    nodes = count_sum["kernels.backtrack"]
    k_s = incl["kernels.backtrack"]
    return {
        "graphs.build_s": self_s["graphs.build"],
        "graphs.edges_built": count_sum["graphs.build"] + count_sum["graphs.parse"],
        "graphs.csr_s": self_s["graphs.csr"],
        "graphs.parse_s": self_s["graphs.parse"],
        "rectangles.construct_s": self_s["rectangles.construct"],
        "rectangles.split_s": self_s["rectangles.split"],
        "rectangles.cells": count_sum["rectangles.construct"],
        "labeling.verify_s": verify_s,
        "labeling.verify_calls": calls["labeling.verify"],
        "labeling.arcs_checked": arcs,
        "labeling.arcs_per_s": arcs / verify_s if verify_s else 0.0,
        "families.self_s": self_s["families.theta"] + self_s["families.eit"],
        "families.results": results,
        "families.witnessed_share": count_sum["families.theta"] / results if results else 0.0,
        "search.index_s": incl["search.index"],
        "search.self_s": sum(v for k, v in self_s.items() if k.startswith("search.")),
        "search.twins_s": incl["search.twins"],
        "search.enumerate_s": incl["search.enumerate"],
        "kernels.calls": k_calls,
        "kernels.nodes": nodes,
        "kernels.s": k_s,
        "kernels.nodes_per_s": nodes / k_s if k_s else 0.0,
        "kernels.empty_share": k_empty / k_calls if k_calls else 0.0,
        "kernels.budget_stops": k_stops,
        "kernels.rerun_nodes_share": k_rerun_nodes / nodes if nodes else 0.0,
        "cli.process_s": incl["cli.process"],
        "cli.main_s": incl["cli.main"],
        "cli.startup_s": incl["cli.process"] - incl["cli.main"],
        "cli.stdout_bytes": count_sum["cli.process"],
        "trace.unattributed_s": self_s["op"],
        "trace.op_s": incl["op"],
    }
