#!/usr/bin/env python3
"""Benchmark the production search calls on each kernel backend.

Each workload runs `find_labeling` or `enumerate_labelings` exactly as
`compute_index` and the CLI do: with the forced constant, and for first
hits with the difference rows and false-twin order.  The calls run once
with the active kernel and once with the interpreted one, swapped in where
the search looks it up (`_kernels.backtrack`).  Both backends run the same
source function (see magiclab._kernels), so node counts and results must
agree exactly; only wall time differs.  The default workloads finish in
seconds on the interpreted path; --heavy adds a 12-vertex blow-up search.

Usage:
    python benchmarks/bench_search.py [--repeat N] [--heavy]

Without numba (or with MAGICLAB_NO_JIT=1) both columns time the
interpreted kernel, and the speedup column reads "jit unavailable".
"""

from __future__ import annotations

import argparse
import contextlib
import time

from magiclab import _kernels, search
from magiclab.graphs import (
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    lex_product,
)
from magiclab.labeling import LabelSet


def workloads(heavy: bool):
    k33 = build_multipartite(3, 2)
    out = [
        # full d=1 sweep on K_{3,3}: every deleted label, complete enumeration
        ("k33 enumerate x6", k33, [LabelSet.without(7, a) for a in range(1, 7)], True),
        ("octahedron enumerate", build_multipartite(2, 3), [LabelSet.natural(6)], True),
        ("2C4 first witness", disjoint_union(build_cycle(4), 2), [LabelSet.natural(8)], False),
        ("C6[K2] first witness", lex_product(build_cycle(6), empty_graph(2)), [LabelSet.natural(12)], False),
    ]
    if heavy:
        out.append(
            ("C4[K3] first witness", lex_product(build_cycle(4), empty_graph(3)), [LabelSet.natural(12)], False)
        )
    return out


@contextlib.contextmanager
def kernel_in_use(kernel):
    """Route the search through `kernel`; yields the node count of every call."""
    nodes: list[int] = []

    def counted(*args):
        result = kernel(*args)
        nodes.append(int(result[1]))
        return result

    saved = _kernels.backtrack
    _kernels.backtrack = counted
    try:
        yield nodes
    finally:
        _kernels.backtrack = saved


def run(kernel, graph, label_sets, enumerate_all) -> tuple[int, int]:
    """(nodes, solutions) of the production calls on every label set."""
    with kernel_in_use(kernel) as nodes:
        if enumerate_all:
            solutions = sum(len(search.enumerate_labelings(graph, s)) for s in label_sets)
        else:
            solutions = sum(search.find_labeling(graph, s) is not None for s in label_sets)
    return sum(nodes), solutions


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timed repetitions")
    parser.add_argument("--heavy", action="store_true", help="add the 12-vertex blow-up search")
    args = parser.parse_args()

    active = _kernels.backtrack
    print(f"active backend: {_kernels.BACKEND}")
    loads = workloads(args.heavy)

    # warm up the jit once so compilation is not billed to the first workload
    run(active, build_cycle(3), [LabelSet.natural(3)], False)

    header = f"{'workload':24s} {'nodes':>12s} {'sols':>6s} {'active':>10s} {'python':>10s} {'speedup':>15s}"
    print(header)
    print("-" * len(header))
    for name, graph, sets, enum_all in loads:
        best_active = min(_timed(run, active, graph, sets, enum_all) for _ in range(args.repeat))
        best_python = min(
            _timed(run, _kernels.backtrack_python, graph, sets, enum_all)
            for _ in range(args.repeat)
        )
        nodes_a, sols_a = run(active, graph, sets, enum_all)
        nodes_p, sols_p = run(_kernels.backtrack_python, graph, sets, enum_all)
        assert (nodes_a, sols_a) == (nodes_p, sols_p), "paths diverged"
        if _kernels.BACKEND == "python":
            speed = "jit unavailable"
        else:
            speed = f"{best_python / best_active:.1f}x" if best_active > 0 else "inf"
        print(
            f"{name:24s} {nodes_a:>12,} {sols_a:>6d} "
            f"{best_active:>9.4f}s {best_python:>9.4f}s {speed:>15s}"
        )


def _timed(fn, *fn_args) -> float:
    t0 = time.perf_counter()
    fn(*fn_args)
    return time.perf_counter() - t0


if __name__ == "__main__":
    main()
