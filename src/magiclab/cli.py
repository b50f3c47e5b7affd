"""Command-line surface.

Subcommands: construct (family witnesses), verify (labeling audit), index
(exact search), rect (rectangle constructions), eit (tournament feasibility
and schedules).  JSON is the machine interface; tables are for humans.

Exit codes: 0 success / magic / feasible, 1 verified-not-magic or
infeasible, 2 usage, parse, or hypothesis errors, 3 indeterminate outcomes
(unknown at cap, exhausted budget, undecided feasibility).

Each subcommand imports what it uses when it runs, so a process loads only
that.  `eit --teams N --rounds R` loads `_eit` alone; `verify` loads
`graphs` and `labeling`; `rect` loads `rectangles`, and `_limits` for its
size limit when it builds a rectangle; `construct` loads `families`, which
imports `_eit`, `graphs` and `labeling`, and `rectangles` when it builds a
witness; `index` loads `search`, `_kernels` and the modules `construct`
does but `rectangles`; `eit --graph` loads `families`, and `search` and
`_kernels` too when it has no --labels.  Neither `verify` nor `eit`
without --graph loads `dataclasses` or `fractions`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from . import families, rectangles, search
    from .graphs import Graph
    from .labeling import Labeling

T = TypeVar("T")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _load(path: str, parse: Callable[..., T], *args: object) -> T:
    """parse(text of the file at path, *args); any fault names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _parse_graph(text: str, one_indexed: bool) -> Graph:
    from .graphs import graph_from_json, parse_edge_list

    if text.lstrip().startswith("{"):
        return graph_from_json(json.loads(text))
    return parse_edge_list(text, one_indexed=one_indexed)


def _parse_labeling(text: str) -> Labeling:
    from .labeling import Labeling, labeling_from_json

    if text.lstrip().startswith("{"):
        return labeling_from_json(json.loads(text))
    values = []
    for k, tok in enumerate(text.split(), start=1):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"label {k} is not an integer: {tok!r}") from None
    if not values:
        raise ValueError("no labels found")
    return Labeling(values)


def _check_size(vertices: int) -> None:
    """Refuse a requested construction larger than an input graph may be.

    Rectangles and witnesses are allocated in full, so an order such as
    --n 7 --p 10**9 would exhaust memory before anything else failed.
    """
    from ._limits import MAX_INPUT_ORDER

    if vertices > MAX_INPUT_ORDER:
        raise ValueError(f"requested {vertices} vertices, above the limit {MAX_INPUT_ORDER}")


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _index_exit(result: families.IndexResult) -> int:
    """A decided index (finite or infinite) exits 0; an undecided one exits 3."""
    return EXIT_OK if result.kind in ("finite", "infinite") else EXIT_INDETERMINATE


def _default_budget_ms() -> float | None:
    raw = os.environ.get("MAGICLAB_BUDGET_MS", "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"MAGICLAB_BUDGET_MS is not a number: {raw!r}")


def _search_config(args: argparse.Namespace) -> search.SearchConfig:
    from . import search

    budget_ms = args.budget_ms if args.budget_ms is not None else _default_budget_ms()
    return search.SearchConfig(
        theta_cap=args.cap,
        node_limit=args.budget,
        budget_ms=budget_ms,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_construct(args: argparse.Namespace) -> int:
    from . import families

    if args.family != "lex":
        _check_size(args.n * args.p * (1 if args.family == "hnp" else args.m))
    if args.family == "hnp":
        result = families.theta_hnp(args.n, args.p)
    elif args.family == "m-hnp":
        result = families.theta_m_hnp(args.m, args.n, args.p)
    elif args.family == "m-cycle-lex":
        result = families.theta_m_cycle_lex(args.m, args.p, args.n)
    else:  # lex
        if args.n < 2:
            # a blow-up by 1 is its base, and its search belongs to `index`,
            # which takes the budgets and the cap
            raise ValueError(
                f"--family lex needs --n >= 2, got {args.n}; "
                "for the base graph itself run `magiclab index --graph <base>`"
            )
        if not args.base:
            raise ValueError("--family lex requires --base <edgelist>")
        base = _load(args.base, _parse_graph, args.one_indexed)
        _check_size(args.n * base.order)
        result = families.theta_lex_blowup(base, args.n)
    if args.out == "csv":
        if result.witness is None:
            print(
                "error: no witness labeling constructed for this branch; "
                "use `magiclab index` on the built graph for a desk-scale search",
                file=sys.stderr,
            )
            return EXIT_INDETERMINATE
        print("vertex,label")
        for v, lab in enumerate(result.witness.labels):
            print(f"{v},{lab}")
    else:
        _print_json(result.to_json_dict())
    return _index_exit(result)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .labeling import verify_s_magic

    graph = _load(args.graph, _parse_graph, args.one_indexed)
    labeling = _load(args.labels, _parse_labeling)
    report = verify_s_magic(graph, labeling)
    _print_json(report.to_json_dict())
    return EXIT_OK if report.is_magic else EXIT_NEGATIVE


def _cmd_index(args: argparse.Namespace) -> int:
    from . import search

    graph = _load(args.graph, _parse_graph, args.one_indexed)
    result = search.compute_index(graph, _search_config(args))
    _print_json(result.to_json_dict())
    return _index_exit(result)


def _build_rect(args: argparse.Namespace) -> list[rectangles.Rectangle]:
    from . import rectangles

    case = args.case
    if case in ("1", "2", "3"):
        n = {"1": 3, "2": 5}.get(case, args.n)
        if n is None or args.m is None:
            need = "--n and --m" if case == "3" else "--m"
            raise ValueError(f"--case {case} requires {need}")
        _check_size(2 * n * args.m)
        return [rectangles.case3(n, args.m)]
    if case in ("even", "odd"):
        if args.n is None or args.p is None:
            raise ValueError(f"--case {case} requires --n and --p")
        _check_size(args.n * args.p)
        build = rectangles.balanced_even if case == "even" else rectangles.balanced_odd
        return [build(args.n, args.p)]
    if case == "complement":
        if not args.input:
            raise ValueError("--case complement requires --input")
        rect = _load(args.input, rectangles.rectangle_from_csv)
        return [rectangles.complement(rect)]
    # split
    if not args.input or args.pieces is None:
        raise ValueError("--case split requires --input and --pieces")
    rect = _load(args.input, rectangles.rectangle_from_csv)
    return rectangles.split(rect, args.pieces)


def _cmd_rect(args: argparse.Namespace) -> int:
    from . import rectangles

    rects = _build_rect(args)
    if args.out == "json":
        docs = [rectangles.rectangle_to_json(r) for r in rects]
        _print_json(docs[0] if len(docs) == 1 else {"pieces": docs})
    else:
        chunks = []
        for k, rect in enumerate(rects):
            head = f"# piece {k}\n" if len(rects) > 1 else ""
            chunks.append(head + rectangles.rectangle_to_csv(rect))
        print("\n".join(chunks), end="")
    return EXIT_OK


def _cmd_eit(args: argparse.Namespace) -> int:
    if args.graph:
        return _eit_schedule(args)
    from . import _eit

    verdict = _eit.eit_feasible(args.teams, args.rounds)
    if args.format == "table":
        state = {True: "feasible", False: "infeasible", None: "unknown"}[
            verdict.feasible
        ]
        print(f"EIT({verdict.teams},{verdict.rounds}): {state} -- {verdict.reason}")
    else:
        _print_json(verdict.to_json_dict())
    if verdict.feasible is True:
        return EXIT_OK
    if verdict.feasible is False:
        return EXIT_NEGATIVE
    return EXIT_INDETERMINATE


def _eit_schedule(args: argparse.Namespace) -> int:
    """eit --graph: the schedule from a given or searched-for magic labeling."""
    from . import families
    from .graphs import regular_degree
    from .labeling import verify_s_magic

    graph = _load(args.graph, _parse_graph, args.one_indexed)
    if graph.order != args.teams:
        raise ValueError(
            f"--teams {args.teams} does not match graph order {graph.order}"
        )
    r = regular_degree(graph)
    if r is None:
        raise ValueError(
            f"--rounds {args.rounds} needs a regular graph; this graph is not regular"
        )
    if r != args.rounds:
        raise ValueError(
            f"--rounds {args.rounds} does not match graph degree {r}"
        )
    if args.labels:
        labeling = _load(args.labels, _parse_labeling)
    else:
        from . import search

        result = search.compute_index(graph, _search_config(args))
        if result.witness is None:
            _print_json(result.to_json_dict())
            return EXIT_INDETERMINATE
        labeling = result.witness
    try:
        schedule = families.eit_schedule(graph, labeling)
    except families.NotMagicError:
        _print_json(verify_s_magic(graph, labeling).to_json_dict())
        return EXIT_NEGATIVE
    if args.format == "table":
        print(families.schedule_table(schedule), end="")
    else:
        _print_json(schedule)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclab",
        description="Distance magic and S-magic graph labelings: "
        "constructions, verification, and exact index search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="closed-form index and witness for a family")
    c.add_argument("--family", required=True, choices=["hnp", "m-hnp", "m-cycle-lex", "lex"])
    c.add_argument("--n", type=int, required=True, help="part / fiber size")
    c.add_argument("--p", type=int, default=0, help="part count or cycle length")
    c.add_argument("--m", type=int, default=1, help="number of disjoint copies")
    c.add_argument("--base", help="edge-list file for --family lex")
    c.add_argument("--out", choices=["json", "csv"], default="json")
    c.add_argument("--one-indexed", action="store_true")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="audit a labeling against a graph")
    v.add_argument("--graph", required=True)
    v.add_argument("--labels", required=True)
    v.add_argument("--one-indexed", action="store_true")
    v.set_defaults(func=_cmd_verify)

    i = sub.add_parser("index", help="exact distance magic index by search")
    i.add_argument("--graph", required=True)
    i.add_argument("--cap", type=int, default=1, help="largest index to explore")
    i.add_argument("--budget", type=int, default=None, help="backtracking node budget")
    i.add_argument("--budget-ms", type=float, default=None, help="wall-clock budget")
    i.add_argument("--one-indexed", action="store_true")
    i.set_defaults(func=_cmd_index)

    r = sub.add_parser("rect", help="build or transform label rectangles")
    r.add_argument(
        "--case",
        required=True,
        choices=["1", "2", "3", "even", "odd", "complement", "split"],
    )
    r.add_argument("--n", type=int)
    r.add_argument("--p", type=int)
    r.add_argument("--m", type=int)
    r.add_argument("--input", help="CSV rectangle for complement/split")
    r.add_argument("--pieces", type=int, help="piece count for split")
    r.add_argument("--out", choices=["csv", "json"], default="csv")
    r.set_defaults(func=_cmd_rect)

    e = sub.add_parser("eit", help="equalized tournament feasibility / schedule")
    e.add_argument("--teams", type=int, required=True)
    e.add_argument("--rounds", type=int, required=True)
    e.add_argument("--graph", help="tournament graph; emits a schedule")
    e.add_argument("--labels", help="labeling file; searched for when absent")
    e.add_argument("--format", choices=["json", "table"], default="json")
    e.add_argument("--cap", type=int, default=1)
    e.add_argument("--budget", type=int, default=None)
    e.add_argument("--budget-ms", type=float, default=None)
    e.add_argument("--one-indexed", action="store_true")
    e.set_defaults(func=_cmd_eit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our contract
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the final
        # flush cannot raise again, and exit as for an unreadable input
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ValueError as exc:
        # every input fault, the library's own exceptions included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
