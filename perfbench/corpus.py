"""Fixed corpora of the four workloads, described without the package.

A graph is described by a JSON-friendly spec tuple.  `edges_of` turns a spec
into its edge set with plain Python, independently of magiclab, so the
checks can re-derive every graph; `build` turns the same spec into a
magiclab Graph through the public generators, looked up on their modules at
call time so that the traced run sees every call.

Specs:
    ("H", n, p)            complete multipartite graph, p parts of size n
    ("C", p)               cycle on p vertices
    ("circ", p, offsets)   circulant graph
    ("explicit", name, order, edges)
    ("union", spec, m)     m disjoint copies, copy k on ids k*|V|..
    ("lex", spec, n)       blow-up spec[K̄n], vertex (a, x) -> a*n + x
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


@lru_cache(maxsize=None)
def edges_of(spec) -> tuple[int, frozenset]:
    """(order, edge set of (u, v) pairs with u < v) computed from the spec."""
    kind = spec[0]
    if kind == "H":
        n, p = spec[1], spec[2]
        order = n * p
        edges = {(u, v) for u in range(order) for v in range(u + 1, order) if u // n != v // n}
    elif kind == "C":
        order = spec[1]
        edges = {_pair(i, (i + 1) % order) for i in range(order)}
    elif kind == "circ":
        order = spec[1]
        edges = {_pair(i, (i + d) % order) for i in range(order) for d in spec[2]}
    elif kind == "explicit":
        order = spec[2]
        edges = {_pair(u, v) for u, v in spec[3]}
    elif kind == "union":
        base_order, base = edges_of(spec[1])
        m = spec[2]
        order = base_order * m
        edges = {(u + k * base_order, v + k * base_order) for k in range(m) for u, v in base}
    elif kind == "lex":
        base_order, base = edges_of(spec[1])
        n = spec[2]
        order = base_order * n
        edges = {
            _pair(a * n + x, b * n + y) for a, b in base for x in range(n) for y in range(n)
        }
    else:
        raise ValueError(f"unknown graph spec {spec!r}")
    return order, frozenset(edges)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build(spec):
    """The magiclab Graph for a spec, built through the public generators."""
    from magiclab import graphs

    kind = spec[0]
    if kind == "H":
        return graphs.build_multipartite(spec[1], spec[2])
    if kind == "C":
        return graphs.build_cycle(spec[1])
    if kind == "circ":
        return graphs.build_circulant(spec[1], spec[2])
    if kind == "explicit":
        return graphs.Graph(spec[2], [tuple(e) for e in spec[3]], name=spec[1])
    if kind == "union":
        return graphs.disjoint_union(build(spec[1]), spec[2])
    if kind == "lex":
        return graphs.lex_product(build(spec[1]), graphs.empty_graph(spec[2]))
    raise ValueError(f"unknown graph spec {spec!r}")


def edge_list_text(spec, order_seed) -> str:
    """Edge-list file text ("n <order>" header, then "u v" rows) in a seeded order."""
    order, edges = edges_of(spec)
    rows = sorted(edges)
    order_seed.shuffle(rows)
    return f"n {order}\n" + "".join(f"{u} {v}\n" for u, v in rows)


PRISM = ("explicit", "prism", 6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)))
CUBE = ("explicit", "cube", 8, tuple((u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)))
_T5_PAIRS = list(combinations(range(5), 2))
T5 = (
    "explicit",
    "T5",
    10,
    tuple(
        (i, j)
        for i, a in enumerate(_T5_PAIRS)
        for j, b in enumerate(_T5_PAIRS)
        if i < j and set(a) & set(b)
    ),
)


# ---------------------------------------------------------------------------
# closed_form: the four theta dispatchers, ~450 to 1,500 vertices
# ---------------------------------------------------------------------------
# (label, dispatcher, args, (copies m, base spec B, fiber size n)): every
# instance is m copies of B[K̄n], which is what the structural check reads.

CLOSED_FORM = [
    ("hnp-even-20x30", "theta_hnp", (20, 30), (1, ("H", 1, 30), 20)),
    ("hnp-odd-15x31", "theta_hnp", (15, 31), (1, ("H", 1, 31), 15)),
    ("hnp-deleted-21x40", "theta_hnp", (21, 40), (1, ("H", 1, 40), 21)),
    ("hnp-deleted-25x60", "theta_hnp", (25, 60), (1, ("H", 1, 60), 25)),
    ("m-hnp-even-4x10x12", "theta_m_hnp", (4, 10, 12), (4, ("H", 1, 12), 10)),
    ("m-hnp-odd-3x11x15", "theta_m_hnp", (3, 11, 15), (3, ("H", 1, 15), 11)),
    ("m-hnp-deleted-2x15x20", "theta_m_hnp", (2, 15, 20), (2, ("H", 1, 20), 15)),
    ("cycle-even-2xC6x50", "theta_m_cycle_lex", (2, 6, 50), (2, ("C", 6), 50)),
    ("cycle-quarter-1xC8x61", "theta_m_cycle_lex", (1, 8, 61), (1, ("C", 8), 61)),
    ("cycle-deleted-2xC5x51", "theta_m_cycle_lex", (2, 5, 51), (2, ("C", 5), 51)),
    ("lex-even-circ10x50", "theta_lex_blowup", (("circ", 10, (1, 2, 3)), 50), (1, ("circ", 10, (1, 2, 3)), 50)),
    ("lex-odd-circ11x45", "theta_lex_blowup", (("circ", 11, (1, 2)), 45), (1, ("circ", 11, (1, 2)), 45)),
    ("lex-deleted-r3-circ10x51", "theta_lex_blowup", (("circ", 10, (1, 5)), 51), (1, ("circ", 10, (1, 5)), 51)),
    ("lex-deleted-r6-circ14x35", "theta_lex_blowup", (("circ", 14, (1, 3, 5)), 35), (1, ("circ", 14, (1, 3, 5)), 35)),
    ("lex-tournament-circ12x41", "theta_lex_blowup", (("circ", 12, (1, 2)), 41), (1, ("circ", 12, (1, 2)), 41)),
]


# ---------------------------------------------------------------------------
# oracle_search: distinct graphs among the criterion-5 instances, <= 12 vertices
# ---------------------------------------------------------------------------

# Answered exactly only after ~12 minutes of unbudgeted search on the interpreted kernel, so
# they run under this node budget; "indeterminate" or the exact answer passes.
ORACLE_NODE_BUDGET = 40_000
ORACLE_BUDGETED = ("H(2,6)", "H(3,4)")

# Answered in under 300 ms when the benchmark was added.  One execution that short varies by
# 30% or more on a shared machine, and these runs hold a single pass, so after
# it these run REPEAT_ROUNDS more times; an operation's latency is then the
# median of its executions.
ORACLE_REPEATED = (
    "H(2,2)", "H(2,3)", "H(2,4)", "H(3,2)", "H(3,3)", "H(4,2)", "H(5,2)", "H(6,2)", "2H(2,2)", "2H(2,3)",
    "2H(3,2)", "3H(2,2)", "1C4[K2]", "1C4[K3]", "1C5[K2]", "C(3)[K1]", "C(4)[K1]", "C(5)[K1]", "C(6)[K1]",
    "H(1,4)[K1]", "prism[K1]", "cube[K1]",
)
REPEAT_ROUNDS = 6


def oracle_cases() -> list[tuple[str, tuple]]:
    """(name, spec) in the order the criterion-5 test lists its instances."""
    cases = []
    for n in range(2, 7):
        for p in range(2, 7):
            if n * p <= 12:
                cases.append((f"H({n},{p})", ("H", n, p)))
    for m in (2, 3):
        for n in range(2, 7):
            for p in range(2, 7):
                if m * n * p <= 12:
                    cases.append((f"{m}H({n},{p})", ("union", ("H", n, p), m)))
    for m in (1, 2):
        for p in range(3, 7):
            for n in range(2, 5):
                if m * n * p <= 12:
                    cases.append((f"{m}C{p}[K{n}]", ("union", ("lex", ("C", p), n), m)))
    bases = [
        ("C(3)", ("C", 3)),
        ("C(4)", ("C", 4)),
        ("C(5)", ("C", 5)),
        ("C(6)", ("C", 6)),
        ("H(1,4)", ("H", 1, 4)),
        ("H(3,2)", ("H", 3, 2)),
        ("prism", PRISM),
        ("cube", CUBE),
    ]
    for base_name, base in bases:
        order = edges_of(base)[0]
        for n in range(1, 13):
            if order * n <= 12:
                cases.append((f"{base_name}[K{n}]", ("lex", base, n)))
    return cases


def oracle_corpus() -> list[tuple[str, tuple]]:
    """The criterion-5 instances de-duplicated by graph, first name kept."""
    seen = set()
    out = []
    for name, spec in oracle_cases():
        key = edges_of(spec)
        if key in seen:
            continue
        seen.add(key)
        out.append((name, spec))
    return out


# ---------------------------------------------------------------------------
# enumerate: the criterion-6 corpus plus two 4,608-solution natural pools
# ---------------------------------------------------------------------------
# (name, spec, sweep deleted labels too).  circ(10;1,2,3) and T5 run their
# natural pool only: their deleted-label sweeps add 2.4M nodes (~31 s on the
# interpreted kernel), more than one benchmark run can hold.

ENUMERATE = [
    ("K4", ("H", 1, 4), True),
    ("K3,3", ("H", 3, 2), True),
    ("prism", PRISM, True),
    ("cube", CUBE, True),
    ("C4", ("C", 4), True),
    ("C5", ("C", 5), True),
    ("C6", ("C", 6), True),
    ("octahedron", ("H", 2, 3), True),
    ("circ(10;1,2,3)", ("circ", 10, (1, 2, 3)), False),
    ("T5", T5, False),
    ("H(4,2)", ("H", 4, 2), False),
    ("C4[K2]", ("lex", ("C", 4), 2), False),
]


# Enumerated in under 1 s when the benchmark was added; repeated like ORACLE_REPEATED.
ENUMERATE_REPEATED = ("K4", "K3,3", "prism", "cube", "C4", "C5", "C6", "octahedron", "H(4,2)", "C4[K2]")


def enumerate_label_sets(order: int, sweep: bool) -> list[tuple[int, ...]]:
    """Natural pool {1..order}, then {1..order+1} minus a for every a when sweeping."""
    sets = [tuple(range(1, order + 1))]
    if sweep:
        for a in range(1, order + 1):
            sets.append(tuple(v for v in range(1, order + 2) if v != a))
    return sets


# ---------------------------------------------------------------------------
# cli: one child process per command
# ---------------------------------------------------------------------------

CLI_VERIFY_GRAPH = ("H", 15, 30)  # 450 vertices, 97,875 edges
CLI_INDEX_GRAPHS = {"c5.txt": ("C", 5), "c6k2.txt": ("lex", ("C", 6), 2)}

# (name, argv after "python -m magiclab.cli"); file names live in the work dir.
CLI_COMMANDS = [
    ("construct-hnp", ["construct", "--family", "hnp", "--n", "7", "--p", "8"]),
    ("construct-m-hnp", ["construct", "--family", "m-hnp", "--m", "2", "--n", "3", "--p", "4"]),
    ("construct-m-cycle-lex", ["construct", "--family", "m-cycle-lex", "--m", "2", "--p", "6", "--n", "3"]),
    ("verify-witness", ["verify", "--graph", "h15_30.txt", "--labels", "witness.txt"]),
    ("verify-swapped", ["verify", "--graph", "h15_30.txt", "--labels", "swapped.txt"]),
    ("index-c5", ["index", "--graph", "c5.txt"]),
    ("index-c6k2", ["index", "--graph", "c6k2.txt"]),
    ("eit-feasible", ["eit", "--teams", "8", "--rounds", "4"]),
    ("eit-odd-rounds", ["eit", "--teams", "6", "--rounds", "3"]),
    ("eit-undecided", ["eit", "--teams", "7", "--rounds", "2"]),
]

# Graph each construct command labels, as (copies m, base spec, fiber size n).
CLI_CONSTRUCT_STRUCTURE = {
    "construct-hnp": (1, ("H", 1, 8), 7),
    "construct-m-hnp": (2, ("H", 1, 4), 3),
    "construct-m-cycle-lex": (2, ("C", 6), 3),
}
