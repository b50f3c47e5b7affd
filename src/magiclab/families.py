"""Closed-form distance magic indices for the supported graph families.

Every family here is a blow-up B[K̄n] of an r-regular base B: K_p for
theta_hnp, m·K_p for theta_m_hnp, m·C_p for theta_m_cycle_lex and any
regular g for theta_lex_blowup.  Each public dispatcher checks its
hypothesis, builds only its base, and hands it to one rule (_blowup), with
the fact it knows about A(B) when it has one.  The rule returns an
IndexResult carrying the index, the theorem that decided it and, whenever
this toolkit can build one, a witness: one n x |V(B)| label rectangle read
column by column, so base vertex b gets column b.  Each witness is checked
on its fiber sums over B before it is returned.  Branches whose
constructions live in prior work outside this package report the closed
form with no witness; at desk scale the exact search module can still
produce one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, build_cycle, build_multipartite, disjoint_union, regular_degree
from .labeling import Labeling, verify_blowup, verify_s_magic
from .rectangles import balanced_even, balanced_odd, construct_deleted

__all__ = [
    "IndexResult",
    "HypothesisError",
    "NotRegularError",
    "NotMagicError",
    "EitVerdict",
    "theta_hnp",
    "theta_m_hnp",
    "theta_m_cycle_lex",
    "theta_lex_blowup",
    "eit_feasible",
    "eit_schedule",
    "schedule_table",
]


class HypothesisError(ValueError):
    """Arguments violate the hypothesis of the dispatched result."""


class NotRegularError(ValueError):
    """The operation requires a regular graph."""


class NotMagicError(ValueError):
    """The supplied labeling is not magic."""


@dataclass
class IndexResult:
    """Distance magic index outcome with provenance.

    kind is "finite" (theta holds the index), "infinite" (certified),
    "unknown-at-cap", or "indeterminate" (budget ran out).  method records
    whether the value came from a closed-form rule or from exact search;
    theorem names the closed-form rule.  witness, when present, always
    passes the verifier.
    """

    kind: str
    theta: int | None
    method: str
    theorem: str | None = None
    constant: int | None = None
    witness: Labeling | None = None
    cap: int | None = None
    detail: str = ""

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def to_json_dict(self) -> dict:
        theta: int | str | None
        if self.kind == "finite":
            theta = self.theta
        elif self.kind == "infinite":
            theta = "infinity"
        else:
            theta = None
        doc: dict = {
            "theta": theta,
            "kind": self.kind,
            "method": self.method,
            "theorem": self.theorem,
            "constant": self.constant,
        }
        if self.witness is not None:
            doc["labels"] = list(self.witness.labels)
            doc["label_set"] = list(self.witness.label_set.values)
        if self.cap is not None:
            doc["cap"] = self.cap
        if self.detail:
            doc["detail"] = self.detail
        return doc


# The determinant test below eliminates at most this many vertices in
# total, which bounds its cost to one dense elimination of this order.
DET_MAX_ORDER = 300
_DET_PRIME = 2**31 - 1  # residues below 2**31, so every product fits int64


def _distinct_components(g: Graph) -> list[tuple[tuple[int, ...], ...]] | None:
    """Adjacency lists of g's components over local ids, repeats dropped.

    A component's local ids follow its sorted vertex ids, so the m copies of
    a disjoint union give one list.  None when the kept
    components hold more than DET_MAX_ORDER vertices between them.
    """
    seen = [False] * g.order
    kept: dict[tuple[tuple[int, ...], ...], None] = {}
    kept_order = 0
    for root in range(g.order):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [root], [root]
        while stack:
            for w in g.neighbors(stack.pop()):
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
            if len(comp) > DET_MAX_ORDER:
                return None
        comp.sort()
        local = {v: i for i, v in enumerate(comp)}
        key = tuple(tuple(sorted(local[w] for w in g.neighbors(v))) for v in comp)
        if key not in kept:
            kept[key] = None
            kept_order += len(comp)
            if kept_order > DET_MAX_ORDER:
                return None
    return list(kept)


def _det_nonzero_mod_prime(nbrs: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the adjacency determinant is nonzero modulo _DET_PRIME."""
    size = len(nbrs)
    a = np.zeros((size, size), dtype=np.int64)
    for u, row in enumerate(nbrs):
        a[u, list(row)] = 1
    q = _DET_PRIME
    for k in range(size):
        rows = np.flatnonzero(a[k:, k])
        if rows.size == 0:
            return False
        if rows[0]:
            a[[k, k + rows[0]]] = a[[k + rows[0], k]]
        factors = a[k + 1:, k] * pow(int(a[k, k]), q - 2, q) % q
        a[k + 1:, k:] = (a[k + 1:, k:] - factors[:, None] * a[k, k:] % q) % q
    return True


def _some_component_nonsingular(g: Graph) -> bool | None:
    """Whether some component of g has a provably nonsingular adjacency matrix.

    Each distinct component's determinant is reduced modulo the prime
    q = 2^31 - 1 by elimination over int64; there is no rounding.  True:
    some residue is nonzero, which proves that component's A nonsingular.
    False: every residue is 0, so every component is singular unless q
    divides a nonzero determinant (impossible while |det| < q, which the
    Hadamard bound guarantees for every component of order <= 22).  None:
    the components, after dropping repeats, hold more than DET_MAX_ORDER
    vertices and were not tested.
    """
    comps = _distinct_components(g)
    if comps is None:
        return None
    return any(_det_nonzero_mod_prime(c) for c in comps)


# ---------------------------------------------------------------------------
# the blow-up rule
# ---------------------------------------------------------------------------

def _blowup(
    base: Graph, n: int, r: int, family: str, nonsingular: bool = False
) -> IndexResult:
    """Index of base[K̄n] for an r-regular base and n > 1, with its witness.

    With p vertices in base, one n x p rectangle labels the blow-up, read
    column by column: base vertex b gets column b, so vertex b*n + h gets
    entry (h, b), and every fiber weight is r column sums.  The theorem is
    named f"{family}-{branch}":
    - balanced: θ=0 when r = 0 (any labeling), n is even or p is odd, by a
      rectangle over {1..np};
    - deleted: θ=1 for odd n and even p when r is odd, r = p = 2 (mod 4),
      or the caller knows A(base) to be nonsingular, by the deleted-label
      rectangle over {1..np+1} minus one label;
    - nonsingular: the same answer and witness, once the determinant test
      proves the adjacency matrix of some component of base nonsingular;
    - tournament: θ=0 otherwise, claimed without a witness.

    Why one nonsingular component gives θ=1: a distance magic labeling has
    fiber sums s with A(base) s = c 1, and summing over all vertices gives
    c/r = n(np+1)/2, the mean fiber sum.  On a component with adjacency
    matrix A', the constant vector (c/r) 1 also solves A' x = c 1, so when
    A' is nonsingular that component's fiber sums all equal n(np+1)/2,
    which is not an integer for odd n and even p.  The test runs only while
    base's distinct components hold at most DET_MAX_ORDER vertices; a
    larger base keeps the 0 answer, with a detail saying so.

    Every witness is checked on its fiber sums over base (verify_blowup),
    which is exact and never builds the blow-up's edges.
    """
    p = base.order
    if r == 0:
        # edgeless base: every weight is 0, so column b may hold b*n+1..b*n+n
        entries = np.arange(1, n * p + 1).reshape(p, n).T
        theta, branch = 0, "balanced"
    elif n % 2 == 0 or p % 2 == 1:
        rect = balanced_even(n, p) if n % 2 == 0 else balanced_odd(n, p)
        theta, branch, entries = 0, "balanced", rect.entries
    elif nonsingular or r % 2 == 1 or (r % 4 == 2 and p % 4 == 2):
        theta, branch, entries = 1, "deleted", construct_deleted(n, p).entries
    elif (tested := _some_component_nonsingular(base)):
        theta, branch, entries = 1, "nonsingular", construct_deleted(n, p).entries
    else:
        detail = (
            "distance magic via equalized-tournament constructions from "
            "prior work; use exact search for a witness at desk scale"
        )
        if tested is None:
            detail += (
                f"; A(g) was not tested for singularity (more than "
                f"{DET_MAX_ORDER} distinct component vertices), and if it is "
                "nonsingular the index is 1"
            )
        return IndexResult(
            kind="finite",
            theta=0,
            method="closed-form",
            theorem=f"{family}-tournament",
            detail=detail,
        )
    witness = Labeling(tuple(entries.T.ravel().tolist()))
    report = verify_blowup(base, n, witness)
    if not report.is_magic:
        raise AssertionError(
            f"constructed witness failed verification: {report.violations}"
        )
    return IndexResult(
        kind="finite",
        theta=theta,
        method="closed-form",
        theorem=f"{family}-{branch}",
        constant=report.constant,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# the families: each builds its base and states what it knows of it
# ---------------------------------------------------------------------------

def theta_hnp(n: int, p: int) -> IndexResult:
    """Index of the complete multipartite graph with p parts of size n, K_p[K̄n].

    0 when n is even or p is odd (balanced rectangle witness), 1 when n is
    odd and p is even (deleted-label rectangle witness).
    """
    if n <= 1 or p <= 1:
        raise HypothesisError(f"requires n > 1 and p > 1, got n={n}, p={p}")
    return _blowup(build_multipartite(1, p), n, p - 1, "multipartite")


def theta_m_hnp(m: int, n: int, p: int) -> IndexResult:
    """Index of m disjoint copies of the complete multipartite graph, (m·K_p)[K̄n].

    0 when n is even or m*n*p is odd; 1 otherwise, because A(K_p) = J - I
    is nonsingular.
    """
    if m < 1 or n <= 1 or p <= 1:
        raise HypothesisError(
            f"requires m >= 1, n > 1, p > 1, got m={m}, n={n}, p={p}"
        )
    base = disjoint_union(build_multipartite(1, p), m)
    return _blowup(base, n, p - 1, "multipartite-union", nonsingular=True)


def theta_m_cycle_lex(m: int, p: int, n: int) -> IndexResult:
    """Index of m disjoint copies of the cycle on p vertices blown up by n, (m·C_p)[K̄n].

    0 when n is even, or m*n*p is odd, or n is odd with p = 0 (mod 4);
    1 otherwise, because A(C_p) is nonsingular when 4 does not divide p.
    The 0-branch for odd n with p = 0 (mod 4) has no rectangle construction
    here and is reported without a witness.
    """
    if m < 1 or n <= 1 or p < 3:
        raise HypothesisError(
            f"requires m >= 1, n > 1, p >= 3, got m={m}, n={n}, p={p}"
        )
    base = disjoint_union(build_cycle(p), m)
    if n % 2 == 1 and p % 4 == 0:
        return IndexResult(
            kind="finite",
            theta=0,
            method="closed-form",
            theorem="cycle-blowup-quarter",
            detail=(
                "distance magic for odd n with cycle length 0 (mod 4); "
                "construction lives in prior work, use exact search for a witness"
            ),
        )
    return _blowup(base, n, 2, "cycle-blowup", nonsingular=True)


def theta_lex_blowup(g: Graph, n: int) -> IndexResult:
    """Index of the n-fold blow-up of a regular graph g, g[K̄n].

    With p vertices and degree r in g: 0 when n is even or p is odd.  For
    odd n and even p: 1 when r is odd, or when r = p = 2 (mod 4), or when
    the adjacency matrix of some component of g is proven nonsingular;
    otherwise 0.  Blow-ups by 1 carry no rectangle structure and go
    straight to exact search.
    """
    if n < 1:
        raise HypothesisError(f"requires n >= 1, got n={n}")
    r = regular_degree(g)
    if r is None:
        raise NotRegularError(f"{g!r} is not regular")
    if n == 1:
        from .search import compute_index

        return compute_index(g)
    return _blowup(g, n, r, "regular-blowup")


# ---------------------------------------------------------------------------
# equalized incomplete tournaments
# ---------------------------------------------------------------------------

@dataclass
class EitVerdict:
    """Feasibility of an equalized incomplete tournament.

    feasible is True, False, or None when the cited characterizations do
    not decide the instance (odd team counts with even rounds).
    """

    teams: int
    rounds: int
    feasible: bool | None
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "teams": self.teams,
            "rounds": self.rounds,
            "feasible": self.feasible,
            "reason": self.reason,
        }


def eit_feasible(n_teams: int, r: int) -> EitVerdict:
    """Decide EIT(n, r): n teams, each playing r opponents, equal strengths.

    Equivalent to a distance magic labeling of an r-regular graph of order
    n.  For even n the characterization is complete: 2 <= r <= n-2, r even,
    and n = 0 (mod 4) or n = r+2 = 2 (mod 4).  Odd rounds are always
    infeasible; odd n with even rounds is outside the cited results.
    """
    if n_teams < 2:
        raise HypothesisError(f"requires at least 2 teams, got {n_teams}")
    if r < 0:
        raise HypothesisError(f"rounds must be >= 0, got {r}")
    if r % 2 == 1:
        return EitVerdict(
            n_teams, r, False,
            "odd rounds: no odd-regular graph admits a distance magic labeling",
        )
    if n_teams % 2 == 1:
        return EitVerdict(
            n_teams, r, None,
            "odd team count with even rounds is not decided by the "
            "implemented characterization",
        )
    if not 2 <= r <= n_teams - 2:
        return EitVerdict(
            n_teams, r, False,
            f"rounds must satisfy 2 <= r <= n-2 = {n_teams - 2}",
        )
    if n_teams % 4 == 0:
        return EitVerdict(n_teams, r, True, "n = 0 (mod 4) with even rounds in range")
    if r % 4 == 0:
        return EitVerdict(n_teams, r, True, "n = r+2 = 2 (mod 4)")
    return EitVerdict(
        n_teams, r, False,
        "rounds = 2 (mod 4) force a team count divisible by 4, "
        f"but {n_teams} = 2 (mod 4)",
    )


def eit_schedule(g: Graph, labeling: Labeling) -> dict:
    """Tournament sheet from a magic labeling of a regular graph.

    Team v has strength f(v) and plays exactly its neighbors; each row's
    opponent-strength total is v's weight from the verifier, which equals
    the magic constant.
    """
    r = regular_degree(g)
    if r is None:
        raise NotRegularError(f"{g!r} is not regular")
    report = verify_s_magic(g, labeling)
    if not report.is_magic:
        raise NotMagicError(f"labeling is not magic: {report.violations}")
    rows = []
    for v in range(g.order):
        opponents = list(g.neighbors(v))
        rows.append(
            {
                "team": v,
                "strength": labeling[v],
                "opponents": opponents,
                "opponent_strengths": [labeling[u] for u in opponents],
                "total": report.weights[v],
            }
        )
    return {
        "teams": g.order,
        "rounds": r,
        "constant": report.constant,
        "rows": rows,
    }


def schedule_table(schedule: dict) -> str:
    """Fixed-width human-readable rendering of an eit_schedule document."""
    lines = [
        f"teams={schedule['teams']} rounds={schedule['rounds']} "
        f"constant={schedule['constant']}",
        f"{'team':>5} {'strength':>9}  opponents (strengths)",
    ]
    for row in schedule["rows"]:
        opps = ", ".join(
            f"{u}({s})" for u, s in zip(row["opponents"], row["opponent_strengths"])
        )
        lines.append(f"{row['team']:>5} {row['strength']:>9}  {opps}")
    return "\n".join(lines) + "\n"
