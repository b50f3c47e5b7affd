"""Closed-form distance magic indices for the supported graph families.

Each dispatcher returns an IndexResult carrying the index, the rule that
decided it, and -- whenever this toolkit can build one -- a witness labeling
assembled from a label rectangle whose columns fill the parts or blow-up
fibers.  Branches whose constructions live in prior work outside this
package report the closed form with no witness; at desk scale the exact
search module can still produce one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, build_cycle, build_multipartite, disjoint_union, regular_degree
from .labeling import Labeling, verify_blowup, verify_s_magic
from .rectangles import (
    Rectangle,
    balanced_even,
    balanced_odd,
    construct_deleted,
    split,
)

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


def _columns_labeling(pieces: list[Rectangle]) -> Labeling:
    """Read pieces column-by-column into a label vector.

    Matches the vertex layout shared by every family builder: vertex
    k*(n*p) + g*n + h is the h-th member of part/fiber g in copy k, so it
    receives entry (h, g) of piece k.
    """
    return Labeling(tuple(np.concatenate([p.entries.T.ravel() for p in pieces]).tolist()))


def _witnessed(
    theta: int, theorem: str, constant: int, pieces: list[Rectangle]
) -> IndexResult:
    """A closed-form answer whose witness reads the pieces column by column."""
    return IndexResult(
        kind="finite",
        theta=theta,
        method="closed-form",
        theorem=theorem,
        constant=constant,
        witness=_columns_labeling(pieces),
    )


def _checked(result: IndexResult, base: Graph, n: int) -> IndexResult:
    """Verify the witness on base[K̄n] before handing the result out; never emit junk.

    Every family here is a blow-up base[K̄n], and the witness is checked on
    its fiber sums over base (verify_blowup), which is exact and never
    builds the blow-up's edges.
    """
    if result.witness is not None:
        report = verify_blowup(base, n, result.witness)
        if not report.is_magic:
            raise AssertionError(
                f"constructed witness failed verification: {report.violations}"
            )
        if result.constant is None:
            result.constant = report.constant
        elif result.constant != report.constant:
            raise AssertionError(
                f"witness constant {report.constant} != closed form {result.constant}"
            )
    return result


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


def _nonsingular(g: Graph) -> bool | None:
    """Whether the adjacency matrix of g is proven to have nonzero determinant.

    det A(g) is the product of its components' determinants, and each is
    reduced modulo the prime q = 2^31 - 1 by elimination over int64; there
    is no rounding.  True: every residue is nonzero, which proves A(g)
    nonsingular.  False: some residue is 0, so A(g) is singular unless q
    divides a nonzero determinant (impossible while |det| < q, which the
    Hadamard bound guarantees for every component of order <= 22).  None:
    the components, after dropping repeats, hold more than DET_MAX_ORDER
    vertices and were not tested.
    """
    comps = _distinct_components(g)
    if comps is None:
        return None
    return all(_det_nonzero_mod_prime(c) for c in comps)


# ---------------------------------------------------------------------------
# complete multipartite graphs
# ---------------------------------------------------------------------------

def theta_hnp(n: int, p: int) -> IndexResult:
    """Index of the complete multipartite graph with p parts of size n.

    0 when n is even or both n and p are odd (balanced rectangle witness),
    1 when n is odd and p is even (deleted-label rectangle witness).
    """
    if n <= 1 or p <= 1:
        raise HypothesisError(f"requires n > 1 and p > 1, got n={n}, p={p}")
    if n % 2 == 0 or p % 2 == 1:
        rect = balanced_even(n, p) if n % 2 == 0 else balanced_odd(n, p)
        result = _witnessed(
            0, "multipartite-balanced", (p - 1) * (n * (n * p + 1) // 2), [rect]
        )
    else:
        result = _witnessed(
            1,
            "multipartite-deleted",
            (p - 1) * ((n * n * p + n + 1) // 2),
            [construct_deleted(n, p)],
        )
    return _checked(result, build_multipartite(1, p), n)


def theta_m_hnp(m: int, n: int, p: int) -> IndexResult:
    """Index of m disjoint copies of the complete multipartite graph.

    0 when n is even or m*n*p is odd; 1 otherwise.  Witnesses label copy k
    with the k-th piece of an n x (m*p) rectangle split column-wise.
    """
    if m < 1 or n <= 1 or p <= 1:
        raise HypothesisError(
            f"requires m >= 1, n > 1, p > 1, got m={m}, n={n}, p={p}"
        )
    if n % 2 == 0 or (m * n * p) % 2 == 1:
        rect = balanced_even(n, m * p) if n % 2 == 0 else balanced_odd(n, m * p)
        result = _witnessed(
            0,
            "multipartite-union-balanced",
            (p - 1) * (n * (n * m * p + 1) // 2),
            split(rect, m),
        )
    else:
        result = _witnessed(
            1,
            "multipartite-union-deleted",
            (p - 1) * ((n * n * m * p + n + 1) // 2),
            split(construct_deleted(n, m * p), m),
        )
    return _checked(result, disjoint_union(build_multipartite(1, p), m), n)


# ---------------------------------------------------------------------------
# cycle blow-ups
# ---------------------------------------------------------------------------

def theta_m_cycle_lex(m: int, p: int, n: int) -> IndexResult:
    """Index of m disjoint copies of the cycle on p vertices blown up by n.

    0 when n is even, or m*n*p is odd, or n is odd with p = 0 (mod 4);
    1 otherwise.  Fiber weights are two column sums, so witnesses reuse the
    split rectangle machinery; the 0-branch for odd n with p = 0 (mod 4)
    has no rectangle construction here and is reported without a witness.
    """
    if m < 1 or n <= 1 or p < 3:
        raise HypothesisError(
            f"requires m >= 1, n > 1, p >= 3, got m={m}, n={n}, p={p}"
        )
    if n % 2 == 0 or (m * n * p) % 2 == 1:
        rect = balanced_even(n, m * p) if n % 2 == 0 else balanced_odd(n, m * p)
        result = _witnessed(
            0, "cycle-blowup-balanced", n * (n * m * p + 1), split(rect, m)
        )
    elif p % 4 == 0:
        result = IndexResult(
            kind="finite",
            theta=0,
            method="closed-form",
            theorem="cycle-blowup-quarter",
            detail=(
                "distance magic for odd n with cycle length 0 (mod 4); "
                "construction lives in prior work, use exact search for a witness"
            ),
        )
    else:
        result = _witnessed(
            1,
            "cycle-blowup-deleted",
            n * n * m * p + n + 1,
            split(construct_deleted(n, m * p), m),
        )
    return _checked(result, disjoint_union(build_cycle(p), m), n)


# ---------------------------------------------------------------------------
# blow-ups of arbitrary regular graphs
# ---------------------------------------------------------------------------

def theta_lex_blowup(g: Graph, n: int) -> IndexResult:
    """Index of the n-fold blow-up of a regular graph g.

    With p vertices and degree r in g: 0 when n is even or p is odd.  For
    odd n and even p: 1 when r is odd, or when r = p = 2 (mod 4), or when
    the adjacency matrix A(g) is nonsingular; otherwise 0.  Every fiber
    weight is r column sums, so one rectangle labels the whole blow-up.
    Blow-ups by 1 carry no rectangle structure and go straight to exact
    search.

    The nonsingular case: a distance magic labeling has fiber sums s with
    A(g) s = c 1, and so does the constant vector (c/r) 1.  When A(g) is
    nonsingular the two agree, so every fiber sum would equal n(np+1)/2,
    which is not an integer for odd n and even p; hence theta >= 1, and the
    deleted-label rectangle attains it.  Nonsingularity is tested only
    while g's distinct components hold at most DET_MAX_ORDER vertices; a
    larger base keeps the 0 answer, with a detail saying it was not tested.
    """
    if n < 1:
        raise HypothesisError(f"requires n >= 1, got n={n}")
    r = regular_degree(g)
    if r is None:
        raise NotRegularError(f"{g!r} is not regular")
    if n == 1:
        from .search import compute_index

        return compute_index(g)
    p = g.order
    if r == 0:
        # edgeless base: every weight is 0 under any bijection
        result = IndexResult(
            kind="finite",
            theta=0,
            method="closed-form",
            theorem="regular-blowup-balanced",
            constant=0,
            witness=Labeling(tuple(range(1, n * p + 1))),
        )
    elif n % 2 == 0 or p % 2 == 1:
        rect = balanced_even(n, p) if n % 2 == 0 else balanced_odd(n, p)
        result = _witnessed(
            0, "regular-blowup-balanced", r * (n * (n * p + 1) // 2), [rect]
        )
    elif r % 2 == 1 or (r % 4 == 2 and p % 4 == 2):
        result = _witnessed(
            1,
            "regular-blowup-deleted",
            r * ((n * n * p + n + 1) // 2),
            [construct_deleted(n, p)],
        )
    elif (nonsingular := _nonsingular(g)):
        result = _witnessed(
            1,
            "regular-blowup-nonsingular",
            r * ((n * n * p + n + 1) // 2),
            [construct_deleted(n, p)],
        )
    else:
        detail = (
            "distance magic via equalized-tournament constructions from "
            "prior work; use exact search for a witness at desk scale"
        )
        if nonsingular is None:
            detail += (
                f"; A(g) was not tested for singularity (more than "
                f"{DET_MAX_ORDER} distinct component vertices), and if it is "
                "nonsingular the index is 1"
            )
        result = IndexResult(
            kind="finite",
            theta=0,
            method="closed-form",
            theorem="regular-blowup-tournament",
            detail=detail,
        )
    return _checked(result, g, n)


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

    Team v has strength f(v) and plays exactly its neighbors; every
    opponent-strength total is asserted equal to the magic constant.
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
        strengths = [labeling[u] for u in opponents]
        total = sum(strengths)
        assert total == report.constant
        rows.append(
            {
                "team": v,
                "strength": labeling[v],
                "opponents": opponents,
                "opponent_strengths": strengths,
                "total": total,
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
