"""Feasibility of equalized incomplete tournaments, EIT(n, r).

Arithmetic on two integers, so it imports nothing: `magiclab eit --teams N
--rounds R` runs on this module alone.  families re-exports every name here,
and its dispatchers raise the same HypothesisError.
"""

from __future__ import annotations


class HypothesisError(ValueError):
    """Arguments violate the hypothesis of the dispatched result."""


class EitVerdict:
    """Feasibility of an equalized incomplete tournament.

    feasible is True, False, or None when the cited characterizations do
    not decide the instance (odd team counts with even rounds).
    """

    __slots__ = ("teams", "rounds", "feasible", "reason")
    __hash__ = None  # mutable and compared by value

    teams: int
    rounds: int
    feasible: bool | None
    reason: str

    def __init__(self, teams: int, rounds: int, feasible: bool | None, reason: str) -> None:
        self.teams = teams
        self.rounds = rounds
        self.feasible = feasible
        self.reason = reason

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.teams, self.rounds, self.feasible, self.reason) == (
            other.teams, other.rounds, other.feasible, other.reason
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(teams={self.teams!r}, rounds={self.rounds!r}, "
            f"feasible={self.feasible!r}, reason={self.reason!r})"
        )

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
    n.  Odd rounds are always infeasible.  Every n needs 2 <= r <= n-2: no
    simple graph is r-regular for r >= n, and K_n (r = n-1) has the
    distinct weights T - f(v).  In that range the characterization is
    complete for even n: n = 0 (mod 4), or n = 2 (mod 4) with r = 0
    (mod 4).  Odd n with even rounds in range is outside the cited results.
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
    if not 2 <= r <= n_teams - 2:
        return EitVerdict(
            n_teams, r, False,
            f"rounds must satisfy 2 <= r <= n-2 = {n_teams - 2}",
        )
    if n_teams % 2 == 1:
        return EitVerdict(
            n_teams, r, None,
            "odd team count with even rounds is not decided by the "
            "implemented characterization",
        )
    if n_teams % 4 == 0:
        return EitVerdict(n_teams, r, True, "n = 0 (mod 4) with even rounds in range")
    if r % 4 == 0:
        return EitVerdict(n_teams, r, True, "n = 2 (mod 4) with r = 0 (mod 4)")
    return EitVerdict(
        n_teams, r, False,
        "rounds = 2 (mod 4) force a team count divisible by 4, "
        f"but {n_teams} = 2 (mod 4)",
    )
