"""Vertex labelings, the magic-labeling verifier, and exact constant formulas.

A labeling assigns a distinct positive integer to every vertex.  It is
S-magic when every open-neighborhood label sum (the vertex weight) equals a
single constant c, and distance magic when additionally the label set is
{1..order}.  Everything here is exact integer or rational arithmetic; no
floating point enters verification.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .graphs import Graph

__all__ = [
    "LabelSet",
    "Labeling",
    "VerificationReport",
    "NonIntegerConstant",
    "vertex_weight",
    "verify_s_magic",
    "verify_blowup",
    "regular_constant",
    "admissible_deleted_labels",
    "constant_bounds",
    "hnp_constant_bounds",
    "HnpBounds",
    "labeling_to_json",
    "labeling_from_json",
]


class NonIntegerConstant(ValueError):
    """The forced magic constant is not an integer; the label set is inadmissible."""


@dataclass(frozen=True)
class LabelSet:
    """Strictly increasing positive labels; alpha is the largest one."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("label set must be nonempty")
        if self.values[0] < 1:
            raise ValueError(f"labels must be positive, got {self.values[0]}")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValueError("labels must be strictly increasing")

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "LabelSet":
        vals = sorted(int(v) for v in values)
        if len(set(vals)) != len(vals):
            raise ValueError("labels must be distinct")
        return cls(tuple(vals))

    @classmethod
    def natural(cls, n: int) -> "LabelSet":
        """The distance magic pool {1..n}."""
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def without(cls, ceiling: int, deleted: int) -> "LabelSet":
        """{1..ceiling} minus one deleted label."""
        if not 1 <= deleted <= ceiling:
            raise ValueError(f"deleted label {deleted} outside 1..{ceiling}")
        return cls(tuple(v for v in range(1, ceiling + 1) if v != deleted))

    @property
    def alpha(self) -> int:
        return self.values[-1]

    @property
    def deleted(self) -> tuple[int, ...]:
        """Gaps below alpha: {1..alpha} minus the label values."""
        present = set(self.values)
        return tuple(v for v in range(1, self.alpha + 1) if v not in present)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


@dataclass(frozen=True)
class Labeling:
    """Labels listed by vertex id."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(x) for x in self.labels))

    @property
    def label_set(self) -> LabelSet:
        return LabelSet.from_values(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, v: int) -> int:
        return self.labels[v]


@dataclass
class VerificationReport:
    is_magic: bool
    constant: int | None
    weights: tuple[int, ...]
    violations: list[str] = field(default_factory=list)
    is_distance_magic: bool = False

    def to_json_dict(self) -> dict:
        return {
            "is_magic": self.is_magic,
            "is_distance_magic": self.is_distance_magic,
            "constant": self.constant,
            "weights": list(self.weights),
            "violations": list(self.violations),
        }


def _labels_tuple(order: int, labeling: Labeling | Sequence[int]) -> tuple[int, ...]:
    labels = (
        labeling.labels
        if isinstance(labeling, Labeling)
        else tuple(int(x) for x in labeling)
    )
    if len(labels) != order:
        raise ValueError(
            f"labeling has {len(labels)} entries for a graph of order {order}"
        )
    return labels


def vertex_weight(g: Graph, labeling: Labeling | Sequence[int], u: int) -> int:
    """Sum of labels over the open neighborhood of u (u's own label excluded)."""
    if not 0 <= u < g.order:
        raise ValueError(f"unknown vertex {u}")
    labels = _labels_tuple(g.order, labeling)
    return sum(labels[v] for v in g.neighbors(u))


def all_weights(g: Graph, labeling: Labeling | Sequence[int]) -> tuple[int, ...]:
    """Open-neighborhood label sums for every vertex, in Python integers."""
    labels = _labels_tuple(g.order, labeling)
    return tuple(sum(labels[v] for v in g.neighbors(u)) for u in range(g.order))


def _report(labels: tuple[int, ...], weights: tuple[int, ...]) -> VerificationReport:
    """The audit shared by both verifiers: labels distinct and positive, weights equal."""
    violations: list[str] = []
    if min(labels) < 1:
        violations.append("non-positive label")
    counts = Counter(labels)
    for v in sorted(v for v, c in counts.items() if c > 1):
        violations.append(f"label {v} assigned to {counts[v]} vertices")
    if min(weights) != max(weights):
        # report a handful of offending pairs against vertex 0
        bad = [v for v, x in enumerate(weights) if x != weights[0]]
        for v in bad[:5]:
            violations.append(f"w(0)={weights[0]} != w({v})={weights[v]}")
    is_magic = not violations
    constant = weights[0] if is_magic else None
    is_dm = is_magic and sorted(labels) == list(range(1, len(labels) + 1))
    return VerificationReport(
        is_magic=is_magic,
        constant=constant,
        weights=weights,
        violations=violations,
        is_distance_magic=is_dm,
    )


def verify_s_magic(g: Graph, labeling: Labeling | Sequence[int]) -> VerificationReport:
    """Full audit: bijectivity onto the label set and constant vertex weights."""
    labels = _labels_tuple(g.order, labeling)
    return _report(labels, all_weights(g, labels))


def verify_blowup(
    base: Graph, n: int, labeling: Labeling | Sequence[int]
) -> VerificationReport:
    """verify_s_magic on the blow-up base[K̄n], without building its edges.

    Vertex v lies in fiber v // n, the ids of lex_product(base,
    empty_graph(n)) and of disjoint unions of such blow-ups.  Its neighbors
    are all the vertices of the fibers adjacent to its own in base, so its
    weight is the sum of those fibers' label sums: every vertex of fiber i
    weighs W_i = sum of s_j over j in N_base(i), where s_j is the sum of
    fiber j's labels.  The fiber sums are Python integers and all_weights
    sums them exactly, so the report is the one verify_s_magic gives on the
    built graph, field for field, in O(n |V(base)| + |E(base)|) work.
    """
    if n < 1:
        raise ValueError(f"fiber size must be >= 1, got {n}")
    labels = _labels_tuple(base.order * n, labeling)
    fiber_sums = [sum(labels[i : i + n]) for i in range(0, len(labels), n)]
    weights = tuple(w for w in all_weights(base, fiber_sums) for _ in range(n))
    return _report(labels, weights)


# ---------------------------------------------------------------------------
# constant formulas and admissibility
# ---------------------------------------------------------------------------

def regular_constant(n: int, r: int, a: int) -> int:
    """Forced magic constant of an r-regular graph of order n over {1..n+1}\\{a}.

    From n*c = r * (sum of {1..n+1} - a) = r*((n+1)(n+2)/2 - a).  Raises
    NonIntegerConstant when n does not divide the right-hand side, which is
    exactly the mechanism ruling out inadmissible deleted labels.
    """
    if not 1 <= a <= n:
        raise ValueError(f"deleted label {a} outside 1..{n}")
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    rhs = r * ((n + 1) * (n + 2) // 2 - a)
    if rhs % n != 0:
        raise NonIntegerConstant(
            f"n={n}, r={r}, a={a}: constant {rhs}/{n} is not an integer"
        )
    return rhs // n


def admissible_deleted_labels(n: int, r: int) -> set[int]:
    """Deleted labels a in {1..n} not excluded by the necessary conditions.

    Always requires the forced constant to be integral.  When both r and n
    are 2 (mod 4) with r >= 6 and n > r, additionally requires a to be even
    and different from 2 and n (the counting obstruction for that residue
    class).  Membership does not promise a labeling exists.
    """
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    if n <= r:
        raise ValueError(f"order must exceed degree, got n={n}, r={r}")
    out = set()
    for a in range(1, n + 1):
        try:
            regular_constant(n, r, a)
        except NonIntegerConstant:
            continue
        out.add(a)
    if r % 4 == 2 and n % 4 == 2 and r >= 6:
        out = {a for a in out if a % 2 == 0 and a not in (2, n)}
    return out


def constant_bounds(n: int, r: int) -> tuple[Fraction, Fraction]:
    """Exact bracket for any magic constant over {1..n+1} minus one label.

    Substituting the extreme deleted labels a = n and a = 1 into the forced
    constant gives (nr+r)/2 + r/n <= c <= (nr+3r)/2.
    """
    if r < 1:
        raise ValueError(f"degree must be >= 1, got {r}")
    lower = Fraction(n * r + r, 2) + Fraction(r, n)
    upper = Fraction(n * r + 3 * r, 2)
    return lower, upper


class HnpBounds(NamedTuple):
    lower: int
    upper: int
    highest_removable: int
    lowest_removable: int


def hnp_constant_bounds(n: int, p: int) -> HnpBounds:
    """Constant bracket for the complete multipartite graph, odd n, even p.

    The pool sum of {1..np+1} minus the deleted label must be divisible by
    p, so the removable labels range from p/2 + 1 up to np + 1 - p/2; the
    corresponding constants are (n^2 p + n + 1)/2 * (p-1) and
    (n^2 p + 3n - 1)/2 * (p-1).
    """
    if n % 2 == 0 or n <= 1:
        raise ValueError(f"n must be odd and > 1, got {n}")
    if p % 2 == 1 or p <= 1:
        raise ValueError(f"p must be even and > 1, got {p}")
    lower = (n * n * p + n + 1) // 2 * (p - 1)
    upper = (n * n * p + 3 * n - 1) // 2 * (p - 1)
    return HnpBounds(
        lower=lower,
        upper=upper,
        highest_removable=n * p + 1 - p // 2,
        lowest_removable=p // 2 + 1,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def labeling_to_json(labeling: Labeling, constant: int | None = None) -> dict:
    return {
        "labels": list(labeling.labels),
        "label_set": list(labeling.label_set.values),
        "constant": constant,
    }


def labeling_from_json(doc: dict | str) -> Labeling:
    if isinstance(doc, str):
        doc = json.loads(doc)
    labels = doc.get("labels") if isinstance(doc, dict) else None
    if not isinstance(labels, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in labels
    ):
        raise ValueError('expected a JSON object with a "labels" list of integers')
    return Labeling(tuple(labels))
