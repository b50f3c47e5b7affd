"""Label rectangles with constant column sums.

An n x p rectangle of distinct positive integers whose columns all add up to
the same value b labels the parts (or blow-up fibers) of a graph so that
every vertex weight becomes a fixed multiple of b.  Two families live here:

* deleted-label rectangles: entries are {1..np+1} minus one "deleted" label,
  built for every odd n >= 3 by one rule, case3 (construct_deleted);
* balanced rectangles: entries are exactly {1..np}, built by balanced_even
  and balanced_odd (the latter via a Kotzig array).

All arithmetic is exact, in Python integers.  The case3 formulas contain
half-integer terms that cancel; they are evaluated in doubled integers and
halved exactly.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

__all__ = [
    "Rectangle",
    "RectangleReport",
    "case1",
    "case2",
    "case3",
    "construct_deleted",
    "complement",
    "split",
    "balanced_even",
    "kotzig",
    "balanced_odd",
    "column_sums",
    "validate",
    "rectangle_to_csv",
    "rectangle_from_csv",
    "rectangle_to_json",
    "rectangle_from_json",
]


@dataclass
class Rectangle:
    """Integer matrix with optional label-pool metadata.

    entries is a tuple of equal-length row tuples of Python ints.  Any 2-D
    grid of integers is accepted, numpy arrays and numpy ints included;
    each cell, each deleted label and the label ceiling go through
    operator.index, so a float or other non-integer raises ValueError
    instead of being truncated.

    When label_ceiling is set, the intended entry pool is {1..label_ceiling}
    minus the labels in `deleted` (an empty tuple means the pool is used in
    full).  Pieces produced by split carry no pool claim (both None).
    """

    entries: tuple[tuple[int, ...], ...]
    label_ceiling: int | None = None
    deleted: tuple[int, ...] | None = None

    def __post_init__(self):
        try:
            self.entries = tuple(tuple(map(operator.index, row)) for row in self.entries)
        except TypeError:
            raise ValueError("rectangle entries must be a 2-D grid of integers") from None
        if len({len(row) for row in self.entries}) > 1:
            raise ValueError("rectangle rows must all have the same length")
        if self.label_ceiling is not None:
            try:
                self.label_ceiling = operator.index(self.label_ceiling)
            except TypeError:
                raise ValueError("label ceiling must be an integer") from None
        if self.deleted is not None:
            try:
                self.deleted = tuple(map(operator.index, self.deleted))
            except TypeError:
                raise ValueError("deleted labels must be integers") from None

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def cells(self) -> Iterable[int]:
        """Every entry, row by row."""
        return chain.from_iterable(self.entries)

    def entry_set(self) -> set[int]:
        return set(self.cells())

    def __repr__(self) -> str:
        return (
            f"<Rectangle {self.rows}x{self.cols} "
            f"ceiling={self.label_ceiling} deleted={self.deleted}>"
        )


@dataclass
class RectangleReport:
    ok: bool
    balanced: bool
    column_sums: tuple[int, ...]
    violations: list[str] = field(default_factory=list)


def column_sums(rect: Rectangle) -> list[int]:
    """Per-column entry sums, exact in Python integers."""
    return [sum(col) for col in zip(*rect.entries)]


def validate(rect: Rectangle) -> RectangleReport:
    """Check distinctness, pool coverage, and balance; collect all violations."""
    violations: list[str] = []
    counts = Counter(rect.cells())
    if counts and min(counts) <= 0:
        violations.append("non-positive entry")
    for v in sorted(v for v, c in counts.items() if c > 1):
        violations.append(f"duplicate entry {v} (x{counts[v]})")
    if rect.label_ceiling is not None:
        pool = set(range(1, rect.label_ceiling + 1))
        if rect.deleted is not None:
            overlap = set(rect.deleted) & rect.entry_set()
            for a in sorted(overlap):
                violations.append(f"deleted label {a} present in entries")
            expected = pool - set(rect.deleted)
            got = rect.entry_set()
            if got != expected:
                missing = sorted(expected - got)[:5]
                extra = sorted(got - expected)[:5]
                violations.append(
                    f"pool mismatch: missing {missing}, unexpected {extra}"
                )
        elif not rect.entry_set() <= pool:
            violations.append(f"entries exceed label ceiling {rect.label_ceiling}")
    sums = column_sums(rect)
    balanced = len(set(sums)) <= 1
    if not balanced:
        violations.append(f"unequal column sums {sorted(set(sums))}")
    return RectangleReport(
        ok=not violations,
        balanced=balanced,
        column_sums=tuple(sums),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# deleted-label rectangles (odd rows, even columns)
# ---------------------------------------------------------------------------

def case1(m: int) -> Rectangle:
    """3 x 2m rectangle over {1..6m+1} \\ {5m+1}, every column summing to 9m+2."""
    return case3(3, m)


def case2(m: int) -> Rectangle:
    """5 x 2m rectangle over {1..10m+1} \\ {9m+1}, every column summing to 25m+3."""
    return case3(5, m)


def _case3_doubled(i: int, j: int, n: int, m: int, last_row_fix: bool) -> int:
    """2 * entry (i, j) of the case3 rectangle; i, j are 1-based."""
    aj = j & 1        # 1 when j is odd
    aj1 = 1 - aj      # 1 when j+1 is odd
    if i == 1:
        return 2 * j
    if i == n:
        if n % 4 == 1:
            return 4 * m * n - 2 * m + j + 3 * aj - 2 * m * aj1
        if last_row_fix:
            return 4 * m * n + 2 - j + aj - 2 * m * aj1
        # off-by-one variant: breaks distinctness, kept as a regression witness
        return 4 * m * n - j + 1 - aj1 * (2 * m + 1)
    if i in (2, 4):
        return 2 * (2 * i - 1) * m - (j - 1) + aj1 * (2 * m + 1)
    if i == 3 or i % 4 == 3:
        return 4 * m * i - (j - 1) + aj1 * (1 - 2 * m)
    if i % 4 == 1:
        return 4 * m * i - 2 * m + j + aj * (1 - 2 * m)
    if i % 4 == 2:
        return 4 * m * i - 2 * m + j + aj - 2 * m * aj1
    # i % 4 == 0
    return 4 * m * i - (j - 1) - 2 * m * aj + aj1


def case3(n: int, m: int, *, last_row_fix: bool = True) -> Rectangle:
    """n x 2m rectangle over {1..2mn+1} \\ {m(2n-1)+1} for odd n >= 3.

    Entries come from a piecewise formula over the row index with a column
    parity term.  Row n takes the last-row formula, chosen by n mod 4; the
    other rows take the formulas for rows 1-4 as far as n reaches them, and
    the interior rows 5..n-1 go by residue mod 4.  Every column sums to
    (n^2 p + n + 1)/2 for p = 2m.

    Every formula is linear in the column index j with one slope per row,
    so a row is two arithmetic progressions, over its odd and its even
    columns, each stepping by twice that slope in doubled units.  The step
    is even, so the first doubled value of a progression decides whether
    every cell of it is an integer.

    last_row_fix keeps the +1 correction on the row-n formula for
    n = 3 (mod 4).  Disabling it reproduces a known off-by-one variant that
    duplicates a label and shifts the affected column sums; that variant is
    retained only so regression tests can pin the defect, and it skips the
    construction self-checks below.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    a = []
    for i in range(1, n + 1):
        row = [0] * (2 * m)
        first, second, third = [_case3_doubled(i, j, n, m, last_row_fix) for j in (1, 2, 3)]
        step = (third - first) // 2
        for j, d in ((1, first), (2, second)):
            if d % 2 != 0:
                raise AssertionError(
                    f"non-integer entry at (i={i}, j={j}, n={n}, m={m}): {d}/2"
                )
            row[j - 1 :: 2] = range(d // 2, d // 2 + step * m, step)
        a.append(row)
    deleted = m * (2 * n - 1) + 1
    rect = Rectangle(a, label_ceiling=2 * m * n + 1, deleted=(deleted,))
    if last_row_fix:
        # construction self-check: a failure here is a builder bug
        expected = set(range(1, 2 * m * n + 2))
        expected.remove(deleted)
        if rect.entry_set() != expected:
            raise AssertionError(
                f"case3({n},{m}) does not cover its label pool"
            )
    return rect


def construct_deleted(n: int, p: int) -> Rectangle:
    """Deleted-label rectangle for odd n > 1 and even p > 1: case3(n, p/2).

    The deleted label is np - p/2 + 1 and every column sums to
    (n^2 p + n + 1)/2; both facts are asserted here rather than assumed.
    """
    if n % 2 == 0 or n <= 1:
        raise ValueError(f"n must be odd and > 1, got {n}")
    if p % 2 == 1 or p <= 1:
        raise ValueError(f"p must be even and > 1, got {p}")
    rect = case3(n, p // 2)
    # construction self-checks, kept under python -O: a failure is a builder bug
    if rect.deleted != (n * p - p // 2 + 1,):
        raise AssertionError("deleted label drifted")
    want = (n * n * p + n + 1) // 2
    if any(s != want for s in column_sums(rect)):
        raise AssertionError("column sums drifted")
    return rect


def complement(rect: Rectangle) -> Rectangle:
    """Reflect a deleted-label rectangle through np+2.

    Each entry a becomes (np+2) - a, the deleted label moves to
    (np+2) - a_deleted, and a balanced rectangle with column sum b maps to
    one with column sum n(np+2) - b.  Involutive.
    """
    n, p = rect.rows, rect.cols
    ceiling = n * p + 1
    if rect.label_ceiling is not None and rect.label_ceiling != ceiling:
        raise ValueError(
            f"complement needs label ceiling np+1 = {ceiling}, "
            f"got {rect.label_ceiling}"
        )
    if max(rect.cells()) > ceiling or min(rect.cells()) < 1:
        raise ValueError(f"entries outside 1..{ceiling}")
    if rect.deleted is not None:
        deleted = rect.deleted
    else:
        deleted = tuple(sorted(set(range(1, ceiling + 1)) - rect.entry_set()))
    if len(deleted) != 1:
        raise ValueError(f"expected exactly one deleted label, got {deleted}")
    return Rectangle(
        [[n * p + 2 - x for x in row] for row in rect.entries],
        label_ceiling=ceiling,
        deleted=(n * p + 2 - deleted[0],),
    )


def split(rect: Rectangle, m: int) -> list[Rectangle]:
    """Cut a balanced rectangle into m column-disjoint balanced pieces.

    Any selection of columns preserves the common column sum; for
    reproducibility piece k takes columns k, k+m, k+2m, ...  Requires m to
    divide the column count.  Pieces carry no pool metadata: their entry
    sets partition the parent's entries rather than a contiguous range.
    """
    if m < 1:
        raise ValueError(f"piece count must be >= 1, got {m}")
    if rect.cols % m != 0:
        raise ValueError(f"{m} does not divide column count {rect.cols}")
    sums = column_sums(rect)
    if len(set(sums)) > 1:
        raise ValueError(f"rectangle is not balanced: column sums {sums}")
    return [Rectangle([row[k::m] for row in rect.entries]) for k in range(m)]


# ---------------------------------------------------------------------------
# balanced rectangles (no deleted label)
# ---------------------------------------------------------------------------

def balanced_even(n: int, p: int) -> Rectangle:
    """n x p rectangle over exactly {1..np} for even n; column sums n(np+1)/2.

    Rows are filled in complementary pairs (k, n+1-k): row k ascends through
    its label block while its partner descends, so each pair contributes
    np+1 to every column.
    """
    if n % 2 == 1 or n < 2:
        raise ValueError(f"n must be even and >= 2, got {n}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = []
    for i in range(1, n + 1):
        block = range((i - 1) * p + 1, i * p + 1)
        a.append(block if 2 * i <= n else block[::-1])
    return Rectangle(a, label_ceiling=n * p, deleted=())


def kotzig(p: int) -> tuple[tuple[int, ...], ...]:
    """3 x p row tuples for odd p: each row permutes {0..p-1}, columns sum 3(p-1)/2.

    With p = 2k+1 the rows are j, (j+k) mod p, and 3k minus their sum.
    """
    if p % 2 == 0 or p < 1:
        raise ValueError(f"p must be odd and >= 1, got {p}")
    k = (p - 1) // 2
    r2 = tuple((j + k) % p for j in range(p))
    r3 = tuple(3 * k - j - r for j, r in enumerate(r2))
    return tuple(range(p)), r2, r3


def balanced_odd(n: int, p: int) -> Rectangle:
    """n x p rectangle over exactly {1..np} for odd n, p; column sums n(np+1)/2.

    Rows 1-3 place a Kotzig array over the first three label blocks; the
    remaining even count of rows is paired complementarily as in
    balanced_even over the blocks 4..n.
    """
    if n % 2 == 0 or n < 3:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    if p % 2 == 0 or p < 1:
        raise ValueError(f"p must be odd and >= 1, got {p}")
    a: list[Iterable[int]] = [
        [i * p + 1 + x for x in row] for i, row in enumerate(kotzig(p))
    ]
    # rows 4..n pair up as (i, n+4-i); the lower row of each pair ascends
    for i in range(4, n + 1):
        block = range((i - 1) * p + 1, i * p + 1)
        a.append(block if 2 * i <= n + 3 else block[::-1])
    return Rectangle(a, label_ceiling=n * p, deleted=())


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def rectangle_to_csv(rect: Rectangle) -> str:
    """CSV text: one row per line, pool metadata in '#' header comments."""
    lines = []
    if rect.label_ceiling is not None:
        lines.append(f"# label_ceiling: {rect.label_ceiling}")
    if rect.deleted is not None:
        lines.append(f"# deleted: {','.join(str(a) for a in rect.deleted) or '-'}")
    for row in rect.entries:
        lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n"


def rectangle_from_csv(text: str) -> Rectangle:
    ceiling: int | None = None
    deleted: tuple[int, ...] | None = None
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            try:
                if body.startswith("label_ceiling:"):
                    ceiling = int(body.split(":", 1)[1])
                elif body.startswith("deleted:"):
                    val = body.split(":", 1)[1].strip()
                    deleted = () if val in ("-", "") else tuple(
                        int(x) for x in val.split(",")
                    )
            except ValueError:
                raise ValueError(f"line {lineno}: non-integer value in {line!r}") from None
            continue
        try:
            row = [int(x) for x in line.split(",")]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer cell in {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {lineno}: row has {len(row)} cells, expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ValueError("no matrix rows found")
    return Rectangle(rows, ceiling, deleted)


def rectangle_to_json(rect: Rectangle) -> dict:
    return {
        "rows": rect.rows,
        "cols": rect.cols,
        "entries": [list(row) for row in rect.entries],
        "deleted": list(rect.deleted) if rect.deleted is not None else None,
        "label_ceiling": rect.label_ceiling,
    }


def rectangle_from_json(doc: dict | str) -> Rectangle:
    """Rectangle from a rectangle_to_json document; "entries" must hold at least one row."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "entries" not in doc:
        raise ValueError('expected a JSON object with an "entries" grid')
    entries = doc["entries"]
    if not (
        isinstance(entries, list) and entries
        and all(isinstance(row, list) and row for row in entries)
    ):
        raise ValueError(
            'no matrix rows found: "entries" must be a non-empty list of non-empty lists'
        )
    deleted = doc.get("deleted")
    if deleted is not None and not isinstance(deleted, list):
        raise ValueError('"deleted" must be a list of integers or null')
    return Rectangle(entries, doc.get("label_ceiling"), deleted)
