"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every check is exact -- the constructions are integral and reproducible, so
there are no tolerance bands anywhere.  Run with `pytest -s` to see the
per-criterion lines on success.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from magiclab.families import (
    theta_hnp,
    theta_lex_blowup,
    theta_m_cycle_lex,
    theta_m_hnp,
)
from magiclab.graphs import (
    Graph,
    build_circulant,
    build_cycle,
    build_multipartite,
    disjoint_union,
    empty_graph,
    lex_product,
    regular_degree,
)
from magiclab.labeling import (
    Labeling,
    LabelSet,
    admissible_deleted_labels,
    constant_bounds,
    hnp_constant_bounds,
    regular_constant,
    verify_s_magic,
)
from magiclab.rectangles import (
    balanced_even,
    balanced_odd,
    case1,
    case2,
    case3,
    column_sums,
    complement,
    construct_deleted,
    kotzig,
    split,
    validate,
)
from magiclab.search import SearchConfig, compute_index, enumerate_labelings

GOLDEN_A = (
    (1, 2, 3, 4, 5, 6),
    (9, 12, 8, 11, 7, 10),
    (18, 15, 17, 14, 16, 13),
    (21, 24, 20, 23, 19, 22),
    (29, 25, 30, 26, 31, 27),
)
GOLDEN_A_PRIME = (
    (31, 30, 29, 28, 27, 26),
    (23, 20, 24, 21, 25, 22),
    (14, 17, 15, 18, 16, 19),
    (11, 8, 12, 9, 13, 10),
    (3, 7, 2, 6, 1, 5),
)

PRISM = Graph(
    6,
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
    "prism",
)
CUBE = Graph(
    8,
    [(u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < (u ^ (1 << b))],
    "cube",
)


@contextmanager
def criterion(k: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {k}: FAIL -- {desc}", flush=True)
        raise
    print(f"ACCEPTANCE {k}: PASS -- {desc}", flush=True)


def columns_labeling(rect, n: int) -> Labeling:
    return Labeling(
        tuple(rect.entries[h][g] for g in range(rect.cols) for h in range(n))
    )


def test_criterion_1_golden_fixtures():
    with criterion(1, "printed 5x6 rectangle, reflection, constants 390/410"):
        t0 = time.perf_counter()
        a = case2(3)
        assert a.entries == GOLDEN_A
        a_prime = complement(a)
        assert a_prime.entries == GOLDEN_A_PRIME
        assert column_sums(a) == [78] * 6
        assert column_sums(a_prime) == [82] * 6
        g = build_multipartite(5, 6)
        rep = verify_s_magic(g, columns_labeling(a, 5))
        assert rep.is_magic and rep.constant == 390
        rep = verify_s_magic(g, columns_labeling(a_prime, 5))
        assert rep.is_magic and rep.constant == 410
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1, f"golden fixtures took {elapsed:.3f}s"


def test_criterion_2_figure_reproduction():
    with criterion(2, "reflected 3x2 rectangle labels K_{3,3} with constant 13"):
        rect = complement(case1(1))
        lab = columns_labeling(rect, 3)
        assert lab.label_set.values == (1, 3, 4, 5, 6, 7)
        rep = verify_s_magic(build_multipartite(3, 2), lab)
        assert rep.is_magic
        assert rep.constant == 13


def test_criterion_3_construction_sweep():
    with criterion(3, "deleted-label sweep n in 3..15 odd, p in 2..12 even"):
        t0 = time.perf_counter()
        for n in range(3, 16, 2):
            for p in range(2, 13, 2):
                rect = construct_deleted(n, p)
                report = validate(rect)
                assert report.ok, report.violations
                assert rect.label_ceiling == n * p + 1
                assert rect.deleted == (n * p - p // 2 + 1,)
                want = (n * n * p + n + 1) // 2
                assert set(report.column_sums) == {want}
                g = build_multipartite(n, p)
                vrep = verify_s_magic(g, columns_labeling(rect, n))
                assert vrep.is_magic
                assert vrep.constant == (p - 1) * want
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"sweep took {elapsed:.3f}s"


def test_criterion_4_last_row_off_by_one_regression():
    with criterion(4, "off-by-one last row at (7,1): duplicate 12, sum 52 != 53"):
        bad = case3(7, 1, last_row_fix=False)
        flat = [x for row in bad.entries for x in row]
        assert flat.count(12) == 2
        assert set(column_sums(bad)) == {52}
        assert 53 not in column_sums(bad)
        assert not validate(bad).ok
        good = case3(7, 1)
        assert validate(good).ok
        assert set(column_sums(good)) == {53}


def _oracle_cases():
    """(name, dispatch IndexResult, graph) for every family instance <= 12."""
    cases = []
    for n in range(2, 7):
        for p in range(2, 7):
            if n * p <= 12:
                cases.append(
                    (f"H({n},{p})", theta_hnp(n, p), build_multipartite(n, p))
                )
    for m in (2, 3):
        for n in range(2, 7):
            for p in range(2, 7):
                if m * n * p <= 12:
                    g = disjoint_union(build_multipartite(n, p), m)
                    cases.append((f"{m}H({n},{p})", theta_m_hnp(m, n, p), g))
    for m in (1, 2):
        for p in range(3, 7):
            for n in range(2, 5):
                if m * n * p <= 12:
                    g = disjoint_union(
                        lex_product(build_cycle(p), empty_graph(n)), m
                    )
                    cases.append(
                        (f"{m}C{p}[K{n}]", theta_m_cycle_lex(m, p, n), g)
                    )
    corpus = [
        build_cycle(3),
        build_cycle(4),
        build_cycle(5),
        build_cycle(6),
        build_multipartite(1, 4),  # K_4
        build_multipartite(3, 2),  # K_{3,3}
        PRISM,
        CUBE,
    ]
    for base in corpus:
        for n in range(1, 13):
            if base.order * n <= 12:
                g = lex_product(base, empty_graph(n))
                cases.append(
                    (f"{base.name}[K{n}]", theta_lex_blowup(base, n), g)
                )
    return cases


def test_criterion_5_oracle_equivalence():
    with criterion(5, "closed-form theta equals exact search on all <= 12-vertex instances"):
        cfg = SearchConfig(theta_cap=1)
        checked = 0
        for name, dispatch, graph in _oracle_cases():
            found = compute_index(graph, cfg)
            assert found.kind == dispatch.kind, (
                f"{name}: search {found.kind} vs dispatch {dispatch.kind}"
            )
            assert found.theta == dispatch.theta, (
                f"{name}: search theta {found.theta} vs dispatch {dispatch.theta}"
            )
            checked += 1
        assert checked >= 40


ODD_REGULAR = [build_multipartite(1, 4), build_multipartite(3, 2), PRISM, CUBE]
REGULAR_CORPUS = ODD_REGULAR + [
    build_cycle(4),
    build_cycle(5),
    build_cycle(6),
    build_multipartite(2, 3),  # octahedron
]


def _triangular_graph():
    pairs = list(combinations(range(5), 2))
    idx = {p: i for i, p in enumerate(pairs)}
    edges = [
        (idx[a], idx[b]) for a in pairs for b in pairs if a < b and set(a) & set(b)
    ]
    return Graph(10, edges, "T5")


def test_criterion_6_necessary_conditions():
    with criterion(6, "no labeling survives an excluded deleted label; bounds hold"):
        # odd-regular graphs are never distance magic
        for g in ODD_REGULAR:
            assert enumerate_labelings(g, LabelSet.natural(g.order)) == []
        # deleting 1 never works on odd-regular instances
        for g in ODD_REGULAR:
            assert enumerate_labelings(g, LabelSet.without(g.order + 1, 1)) == []
        # every witness found anywhere respects the admissibility filter and
        # the forced-constant formula; theta = 1 constants sit in the bracket
        witnesses = []  # (order, r, a, constant, source)
        for g in REGULAR_CORPUS + [build_circulant(10, {1, 2, 3}), _triangular_graph()]:
            n, r = g.order, regular_degree(g)
            admissible = admissible_deleted_labels(n, r)
            for a in range(1, n + 1):
                sols = enumerate_labelings(g, LabelSet.without(n + 1, a))
                if not sols:
                    continue
                assert a in admissible, f"{g.name}: witness with excluded a={a}"
                want_c = regular_constant(n, r, a)
                for lab in sols[:10]:
                    rep = verify_s_magic(g, lab)
                    assert rep.is_magic and rep.constant == want_c
                witnesses.append((n, r, a, want_c, g.name))
        # family dispatch witnesses with theta = 1 feed the same checks
        family_theta1 = [
            (theta_hnp(n, p), n, p, build_multipartite(n, p))
            for n in (3, 5, 7)
            for p in (2, 4, 6)
        ]
        for result, n, p, g in family_theta1:
            assert result.theta == 1
            r = regular_degree(g)
            a = result.witness.label_set.deleted[0]
            assert a in admissible_deleted_labels(g.order, r)
            witnesses.append((g.order, r, a, result.constant, g.name))
            lo, hi = hnp_constant_bounds(n, p)[:2]
            assert lo <= result.constant <= hi
        assert witnesses, "expected at least one theta = 1 witness"
        for order, r, a, c, name in witnesses:
            lo, hi = constant_bounds(order, r)
            assert lo <= Fraction(c) <= hi, f"{name}: constant {c} outside bracket"


def test_criterion_7_structural_properties():
    with criterion(7, "involution/partition/Kotzig/balanced properties, >= 10^4 cases"):
        rng = random.Random(20260810)
        cases = 0
        # complement is an involution on deleted-label rectangles
        for _ in range(3000):
            n = rng.choice([3, 5, 7, 9, 11, 13, 15, 17, 19, 21])
            m = rng.randint(1, 12)
            rect = construct_deleted(n, 2 * m)
            refl = complement(rect)
            assert validate(refl).ok
            assert complement(refl) == rect
            cases += 1
        # split pieces partition the entries and keep the column sum
        for _ in range(3000):
            n = rng.choice([3, 5, 7, 9, 11])
            total_m = rng.randint(1, 12)
            rect = construct_deleted(n, 2 * total_m)
            divisors = [d for d in range(1, rect.cols + 1) if rect.cols % d == 0]
            m = rng.choice(divisors)
            pieces = split(rect, m)
            b = column_sums(rect)[0]
            merged = set()
            for piece in pieces:
                assert set(column_sums(piece)) == {b}
                entries = piece.entry_set()
                assert not merged & entries
                merged |= entries
            assert merged == rect.entry_set()
            cases += 1
        # Kotzig arrays: permutation rows, constant column sums, all odd p <= 999
        for p in range(1, 1000, 2):
            k = kotzig(p)
            want = set(range(p))
            for row in k:
                assert set(row) == want
            assert set(map(sum, zip(*k))) == {3 * (p - 1) // 2}
            cases += 1
        # balanced rectangles validate; sampled witnesses verify
        for i in range(1800):
            n = 2 * rng.randint(1, 10)
            p = rng.randint(1, 12)
            rect = balanced_even(n, p)
            assert validate(rect).ok
            assert set(column_sums(rect)) == {n * (n * p + 1) // 2}
            cases += 1
            if i % 6 == 0 and p >= 2 and n * p <= 80:
                g = build_multipartite(n, p)
                rep = verify_s_magic(g, columns_labeling(rect, n))
                assert rep.is_magic and rep.is_distance_magic
        for i in range(1800):
            n = 2 * rng.randint(1, 10) + 1
            p = 2 * rng.randint(0, 6) + 1
            rect = balanced_odd(n, p)
            assert validate(rect).ok
            assert set(column_sums(rect)) == {n * (n * p + 1) // 2}
            cases += 1
            if i % 6 == 0 and p >= 3 and n * p <= 80:
                g = build_multipartite(n, p)
                rep = verify_s_magic(g, columns_labeling(rect, n))
                assert rep.is_magic and rep.is_distance_magic
        assert cases >= 10_000, f"only {cases} generated"


def test_criterion_8_theta0_witnesses():
    with criterion(8, "distance magic witnesses for even parts and odd products"):
        # multipartite, n even
        for n in range(2, 11, 2):
            for p in range(2, 11):
                res = theta_hnp(n, p)
                assert res.theta == 0
                g = build_multipartite(n, p)
                rep = verify_s_magic(g, res.witness)
                assert rep.is_magic and rep.is_distance_magic
                assert rep.constant == (p - 1) * (n * (n * p + 1) // 2)
        # multipartite, all-odd product
        for n in range(3, 10, 2):
            for p in range(3, 10, 2):
                res = theta_hnp(n, p)
                assert res.theta == 0
                rep = verify_s_magic(build_multipartite(n, p), res.witness)
                assert rep.is_distance_magic
                assert rep.constant == (p - 1) * (n * (n * p + 1) // 2)
        # cycle blow-ups, n even
        for n in range(2, 11, 2):
            for p in range(3, 11):
                for m in (1, 2):
                    res = theta_m_cycle_lex(m, p, n)
                    assert res.theta == 0
                    g = disjoint_union(
                        lex_product(build_cycle(p), empty_graph(n)), m
                    )
                    rep = verify_s_magic(g, res.witness)
                    assert rep.is_magic and rep.is_distance_magic
                    assert rep.constant == n * (n * m * p + 1)
        # cycle blow-ups, odd product
        for n in range(3, 10, 2):
            for p in range(3, 10, 2):
                for m in (1, 3):
                    res = theta_m_cycle_lex(m, p, n)
                    assert res.theta == 0
                    g = disjoint_union(
                        lex_product(build_cycle(p), empty_graph(n)), m
                    )
                    rep = verify_s_magic(g, res.witness)
                    assert rep.is_magic and rep.is_distance_magic
                    assert rep.constant == n * (n * m * p + 1)
