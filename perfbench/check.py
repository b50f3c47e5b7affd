"""Answer checks: golden comparison plus independent re-verification.

Every witness is re-verified here with plain Python from the corpus specs,
never with the package's own verifier.  Each check returns a list of
problems; an empty list means the answer is right.
"""

from __future__ import annotations

import hashlib
import json

from corpus import edges_of


def digest(rows) -> str:
    """sha256 of a JSON-serialised list of label vectors."""
    return hashlib.sha256(json.dumps([list(r) for r in rows]).encode()).hexdigest()


def label_problems(labels, order: int, theta: int | None) -> list[str]:
    """Distinct positive labels, one per vertex, drawn from {1..order+theta}."""
    if len(labels) != order:
        return [f"{len(labels)} labels for {order} vertices"]
    if len(set(labels)) != order:
        return ["repeated label"]
    top = order + (theta or 0)
    if min(labels) < 1 or max(labels) > top:
        return [f"labels outside 1..{top}"]
    return []


def blowup_weights(labels, structure) -> list[int]:
    """Fiber weights of m copies of B[K̄n]: fiber g sums its base neighbours' fibers.

    Vertex k*(n*|B|) + g*n + h is member h of fiber g in copy k.
    """
    m, base, n = structure
    p, base_edges = edges_of(base)
    nbrs = [[] for _ in range(p)]
    for a, b in base_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    weights = []
    for k in range(m):
        off = k * n * p
        fiber = [sum(labels[off + g * n : off + (g + 1) * n]) for g in range(p)]
        weights.extend(sum(fiber[j] for j in nbrs[g]) for g in range(p))
    return weights


def explicit_weights(labels, spec) -> list[int]:
    order, edges = edges_of(spec)
    w = [0] * order
    for u, v in edges:
        w[u] += labels[v]
        w[v] += labels[u]
    return w


def missing_labels(labels) -> list[int]:
    """Labels below the largest one that the labeling leaves out."""
    return sorted(set(range(1, max(labels) + 1)) - set(labels))


def check_index(result, gold: dict, *, order: int, weights_of) -> list[str]:
    """An IndexResult against its golden answer.

    gold["pinned"] false (branches that report theta without a witness) pins
    nothing, so a later fix of such a rule is not a failure; any witness that
    appears is still verified.  gold["labels"] pins the exact witness (search
    results, lexicographically smallest); otherwise the witness only has to
    verify and leave out the golden labels.
    """
    problems = []
    labels = None if result.witness is None else list(result.witness.labels)
    if labels is not None:
        problems += label_problems(labels, order, result.theta)
        weights = [] if problems else weights_of(labels)
        if len(set(weights)) > 1:
            problems.append("witness is not magic")
        elif weights and result.constant is not None and weights[0] != result.constant:
            problems.append(f"constant {result.constant} but witness weight {weights[0]}")
    if not gold.get("pinned", True):
        return problems
    for key in ("kind", "theta", "constant"):
        if getattr(result, key) != gold[key]:
            problems.append(f"{key} {getattr(result, key)!r} != golden {gold[key]!r}")
    if "deleted" in gold and (labels is None or missing_labels(labels) != gold["deleted"]):
        problems.append("label set differs from golden")
    if "labels" in gold and labels != gold["labels"]:
        problems.append("witness differs from golden")
    return problems


def index_summary(result, *, exact_witness: bool) -> dict:
    """Golden record of an IndexResult; witnessless finite claims are not pinned."""
    if result.kind == "finite" and result.witness is None:
        return {"pinned": False, "kind": result.kind, "theta": result.theta}
    doc = {"kind": result.kind, "theta": result.theta, "constant": result.constant}
    if result.witness is not None:
        labels = list(result.witness.labels)
        if exact_witness:
            doc["labels"] = labels
        else:
            doc["deleted"] = missing_labels(labels)
    return doc


def check_graph(graph, spec) -> list[str]:
    """The package-built graph has exactly the edges the spec describes."""
    order, edges = edges_of(spec)
    if graph.order != order or set(graph.edges()) != edges:
        return [f"built graph differs from {spec[0]} spec"]
    return []


def enumeration_problems(solutions, values, spec) -> list[str]:
    """Solutions sorted, distinct, over the label set, each magic."""
    rows = [list(s.labels) for s in solutions]
    if rows != sorted(rows) or len({tuple(r) for r in rows}) != len(rows):
        return ["solutions not in strict lexicographic order"]
    want = sorted(values)
    for r in rows:
        if sorted(r) != want:
            return ["solution uses another label set"]
        if len(set(explicit_weights(r, spec))) != 1:
            return ["solution is not magic"]
    return []
