"""Backtracking kernel for exact magic-labeling search.

`backtrack` runs interpreted over numpy arrays; `BACKEND` names it.  The
search is the only hot loop in the package -- everything else is
closed-form construction.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"

STATUS_DONE = 0
STATUS_NODE_LIMIT = 1
STATUS_OUT_FULL = 2

_EMPTY = np.empty(0, dtype=np.int64)


def backtrack(
    indptr,
    nbrs,
    labels,
    have_c,
    c_init,
    prune,
    node_limit,
    stop_after,
    max_out,
    dptr=_EMPTY,
    drow=_EMPTY,
    dsign=_EMPTY,
    twin_prev=_EMPTY,
):
    """Depth-first search for magic assignments in lexicographic order.

    The search solves linear equality rows with +-1 coefficients over a
    permutation of `labels`.  Vertices are assigned in id order, labels tried
    in ascending order, so accepted assignments appear sorted by the label
    vector.  `labels` must be sorted ascending with len(labels) == order.

    Neighborhood rows come from the CSR adjacency (indptr, nbrs): the labels
    on N(u) sum to the constant c, which is either supplied (have_c) or fixed
    by the first completed neighborhood.  Optional extra rows target 0 and
    are given by vertex in CSR form: vertex v enters row drow[k] with sign
    dsign[k] for k in dptr[v]:dptr[v+1].  Optional twin_prev[v] >= 0 names an
    earlier vertex whose label must be smaller than v's, so the label scan
    of v starts just after it.

    With prune set, a branch dies as soon as a completed row misses its
    target or a partial row can no longer reach it with labels in
    [labels[0], labels[-1]].  Without prune, full assignments are generated
    and checked at the leaves only -- same results, no shortcuts; the extra
    rows and the twin order are ignored.

    node_limit < 0 means unlimited; a node is one attempted assignment.
    Recording stops after `stop_after` accepted assignments; if an extra one
    is found once `max_out` are recorded, the walk aborts with
    STATUS_OUT_FULL so the caller can grow the buffer and rerun.

    Returns (status, nodes, count, out) with accepted label vectors packed
    row-major into out[:count*n].
    """
    n = indptr.shape[0] - 1
    out = np.empty(max_out * n, dtype=np.int64)
    used = np.zeros(n, dtype=np.bool_)
    pick = np.full(n, -1, dtype=np.int64)
    cfix = np.zeros(n, dtype=np.bool_)
    w = np.zeros(n, dtype=np.int64)
    rem = np.empty(n, dtype=np.int64)
    for u in range(n):
        rem[u] = indptr[u + 1] - indptr[u]
    rows = prune and drow.shape[0] > 0
    twins = prune and twin_prev.shape[0] > 0
    # per extra row: running signed sum, unassigned +1 and -1 entries
    nrows = drow.max() + 1 if drow.shape[0] > 0 else 0
    acc = np.zeros(nrows, dtype=np.int64)
    rpos = np.zeros(nrows, dtype=np.int64)
    rneg = np.zeros(nrows, dtype=np.int64)
    for k in range(drow.shape[0]):
        if dsign[k] > 0:
            rpos[drow[k]] += 1
        else:
            rneg[drow[k]] += 1
    c = c_init
    know_c = have_c
    if prune and not know_c:
        # isolated vertices pin the constant to 0 from the start
        for u in range(n):
            if rem[u] == 0:
                c = 0
                know_c = True
                break
    lmin = labels[0]
    lmax = labels[n - 1]
    nodes = 0
    count = 0
    depth = 0
    li = 0
    while True:
        if li == n:
            # labels exhausted at this depth: undo the level above
            if depth == 0:
                return STATUS_DONE, nodes, count, out
            depth -= 1
        elif used[li]:
            li += 1
            continue
        else:
            nodes += 1
            if node_limit >= 0 and nodes > node_limit:
                return STATUS_NODE_LIMIT, nodes, count, out
            lab = labels[li]
            ok = True
            fixed_here = False
            for k in range(indptr[depth], indptr[depth + 1]):
                u = nbrs[k]
                w[u] += lab
                rem[u] -= 1
            if rows:
                for k in range(dptr[depth], dptr[depth + 1]):
                    r = drow[k]
                    if dsign[k] > 0:
                        acc[r] += lab
                        rpos[r] -= 1
                    else:
                        acc[r] -= lab
                        rneg[r] -= 1
            if prune:
                for k in range(indptr[depth], indptr[depth + 1]):
                    u = nbrs[k]
                    if rem[u] == 0:
                        if know_c:
                            if w[u] != c:
                                ok = False
                                break
                        else:
                            c = w[u]
                            know_c = True
                            fixed_here = True
                    elif know_c:
                        if w[u] + rem[u] * lmin > c or w[u] + rem[u] * lmax < c:
                            ok = False
                            break
            if rows and ok:
                for k in range(dptr[depth], dptr[depth + 1]):
                    r = drow[k]
                    if (
                        acc[r] + rpos[r] * lmin - rneg[r] * lmax > 0
                        or acc[r] + rpos[r] * lmax - rneg[r] * lmin < 0
                    ):
                        ok = False
                        break
            if not ok:
                # roll back the failed attempt in place, the cheap common case
                for k in range(indptr[depth], indptr[depth + 1]):
                    u = nbrs[k]
                    w[u] -= lab
                    rem[u] += 1
                if rows:
                    for k in range(dptr[depth], dptr[depth + 1]):
                        r = drow[k]
                        if dsign[k] > 0:
                            acc[r] -= lab
                            rpos[r] += 1
                        else:
                            acc[r] += lab
                            rneg[r] += 1
                if fixed_here:
                    know_c = False
                li += 1
                continue
            pick[depth] = li
            used[li] = True
            cfix[depth] = fixed_here
            if depth + 1 < n:
                depth += 1
                li = 0
                if twins and twin_prev[depth] >= 0:
                    li = pick[twin_prev[depth]] + 1
                continue
            good = True
            for u in range(1, n):
                if w[u] != w[0]:
                    good = False
                    break
            if good:
                if count == max_out:
                    return STATUS_OUT_FULL, nodes, count, out
                for v in range(n):
                    out[count * n + v] = labels[pick[v]]
                count += 1
                if count >= stop_after:
                    return STATUS_DONE, nodes, count, out
        # step back: undo the assignment at `depth`, go on with its next label
        li = pick[depth]
        lab = labels[li]
        for k in range(indptr[depth], indptr[depth + 1]):
            u = nbrs[k]
            w[u] -= lab
            rem[u] += 1
        if rows:
            for k in range(dptr[depth], dptr[depth + 1]):
                r = drow[k]
                if dsign[k] > 0:
                    acc[r] -= lab
                    rpos[r] += 1
                else:
                    acc[r] += lab
                    rneg[r] += 1
        if cfix[depth]:
            know_c = False
        used[li] = False
        pick[depth] = -1
        li += 1
