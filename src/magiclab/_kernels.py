"""Backtracking kernel for exact magic-labeling search.

`backtrack` runs interpreted over Python lists of Python ints, so every sum
it forms is exact, whatever the size of the labels; `BACKEND` names it.
The search is the only hot loop in the package -- everything else is
closed-form construction.
"""

from __future__ import annotations

BACKEND = "python"

STATUS_DONE = 0
STATUS_NODE_LIMIT = 1
STATUS_OUT_FULL = 2


def _ints(values) -> list[int]:
    """A list of Python ints from any sequence of integers, numpy arrays included."""
    return [int(x) for x in values]


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
    plus=(),
    minus=(),
    twin_prev=(),
):
    """Depth-first search for magic assignments in lexicographic order.

    The search solves linear equality rows with +-1 coefficients over a
    permutation of `labels`.  Vertices are assigned in id order, labels tried
    in ascending order, so accepted assignments appear sorted by the label
    vector.  `labels` must be sorted ascending with len(labels) == order.
    indptr, nbrs, labels and twin_prev may each be a list or a numpy array
    of integers; each is copied into a list of Python ints on entry.  The
    nine leading parameters and the returned 4-tuple stay as they are:
    the warm-up in perfbench/run.py passes those nine by position, and its
    tracer unpacks the return.

    Neighborhood rows come from the CSR adjacency (indptr, nbrs): the labels
    on N(u) sum to the constant c, which is either supplied (have_c) or fixed
    by the first completed neighborhood.  Optional extra rows target 0 and
    are given by vertex: plus[v] and minus[v] are lists of the rows that
    vertex v enters with sign +1 and with sign -1.  Optional twin_prev[v] >= 0
    names an earlier vertex whose label must be smaller than v's, so the
    label scan of v starts just after it.

    With prune set, a branch dies as soon as a completed row misses its
    target or a partial row can no longer reach it with labels in
    [labels[0], labels[-1]].  Without prune, full assignments are generated
    and checked at the leaves only -- same results, no shortcuts; the extra
    rows and the twin order are ignored.

    node_limit < 0 means unlimited; a node is one attempted assignment.
    Recording stops after `stop_after` accepted assignments; if an extra one
    is found once `max_out` are recorded, the walk aborts with
    STATUS_OUT_FULL.

    Returns (status, nodes, count, out) with the accepted label vectors
    packed row-major into the list out, which holds count*n ints.
    """
    indptr = _ints(indptr)
    nbrs = _ints(nbrs)
    labels = _ints(labels)
    n = len(indptr) - 1
    # the neighbors whose rows vertex v enters, by v
    adj = [nbrs[indptr[v] : indptr[v + 1]] for v in range(n)]
    rem = [len(a) for a in adj]
    lmin = labels[0]
    lmax = labels[n - 1]
    # a neighborhood with r unassigned vertices can still gain between lo[r]
    # and hi[r]; a complete one (r = 0) must already sum to c
    lo = [r * lmin for r in range(max(rem, default=0) + 1)]
    hi = [r * lmax for r in range(len(lo))]

    rows = prune and (any(plus) or any(minus))
    if rows:
        # per extra row, the least and the most its signed sum can still
        # reach with labels in [lmin, lmax]; it stays feasible while
        # low <= 0 <= high
        low = [0] * (1 + max(r for vrows in (*plus, *minus) for r in vrows))
        high = low[:]
        for vrows in plus:
            for r in vrows:
                low[r] += lmin
                high[r] += lmax
        for vrows in minus:
            for r in vrows:
                low[r] -= lmax
                high[r] -= lmin
    twins = prune and len(twin_prev) > 0
    if twins:
        twin_prev = _ints(twin_prev)

    c = c_init
    know_c = have_c
    if prune and not know_c and 0 in rem:
        # isolated vertices pin the constant to 0 from the start
        c = 0
        know_c = True
    # the node that overruns the budget; never reached when unlimited
    overrun = node_limit + 1 if node_limit >= 0 else 0
    w = [0] * n
    pick = [-1] * n
    used = [False] * n
    cfix = [False] * n
    out: list[int] = []
    nodes = 0
    count = 0
    depth = 0
    li = 0
    while True:
        while li < n and used[li]:
            li += 1
        if li == n:
            # labels exhausted at this depth: undo the level above
            if depth == 0:
                return STATUS_DONE, nodes, count, out
            depth -= 1
        else:
            nodes += 1
            if nodes == overrun:
                return STATUS_NODE_LIMIT, nodes, count, out
            lab = labels[li]
            nb = adj[depth]
            fixed_here = False
            for u in nb:
                w[u] += lab
                rem[u] -= 1
            if prune:
                ok = True
                for u in nb:
                    r = rem[u]
                    if know_c:
                        if not lo[r] <= c - w[u] <= hi[r]:
                            ok = False
                            break
                    elif r == 0:
                        # the first completed neighborhood fixes c, and the
                        # rows after it in N(depth) are checked against it
                        c = w[u]
                        know_c = True
                        fixed_here = True
                if ok and rows:
                    for r in plus[depth]:
                        if low[r] + lab > lmin or high[r] + lab < lmax:
                            ok = False
                            break
                    else:
                        for r in minus[depth]:
                            if low[r] + lmax > lab or high[r] + lmin < lab:
                                ok = False
                                break
                if not ok:
                    # roll back the failed attempt in place
                    for u in nb:
                        w[u] -= lab
                        rem[u] += 1
                    if fixed_here:
                        know_c = False
                    li += 1
                    continue
            if rows:
                for r in plus[depth]:
                    low[r] += lab - lmin
                    high[r] += lab - lmax
                for r in minus[depth]:
                    low[r] += lmax - lab
                    high[r] += lmin - lab
            pick[depth] = li
            used[li] = True
            cfix[depth] = fixed_here
            if depth + 1 < n:
                depth += 1
                li = 0
                if twins and twin_prev[depth] >= 0:
                    li = pick[twin_prev[depth]] + 1
                continue
            if w.count(w[0]) == n:
                if count == max_out:
                    return STATUS_OUT_FULL, nodes, count, out
                out += [labels[i] for i in pick]
                count += 1
                if count >= stop_after:
                    return STATUS_DONE, nodes, count, out
        # step back: undo the assignment at `depth`, go on with its next label
        li = pick[depth]
        lab = labels[li]
        for u in adj[depth]:
            w[u] -= lab
            rem[u] += 1
        if rows:
            for r in plus[depth]:
                low[r] -= lab - lmin
                high[r] -= lab - lmax
            for r in minus[depth]:
                low[r] -= lmax - lab
                high[r] -= lmin - lab
        if cfix[depth]:
            know_c = False
        used[li] = False
        pick[depth] = -1
        li += 1
