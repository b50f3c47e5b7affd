"""Backtracking kernel for exact magic-labeling search.

`backtrack` runs interpreted over Python lists of Python ints, so every sum
it forms is exact, whatever the size of the labels; `BACKEND` names it.
The search is the only hot loop in the package -- everything else is
closed-form construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .labeling import _integers

BACKEND = "python"

STATUS_DONE = 0
STATUS_NODE_LIMIT = 1
STATUS_OUT_FULL = 2


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
    permutation of `labels`.  Vertices 0 .. n-1, with n = len(labels), are
    assigned in id order, labels tried in ascending order, so accepted
    assignments appear sorted by the label vector.  `labels` must be sorted
    ascending.  indptr, nbrs, labels and twin_prev may each be a list or a
    numpy array of integers; each is copied into a list of Python ints on
    entry, and a float raises ValueError instead of being truncated.  The
    nine leading parameters and the returned 4-tuple stay as they are: the
    warm-up in perfbench/run.py passes those nine by position, and its
    tracer unpacks the return.

    (indptr, nbrs) are the weight rows in CSR form: row k is the vertex set
    nbrs[indptr[k]:indptr[k+1]], and an assignment is magic when every row
    has the same label sum.  With have_c, each row must sum to c_init.  The
    search builds one row per false-twin class; the CSR adjacency of the
    graph is valid too, one row per vertex, where twins only repeat a row.
    Extra rows target 0 and are given by vertex: plus[v] and minus[v] list
    the rows that vertex v enters with sign +1 and with sign -1.  Optional
    twin_prev[v] >= 0 names an earlier vertex whose label must be smaller
    than v's, so the label scan of v starts just after it.  A first hit
    passes the lex-leader order of the graph's stabiliser chain: v's
    predecessor is the last earlier vertex that an automorphism fixing
    every vertex before that one sends to v (search._search_rows), which
    keeps the lexicographically first magic labeling.  Twins are the case
    where that automorphism swaps two vertices.

    With prune set, a branch dies as soon as a completed row misses its
    target or a partial row can no longer reach it.  A weight row is
    bounded with labels in [labels[0], labels[-1]], and only against a
    forced constant.  An extra row is bounded with the labels still unused
    other than the one tried.  When the walk enters a vertex v, the unused
    labels and every row's sum and open entries stay fixed while v's labels
    are scanned, so `_row_window` works out once which of v's labels every
    row it enters admits, and v's scan covers exactly those labels: no try
    checks an extra row again.  Without prune, full assignments are
    generated and checked at the leaves only -- same results, no
    shortcuts; the extra rows and the order are ignored.

    node_limit < 0 means unlimited; a node is one attempted assignment, and
    a label outside the scan is never attempted.
    Recording stops after `stop_after` accepted assignments; if an extra one
    is found once `max_out` are recorded, the walk aborts with
    STATUS_OUT_FULL.

    Returns (status, nodes, count, out) with the accepted label vectors
    packed row-major into the list out, which holds count*n ints.
    """
    indptr = _integers(indptr)
    nbrs = _integers(nbrs)
    labels = _integers(labels)
    n = len(labels)
    # adj[v] lists the weight rows that v adds its label to; rem[k] counts
    # the unassigned vertices of row k
    adj: list[list[int]] = [[] for _ in range(n)]
    rem = []
    for k in range(len(indptr) - 1):
        for x in nbrs[indptr[k] : indptr[k + 1]]:
            adj[x].append(k)
        rem.append(indptr[k + 1] - indptr[k])
    lmin = labels[0]
    lmax = labels[-1]
    # a weight row with r unassigned vertices can still gain between lo[r]
    # and hi[r]; a complete one (r = 0) must already sum to c_init
    lo = [r * lmin for r in range(max(rem, default=0) + 1)]
    hi = [r * lmax for r in range(len(lo))]

    # extra rows are numbered 0 .. nrows-1
    nrows = 1 + max((r for vrows in (*plus, *minus) for r in vrows), default=-1)
    rows = prune and nrows > 0
    if rows:
        # per extra row: the signed sum of its assigned labels, and how many
        # of its + and - entries are unassigned
        rsum = [0] * nrows
        npos = rsum[:]
        nneg = rsum[:]
        for vrows in plus:
            for r in vrows:
                npos[r] += 1
        for vrows in minus:
            for r in vrows:
                nneg[r] += 1
        enters = [bool(plus[v] or minus[v]) for v in range(n)]
        # per depth that enters a row, the end of its label scan, which
        # still holds when the walk steps back to that depth
        top = [n] * n
    twins = prune and len(twin_prev) > 0
    if twins:
        twin_prev = _integers(twin_prev)

    # the node that overruns the budget; never reached when unlimited
    overrun = node_limit + 1 if node_limit >= 0 else 0
    w = [0] * len(rem)
    pick = [-1] * n
    used = [False] * n
    out: list[int] = []
    nodes = 0
    count = 0
    depth = 0
    li = 0
    # the scan at `depth` stops before labels[stop]
    stop = n
    if rows and enters[0]:
        li, stop = _row_window(labels, used, 0, plus[0], minus[0], rsum, npos, nneg)
        top[0] = stop
    while True:
        while li < stop and used[li]:
            li += 1
        if li >= stop:
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
            for u in nb:
                w[u] += lab
                rem[u] -= 1
            if prune and have_c:
                ok = True
                for u in nb:
                    r = rem[u]
                    if not lo[r] <= c_init - w[u] <= hi[r]:
                        ok = False
                        break
                if not ok:
                    # roll back the failed attempt in place
                    for u in nb:
                        w[u] -= lab
                        rem[u] += 1
                    li += 1
                    continue
            if rows:
                for r in plus[depth]:
                    rsum[r] += lab
                    npos[r] -= 1
                for r in minus[depth]:
                    rsum[r] -= lab
                    nneg[r] -= 1
            pick[depth] = li
            used[li] = True
            if depth + 1 < n:
                depth += 1
                li = 0
                if twins and twin_prev[depth] >= 0:
                    li = pick[twin_prev[depth]] + 1
                if rows:
                    if enters[depth]:
                        li, top[depth] = _row_window(
                            labels, used, li, plus[depth], minus[depth], rsum, npos, nneg
                        )
                    stop = top[depth]
                continue
            if w.count(w[0]) == len(w):
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
            stop = top[depth]
            for r in plus[depth]:
                rsum[r] -= lab
                npos[r] += 1
            for r in minus[depth]:
                rsum[r] += lab
                nneg[r] += 1
        used[li] = False
        pick[depth] = -1
        li += 1


def _row_window(labels, used, first, prow, mrow, rsum, npos, nneg):
    """(start, stop) at a vertex entering + rows prow and - rows mrow.

    Let a and b be the smallest and the largest unused label, and a2 and b2
    the next ones inward.  The open entries of the rows take unused labels
    other than the one tried: labels in [a2, b] when a is tried, in
    [a, b2] when b is, and in [a, b] otherwise.  The scan starts at index
    `first` or later, where the order puts it, and an unused label
    from there on lies in labels[start:stop] exactly when every row can
    still reach 0 with its open entries so bounded.  The labels strictly
    between a and b that pass form one interval; a and b, when the scan
    can reach them inside it, are tested with their own bounds and cut
    off its ends if they fail.
    """
    i = 0
    while used[i]:
        i += 1
    k = len(labels) - 1
    while used[k]:
        k -= 1
    a = labels[i]
    b = labels[k]
    lo, hi = _narrow(a, b, a, b, prow, mrow, rsum, npos, nneg)
    start = bisect_left(labels, lo, i if i > first else first, k + 1)
    stop = bisect_right(labels, hi, i, k + 1)
    if start == i < stop:
        # a2 is the next unused label up; a lone unused label stands in for
        # it, and then no row has an open entry left to bound
        j = i + 1 if i < k else k
        while used[j]:
            j += 1
        lo, hi = _narrow(a, a, labels[j], b, prow, mrow, rsum, npos, nneg)
        if lo > hi:
            start = i + 1
    if start < stop == k + 1:
        # b2 is the next unused label down
        h = k - 1 if i < k else k
        while used[h]:
            h -= 1
        lo, hi = _narrow(b, b, a, labels[h], prow, mrow, rsum, npos, nneg)
        if lo > hi:
            stop = k
    return start, stop


def _narrow(lo, hi, a, b, prow, mrow, rsum, npos, nneg):
    """[lo, hi] cut to the labels with which every row can still reach 0.

    Row r of prow, with p open + entries and m open - entries after the
    vertex, each in [a, b], can reach 0 only when
    m*a - p*b <= rsum[r] + lab <= m*b - p*a; a row of mrow is the same
    with -lab.  The result is empty, lo > hi, when no label passes.
    """
    for r in prow:
        p = npos[r] - 1
        m = nneg[r]
        s = rsum[r]
        x = m * a - p * b - s
        if x > lo:
            lo = x
        x = m * b - p * a - s
        if x < hi:
            hi = x
    for r in mrow:
        p = npos[r]
        m = nneg[r] - 1
        s = rsum[r]
        x = s + p * a - m * b
        if x > lo:
            lo = x
        x = s + p * b - m * a
        if x < hi:
            hi = x
    return lo, hi
