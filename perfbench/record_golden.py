#!/usr/bin/env python3
"""Record golden.json, the answers every benchmark run is checked against.

Run from the repository root on a commit whose answers are trusted:

    python3 perfbench/record_golden.py [--recompute-exact]

Each workload operation runs once.  H(2,6) and H(3,4) run under a node
budget in the benchmark; their golden entries are exact answers from an
unbudgeted search (684 s and 104 s on the interpreted kernel), kept from the
existing golden.json unless --recompute-exact is given.  Results that claim
theta without a witness are recorded unpinned (see check.index_summary).
"""

from __future__ import annotations

import argparse
import json
import sys

import check
import corpus
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--recompute-exact", action="store_true")
    args = parser.parse_args()
    path = run.HERE / "golden.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    sys.path.insert(0, str(run.SRC))
    from magiclab import families, search

    golden: dict = {"closed_form": {}, "oracle_search": {}, "enumerate": {}, "cli": {}}
    for op in run.closed_form_ops(golden):
        golden["closed_form"][op.name] = check.index_summary(op.run(None), exact_witness=False)

    specs = dict(corpus.oracle_corpus())
    for op in run.oracle_ops(golden):
        if op.name in corpus.ORACLE_BUDGETED:
            if not args.recompute_exact:
                golden["oracle_search"][op.name] = old["oracle_search"][op.name]
                continue
            result = search.compute_index(corpus.build(specs[op.name]), search.SearchConfig(theta_cap=1))
        else:
            result = op.run(None)[1]
        golden["oracle_search"][op.name] = check.index_summary(result, exact_witness=True)

    for op in run.enumerate_ops(golden):
        golden["enumerate"][op.name] = [
            [len(sols), check.digest(s.labels for s in sols)] for sols in op.run(None)[1]
        ]

    n, p = corpus.CLI_VERIFY_GRAPH[1:]
    golden["cli"]["h15_30_witness"] = list(families.theta_hnp(n, p).witness.labels)
    golden["cli"]["commands"] = {}
    for op in run.cli_ops(golden, seed=0):
        ans = op.run(None)
        entry = {"exit": ans.exit}
        if op.name != "verify-swapped":  # seeded input: checked independently instead
            entry["stdout"] = json.loads(ans.stdout)
        golden["cli"]["commands"][op.name] = entry

    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
