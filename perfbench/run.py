#!/usr/bin/env python3
"""magiclab benchmark: four workloads, end-to-end times, a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0

Workloads (corpora in corpus.py, reasons in BENCHMARK.json, details in
README.md): closed_form, oracle_search, enumerate, cli.  Each is a closed
loop with one operation in flight, driven from this single process; cli runs
one child process at a time.  The seed fixes the operation order and the cli
input files; the corpora are fixed, so figures compare across seeds.

Complete passes over the corpus run until the next one would overrun
--seconds (at least one).  Every answer is checked against golden.json and
every witness is re-verified independently (check.py).  Times are scaled to
a nominal machine speed sampled beside the run (speed.py).  With --trace 0
the result line carries the end-to-end metrics; with --trace 1 passes
alternate untraced and traced, and it carries the per-layer metrics
(tracing.py) and the tracing overhead.  Human-readable lines, including the
environment report, precede the result line, one JSON object with the keys
correct, attempted, failed and metrics.

Work files (cli inputs, traces, the exact-count record) go to .perfbench/
under the repository root.  Exits 2 without a result line when the package
source is not beside the benchmark.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CLI_DIR = WORK / "cli"

import check  # noqa: E402  (sibling modules; HERE is sys.path[0])
import corpus  # noqa: E402
import speed  # noqa: E402
from tracing import EXACT_COUNTS, UNITS, Tracer, adopt, layer_metrics  # noqa: E402

SETUP_REPEATS = 7

SETUP_CODE = (
    "import numpy as np, magiclab, magiclab.cli\n"
    "from magiclab import _kernels\n"
    "_kernels.backtrack(np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1]),\n"
    "                   np.array([1, 2, 3]), False, 0, True, -1, 1, 1)\n"
)


@dataclass
class Op:
    name: str
    run: Callable  # run(tracer or None) -> answer
    check: Callable  # check(answer) -> list of problems
    repeated: bool = False  # rerun corpus.REPEAT_ROUNDS times after the passes of an untraced run


@dataclass
class Pass:
    traced: bool = False
    repeat: bool = False  # a round of repeated light operations, not a pass
    raw_wall: float = 0.0
    spans: list = field(default_factory=list)  # (start, end) of each operation
    latencies: list = field(default_factory=list)  # normalised seconds, filled in by SpeedSampler
    answers: list = field(default_factory=list)  # (op, answer or None, error or None)
    op_ids: set = field(default_factory=set)

    @property
    def wall(self) -> float:
        """Normalised pass time: the operations' times, without the harness between them."""
        return sum(self.latencies)


class SpeedSampler:
    """Runs speed.py beside the measurement; scales raw intervals to nominal machine speed."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.proc.stdout.readline()  # "ready"
        return self

    def __exit__(self, *exc):
        out, _ = self.proc.communicate(timeout=60)
        self.samples = json.loads(out)
        self.starts = [t for t, _ in self.samples]

    def normalised(self, t0: float, t1: float) -> float:
        """t1 - t0 scaled by NOMINAL_S over the median reference time sampled from t0 - 0.5 s to t1 + 0.5 s."""
        lo = bisect.bisect_left(self.starts, t0 - 0.5)
        hi = bisect.bisect_right(self.starts, t1 + 0.5)
        return (t1 - t0) * speed.NOMINAL_S / statistics.median(dt for _, dt in self.samples[lo:hi])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def closed_form_ops(golden: dict) -> list[Op]:
    from magiclab import families

    ops = []
    for label, func, args, structure in corpus.CLOSED_FORM:
        m, base, n = structure
        order = m * n * corpus.edges_of(base)[0]

        def run(tracer, func=func, args=args):
            if func == "theta_lex_blowup":
                args = (corpus.build(args[0]), args[1])
            return getattr(families, func)(*args)

        def verdict(result, label=label, order=order, structure=structure):
            return check.check_index(
                result,
                golden["closed_form"][label],
                order=order,
                weights_of=lambda labels: check.blowup_weights(labels, structure),
            )

        ops.append(Op(label, run, verdict))
    return ops


def oracle_ops(golden: dict) -> list[Op]:
    from magiclab import search

    ops = []
    for name, spec in corpus.oracle_corpus():
        budget = corpus.ORACLE_NODE_BUDGET if name in corpus.ORACLE_BUDGETED else None
        order = corpus.edges_of(spec)[0]

        def run(tracer, spec=spec, budget=budget):
            graph = corpus.build(spec)
            return graph, search.compute_index(graph, search.SearchConfig(theta_cap=1, node_limit=budget))

        def verdict(answer, name=name, spec=spec, order=order, budget=budget):
            graph, result = answer
            if budget is not None and result.kind == "indeterminate":
                return check.check_graph(graph, spec)
            return check.check_graph(graph, spec) + check.check_index(
                result,
                golden["oracle_search"][name],
                order=order,
                weights_of=lambda labels: check.explicit_weights(labels, spec),
            )

        ops.append(Op(name, run, verdict, repeated=name in corpus.ORACLE_REPEATED))
    return ops


def enumerate_ops(golden: dict) -> list[Op]:
    from magiclab import search

    ops = []
    for name, spec, sweep in corpus.ENUMERATE:
        sets = corpus.enumerate_label_sets(corpus.edges_of(spec)[0], sweep)

        def run(tracer, spec=spec, sets=sets):
            graph = corpus.build(spec)
            return graph, [search.enumerate_labelings(graph, values) for values in sets]

        def verdict(answer, name=name, spec=spec, sets=sets):
            graph, found = answer
            problems = check.check_graph(graph, spec)
            for values, sols, (count, dig) in zip(sets, found, golden["enumerate"][name]):
                if len(sols) != count or check.digest(s.labels for s in sols) != dig:
                    problems.append(f"label set {values}: {len(sols)} solutions differ from golden")
                problems += check.enumeration_problems(sols, values, spec)
            return problems

        ops.append(Op(name, run, verdict, repeated=name in corpus.ENUMERATE_REPEATED))
    return ops


@dataclass
class CliAnswer:
    exit: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


def cli_inputs(golden: dict, seed: int) -> dict[str, bytes]:
    """The cli input files for a seed: edge lists in seeded order, a witness, a seeded transposition."""
    rng = random.Random(f"cli-inputs-{seed}")
    files = {"h15_30.txt": corpus.edge_list_text(corpus.CLI_VERIFY_GRAPH, rng).encode()}
    for fname, spec in corpus.CLI_INDEX_GRAPHS.items():
        files[fname] = corpus.edge_list_text(spec, rng).encode()
    witness = list(golden["cli"]["h15_30_witness"])
    n = corpus.CLI_VERIFY_GRAPH[1]
    u = rng.randrange(len(witness))
    v = rng.choice([x for x in range(len(witness)) if x // n != u // n])
    swapped = list(witness)
    swapped[u], swapped[v] = swapped[v], swapped[u]
    files["witness.txt"] = (" ".join(map(str, witness)) + "\n").encode()
    files["swapped.txt"] = (" ".join(map(str, swapped)) + "\n").encode()
    return files


def run_cli(argv: list[str], tracer: Tracer | None) -> CliAnswer:
    """One child process; traced children run under cli_child.py and hand back their spans."""
    out_path, err_path, spans_path = CLI_DIR / "stdout", CLI_DIR / "stderr", CLI_DIR / "spans.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "magiclab.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        spans_path.unlink(missing_ok=True)
        idx = len(tracer.spans)
        span = tracer.begin("cli.process")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=CLI_DIR, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_bytes()
    if tracer is not None:
        tracer.end(span, (len(stdout),))
        adopt(tracer, idx, json.loads(spans_path.read_text()))
    return CliAnswer(proc.returncode, stdout, err_path.read_bytes(), usage.ru_maxrss)


def cli_ops(golden: dict, seed: int) -> list[Op]:
    files = cli_inputs(golden, seed)
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    for fname, data in files.items():
        (CLI_DIR / fname).write_bytes(data)
    swapped = [int(x) for x in files["swapped.txt"].split()]
    ops = []
    for name, argv in corpus.CLI_COMMANDS:
        def run(tracer, argv=argv):
            return run_cli(argv, tracer)

        def verdict(ans, name=name):
            gold = golden["cli"]["commands"][name]
            problems = []
            if ans.exit != gold["exit"]:
                problems.append(f"exit {ans.exit} != golden {gold['exit']}")
            if b"Traceback" in ans.stderr:
                problems.append("traceback on stderr")
            try:
                doc = json.loads(ans.stdout)
            except ValueError:
                return problems + ["stdout is not JSON"]
            if name == "verify-swapped":
                want = check.explicit_weights(swapped, corpus.CLI_VERIFY_GRAPH)
                if doc.get("is_magic") is not False or doc.get("weights") != want or not doc.get("violations"):
                    problems.append("verify of the transposed witness is wrong")
            elif name in corpus.CLI_CONSTRUCT_STRUCTURE:
                structure = corpus.CLI_CONSTRUCT_STRUCTURE[name]
                labels = doc.get("labels") or []
                m, base, n = structure
                problems += check.label_problems(labels, m * n * corpus.edges_of(base)[0], doc.get("theta"))
                if not problems and len(set(check.blowup_weights(labels, structure))) != 1:
                    problems.append("constructed witness is not magic")
                for key in ("theta", "kind", "constant", "label_set"):
                    if doc.get(key) != gold["stdout"][key]:
                        problems.append(f"{key} differs from golden")
            elif doc != gold["stdout"]:
                problems.append("stdout differs from golden")
            return problems

        ops.append(Op(name, run, verdict))
    return ops


WORKLOADS = {
    "closed_form": lambda golden, seed: closed_form_ops(golden),
    "oracle_search": lambda golden, seed: oracle_ops(golden),
    "enumerate": lambda golden, seed: enumerate_ops(golden),
    "cli": cli_ops,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup() -> list[tuple[float, float]]:
    """(start, end) of fresh interpreters that import the package and CLI and call the kernel once."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True, stdout=subprocess.DEVNULL)
        spans.append((t0, time.perf_counter()))
    return spans


def _run_round(ops: list[Op], p: Pass, tracer: Tracer | None, next_id: int) -> int:
    """Run `ops` in order into `p`; returns the next operation id."""
    if tracer is not None:
        tracer.install()
    try:
        t_round = time.perf_counter()
        for op in ops:
            # each operation starts with empty young generations, so the
            # collections inside it do not depend on what ran before
            gc.collect()
            if tracer is not None:
                tracer.op = next_id
                span = tracer.begin("op")
            p.op_ids.add(next_id)
            next_id += 1
            t0 = time.perf_counter()
            try:
                answer, error = op.run(tracer), None
            except Exception:
                answer, error = None, traceback.format_exc()
            p.spans.append((t0, time.perf_counter()))
            if tracer is not None:
                tracer.end(span)
            p.answers.append((op, answer, error))
        p.raw_wall = time.perf_counter() - t_round
    finally:
        if tracer is not None:
            tracer.uninstall()
    return next_id


def run_passes(ops: list[Op], seconds: float, rng: random.Random, tracer: Tracer | None = None) -> list[Pass]:
    """Complete passes in seeded order until the next one would overrun `seconds`.

    With a tracer, passes alternate untraced and traced (untraced first, at
    least one of each), so both sides see the same drift in machine state.
    Untraced runs then add corpus.REPEAT_ROUNDS rounds of the light
    operations for the latency percentiles.
    """
    passes = []
    modes = [None] if tracer is None else [None, tracer]
    start = time.perf_counter()
    next_id = 0
    while True:
        p = Pass(traced=len(modes) == 2 and len(passes) % 2 == 1)
        next_id = _run_round(rng.sample(ops, len(ops)), p, modes[len(passes) % len(modes)], next_id)
        passes.append(p)
        if len(passes) >= len(modes) and time.perf_counter() - start + p.raw_wall > seconds:
            break
    light = [op for op in ops if op.repeated]
    if tracer is None and light:
        for _ in range(corpus.REPEAT_ROUNDS):
            p = Pass(repeat=True)
            next_id = _run_round(rng.sample(light, len(light)), p, None, next_id)
            passes.append(p)
    return passes


def check_passes(passes: list[Pass]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems = []
    for p in passes:
        for op, answer, error in p.answers:
            attempted += 1
            try:
                found = [error.strip().splitlines()[-1]] if error else op.check(answer)
            except Exception:
                found = ["check raised " + traceback.format_exc().strip().splitlines()[-1]]
            if found:
                failed += 1
                problems.append(f"{op.name}: {'; '.join(found)}")
    return attempted, failed, problems


def latency_samples(passes: list[Pass]) -> list[float]:
    """Every execution's time; with repeat rounds, each operation's median over its executions."""
    if not any(p.repeat for p in passes):
        return [x for p in passes for x in p.latencies]
    per_op = {}
    for p in passes:
        for (op, _, _), x in zip(p.answers, p.latencies):
            per_op.setdefault(op.name, []).append(x)
    return [statistics.median(xs) for xs in per_op.values()]


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "magiclab").glob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "golden.json"]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def exact_count_problems(workload: str, per_pass: list[dict]) -> list[str]:
    """Exact counts must repeat between passes and between runs of the same code."""
    counts = [{k: p[k] for k in EXACT_COUNTS} for p in per_pass]
    problems = [f"exact counts changed between passes: {c}" for c in counts[1:] if c != counts[0]]
    record_path = WORK / "counts.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{code_digest()}:{workload}"
    if key in record and record[key] != counts[0]:
        problems.append(f"exact counts {counts[0]} differ from an earlier run of this code: {record[key]}")
    record.setdefault(key, counts[0])
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    return problems


def environment(args, cores: int, cpu: int) -> str:
    from magiclab import _kernels
    import numpy

    numba = "importable" if importlib.util.find_spec("numba") else "not installed"
    return (
        f"env: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"backend={_kernels.BACKEND} numba={numba} python={platform.python_version()} "
        f"numpy={numpy.__version__} cores={cores} pinned_cpu={cpu} "
        f"load=closed-loop,concurrency=1 speedup=n/a (one backend)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="magiclab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magiclab" / "__init__.py").is_file():
        print(f"error: no magiclab package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    # One CPU for this process and every child (speed sampler, set-up
    # interpreters, cli children): the vCPUs of a shared VM drift apart in
    # speed, so the sampler must time the CPU the work runs on.
    cores = os.sched_getaffinity(0)
    cpu = min(cores)
    os.sched_setaffinity(0, {cpu})
    golden = json.loads((HERE / "golden.json").read_text())
    factory = WORKLOADS[args.workload]

    ops = factory(golden, args.seed)
    rng = random.Random(args.seed)
    # warm the search and verifier paths on a graph outside every corpus
    from magiclab import search

    search.compute_index(corpus.build(("C", 7)))

    tracer = Tracer() if args.trace else None
    with SpeedSampler() as sampler:
        setup_spans = measure_setup()
        passes = run_passes(ops, args.seconds, rng, tracer)
    setup = [sampler.normalised(*s) for s in setup_spans]
    for p in passes:
        p.latencies = [sampler.normalised(*s) for s in p.spans]

    lines = [environment(args, len(cores), cpu)]
    if args.trace:
        plain = [p for p in passes if not p.traced]
        traced = [p for p in passes if p.traced]
        per_pass = [layer_metrics(tracer.spans, p.op_ids) for p in traced]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        plain_wall = statistics.median(p.wall for p in plain)
        traced_wall = statistics.median(p.wall for p in traced)
        values["trace.wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - plain_wall
        op_s = values.pop("trace.op_s")
        count_problems = exact_count_problems(args.workload, per_pass)
        trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"spans": tracer.spans, "passes": [sorted(p.op_ids) for p in traced]}))
        lines.append(
            f"trace: {len(plain)} untraced + {len(traced)} traced passes; per pass "
            f"untraced {plain_wall:.4f} s, traced {traced_wall:.4f} s, overhead {traced_wall - plain_wall:+.4f} s; "
            f"layers' self times cover {op_s - values['trace.unattributed_s']:.4f} s of {op_s:.4f} s "
            f"in operations, remainder {values['trace.unattributed_s']:.4f} s; spans in {trace_path.relative_to(ROOT)}"
        )
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}
    else:
        count_problems = []
        full = [p for p in passes if not p.repeat]
        lat = latency_samples(passes)
        # p75: on closed_form and cli the highest of p75, p90, p95 and p99 with
        # ten samples beyond it in a 25 s run; oracle_search (28 operations)
        # and enumerate (12) have too few for ten beyond any of them.
        tail = statistics.quantiles(lat, n=4, method="inclusive")[2]
        if args.workload == "cli":
            rss_kb = max(ans.rss_kb for p in passes for _, ans, _ in p.answers if ans is not None)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(p.wall for p in full), "unit": "s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        lines.append(
            f"latency: {len(lat)} samples from {len(full)} passes and {len(passes) - len(full)} repeat rounds; "
            f"tail = p75 ({sum(x > tail for x in lat)} samples beyond it)"
        )
    attempted, failed, problems = check_passes(passes)
    lines.append(
        f"setup: {len(setup)} fresh interpreters, normalised " + " ".join(f"{t:.4f}" for t in setup)
        + " s; raw " + " ".join(f"{b - a:.4f}" for a, b in setup_spans) + " s"
    )
    loop_s = statistics.median(dt for _, dt in sampler.samples)
    lines.append(
        f"speed: {len(sampler.samples)} reference-loop samples, median {loop_s * 1e3:.4f} ms "
        f"(nominal {speed.NOMINAL_S * 1e3:.4f} ms); pass times raw "
        + " ".join(f"{p.raw_wall:.3f}" for p in passes if not p.repeat) + " s, normalised "
        + " ".join(f"{p.wall:.3f}" for p in passes if not p.repeat) + " s"
    )
    lines.append(f"fail_rate: {failed}/{attempted} = {failed / attempted:.4f}")
    lines += [f"FAIL {msg}" for msg in problems[:20] + count_problems]
    lines += [f"{name:28s} {m['value']:>16.6f} {m['unit']}" for name, m in metrics.items()]
    for line in lines:
        print(line)
    result = {"correct": failed == 0 and not count_problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
