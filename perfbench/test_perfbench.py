"""Tests of the benchmark itself: python -m pytest perfbench -q (from the repository root)."""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import EXACT_COUNTS, UNITS, Tracer, layer_metrics  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def _ops(factory, names):
    return [op for op in factory(GOLDEN) if op.name in names]


def test_same_seed_gives_byte_identical_inputs():
    assert run.cli_inputs(GOLDEN, 11) == run.cli_inputs(GOLDEN, 11)
    assert run.cli_inputs(GOLDEN, 11) != run.cli_inputs(GOLDEN, 12)
    names = [op.name for op in run.closed_form_ops(GOLDEN)]
    orders = [[random.Random(s).sample(names, len(names)) for _ in range(3)] for s in (5, 5, 6)]
    assert orders[0] == orders[1] != orders[2]


def test_swapped_witness_label_counts_as_failure():
    from magiclab.labeling import Labeling

    (op,) = _ops(run.closed_form_ops, {"cycle-deleted-2xC5x51"})
    honest = run.run_passes([op], 0, random.Random(0))
    assert run.check_passes(honest)[:2] == (1, 0)

    def corrupted(tracer, inner=op.run):
        result = inner(tracer)
        labels = list(result.witness.labels)
        labels[0], labels[-1] = labels[-1], labels[0]  # first and last fiber
        return dataclasses.replace(result, witness=Labeling(tuple(labels)))

    bad = dataclasses.replace(op, run=corrupted)
    attempted, failed, problems = run.check_passes(run.run_passes([bad], 0, random.Random(0)))
    assert (attempted, failed) == (1, 1)
    assert "not magic" in problems[0]


def test_exception_counts_as_failure():
    (op,) = _ops(run.closed_form_ops, {"cycle-deleted-2xC5x51"})

    def boom(tracer):
        raise RuntimeError("kernel fell over")

    passes = run.run_passes([dataclasses.replace(op, run=boom)], 0, random.Random(0))
    attempted, failed, problems = run.check_passes(passes)
    assert (attempted, failed) == (1, 1) and "kernel fell over" in problems[0]


def test_traced_mode_changes_no_answer_or_count():
    from magiclab import _kernels, families

    originals = (_kernels.backtrack, families.verify_s_magic)
    ops = _ops(run.oracle_ops, {"H(2,3)", "1C5[K2]", "C(6)[K1]", "prism[K1]"}) + _ops(
        run.closed_form_ops, {"cycle-deleted-2xC5x51", "cycle-quarter-1xC8x61"}
    )
    counts = []
    for _ in range(2):
        tracer = Tracer()
        plain, traced = run.run_passes(ops, 0, random.Random(1), tracer)
        assert not plain.traced and traced.traced
        by_name = {op.name: answer for op, answer, _ in plain.answers}
        for op, answer, _ in traced.answers:
            assert answer == by_name[op.name]
        assert run.check_passes([plain, traced])[1] == 0
        metrics = layer_metrics(tracer.spans, traced.op_ids)
        counts.append({k: metrics[k] for k in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.nodes"] > 0 and counts[0]["labeling.arcs_checked"] > 0
    assert (_kernels.backtrack, families.verify_s_magic) == originals


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
