"""The package starts and runs without numpy: no path imports it."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from magiclab.graphs import Graph, build_circulant, build_cycle, build_multipartite, emit_edge_list
from magiclab.rectangles import case1, rectangle_to_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_importing_the_cli_loads_no_numpy():
    proc = run_python("""
        import sys
        import magiclab, magiclab.cli
        assert "numpy" not in sys.modules, "numpy imported at start-up"
    """)
    assert proc.returncode == 0, proc.stderr


# C4 ∪ C3 ∪ C5: A(C4) is singular, A(C3) is not, so the nonsingular branch decides
C4_C3_C5 = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4),
            (7, 8), (8, 9), (9, 10), (10, 11), (11, 7)]


# the two paths that once imported numpy on demand; each now runs on Python ints alone
ON_DEMAND = {
    "csr": """
        assert build_cycle(4).csr() == ([0, 2, 4, 6, 8], [1, 3, 0, 2, 1, 3, 0, 2])
    """,
    "tournament": f"""
        r = theta_lex_blowup(build_circulant(12, [1, 2]), 41)
        assert (r.theta, r.theorem) == (0, "regular-blowup-tournament")
        r = theta_lex_blowup(Graph(12, {C4_C3_C5!r}), 3)
        assert (r.theta, r.theorem) == (1, "regular-blowup-nonsingular")
    """,
}


@pytest.mark.parametrize("path", ON_DEMAND)
def test_numpy_is_imported_on_demand(path):
    # "on demand" now means never by the package: the path must leave numpy unloaded
    proc = run_python(
        """
        import sys
        from magiclab import Graph, build_circulant, build_cycle, theta_lex_blowup
        """
        + ON_DEMAND[path]
        + """
        assert "numpy" not in sys.modules
        """
    )
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def files(tmp_path):
    paths = {
        "k33": emit_edge_list(build_multipartite(3, 2)),
        "c5": emit_edge_list(build_cycle(5)),
        "circ12": emit_edge_list(build_circulant(12, [1, 2])),
        "c4_c3_c5": emit_edge_list(Graph(12, C4_C3_C5)),
        "magic": "1 3 7 2 4 5",
        "not_magic": "1 2 3 4 5 6",
        "case1": rectangle_to_csv(case1(2)),
    }
    for name, text in paths.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in paths}


COMMANDS = [
    (["construct", "--family", "hnp", "--n", "7", "--p", "8"], 0),
    (["construct", "--family", "hnp", "--n", "4", "--p", "3", "--out", "csv"], 0),
    (["construct", "--family", "m-hnp", "--m", "2", "--n", "3", "--p", "2"], 0),
    (["construct", "--family", "m-cycle-lex", "--m", "2", "--p", "6", "--n", "3"], 0),
    (["construct", "--family", "m-cycle-lex", "--m", "1", "--p", "8", "--n", "3"], 0),
    (["construct", "--family", "lex", "--n", "3", "--base", "{k33}"], 0),
    (["construct", "--family", "lex", "--n", "3", "--base", "{circ12}"], 0),
    (["construct", "--family", "lex", "--n", "3", "--base", "{c4_c3_c5}"], 0),
    (["construct", "--family", "hnp", "--n", "1", "--p", "3"], 2),
    (["verify", "--graph", "{k33}", "--labels", "{magic}"], 0),
    (["verify", "--graph", "{k33}", "--labels", "{not_magic}"], 1),
    (["index", "--graph", "{k33}"], 0),
    (["index", "--graph", "{c5}"], 3),
    (["eit", "--teams", "8", "--rounds", "4"], 0),
    (["eit", "--teams", "6", "--rounds", "3"], 1),
    (["eit", "--teams", "7", "--rounds", "2"], 3),
    (["eit", "--teams", "6", "--rounds", "3", "--graph", "{k33}"], 0),
    (["rect", "--case", "1", "--m", "2"], 0),
    (["rect", "--case", "2", "--m", "3", "--out", "json"], 0),
    (["rect", "--case", "3", "--n", "7", "--m", "2"], 0),
    (["rect", "--case", "even", "--n", "4", "--p", "3"], 0),
    (["rect", "--case", "odd", "--n", "5", "--p", "3"], 0),
    (["rect", "--case", "complement", "--input", "{case1}"], 0),
    (["rect", "--case", "split", "--input", "{case1}", "--pieces", "2"], 0),
    (["rect", "--case", "split", "--input", "{case1}", "--pieces", "3"], 2),
]


def test_commands_run_with_numpy_blocked(files):
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    argvs = [[arg.format(**files) for arg in argv] for argv, _ in COMMANDS]
    proc = run_python(f"""
        import contextlib, io, json, sys
        sys.modules["numpy"] = None
        from magiclab.cli import main
        codes = []
        for argv in {argvs!r}:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                codes.append(main(argv))
            assert "Traceback" not in err.getvalue(), err.getvalue()
        print(json.dumps(codes))
    """)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    wrong = [(argv, want, code) for (argv, want), code in zip(COMMANDS, got) if code != want]
    assert not wrong


# modules each command must leave unloaded: it imports only what it uses
FOOTPRINT = {
    "verify": (
        ["verify", "--graph", "{k33}", "--labels", "{magic}"],
        {"magiclab.search", "magiclab._kernels", "magiclab.rectangles", "magiclab.families",
         "dataclasses", "fractions"},
    ),
    # arithmetic on two integers: no graph, labeling or record-class machinery
    "eit": (
        ["eit", "--teams", "8", "--rounds", "4"],
        {"magiclab.search", "magiclab._kernels", "magiclab.families", "magiclab.labeling",
         "magiclab.rectangles", "magiclab.graphs", "dataclasses", "fractions"},
    ),
    # search takes IndexResult from families, which builds no rectangle here
    "index": (["index", "--graph", "{k33}"], {"magiclab.rectangles", "fractions"}),
    "rect": (
        ["rect", "--case", "complement", "--input", "{case1}"],
        {"magiclab.graphs", "magiclab.labeling", "magiclab.families", "magiclab.search"},
    ),
    # the size limit of a built rectangle comes without the graph readers
    "rect-build": (
        ["rect", "--case", "3", "--n", "7", "--m", "2"],
        {"magiclab.graphs", "magiclab.labeling", "magiclab.families", "magiclab.search"},
    ),
}


@pytest.mark.parametrize("command", FOOTPRINT)
def test_command_loads_only_the_modules_it_uses(files, command):
    argv, absent = FOOTPRINT[command]
    argv = [arg.format(**files) for arg in argv]
    proc = run_python(f"""
        import contextlib, io, json, sys
        from magiclab.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({argv!r})
        print(json.dumps([code, sorted(sys.modules)]))
    """)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert not absent & set(loaded)


# every name `import magiclab` bound when it imported all of its modules
EXPORTS = {
    "_kernels": ["BACKEND"],
    "families": [
        "EitVerdict", "HypothesisError", "IndexResult", "NotMagicError", "NotRegularError",
        "eit_feasible", "eit_schedule", "theta_hnp", "theta_lex_blowup", "theta_m_cycle_lex",
        "theta_m_hnp",
    ],
    "graphs": [
        "Graph", "build_circulant", "build_cycle", "build_multipartite", "disjoint_union",
        "empty_graph", "emit_edge_list", "graph_from_json", "graph_to_json", "lex_product",
        "parse_edge_list", "regular_degree",
    ],
    "labeling": [
        "HnpBounds", "Labeling", "LabelSet", "NonIntegerConstant", "VerificationReport",
        "admissible_deleted_labels", "constant_bounds", "hnp_constant_bounds", "regular_constant",
        "verify_blowup", "verify_s_magic", "vertex_weight",
    ],
    "rectangles": [
        "Rectangle", "balanced_even", "balanced_odd", "case1", "case2", "case3", "column_sums",
        "complement", "construct_deleted", "kotzig", "split", "validate",
    ],
    "search": [
        "SearchBudgetExceeded", "SearchConfig", "compute_index", "enumerate_labelings",
        "find_labeling",
    ],
}


@pytest.mark.parametrize("module", EXPORTS)
def test_every_export_is_its_home_modules_object(module):
    # a fresh process, so that each name is the first to load its module
    proc = run_python(f"""
        import importlib
        import magiclab
        for name in {EXPORTS[module]!r}:
            value = getattr(magiclab, name)
            home = importlib.import_module("magiclab.{module}")
            assert value is getattr(home, name), name
        assert getattr(magiclab, "{module}") is home
        assert magiclab.__version__ == "0.1.0"
    """)
    assert proc.returncode == 0, proc.stderr


def test_star_import_gives_every_export():
    proc = run_python(f"""
        from magiclab import *
        missing = [name for names in {list(EXPORTS.values())!r} for name in names if name not in globals()]
        assert not missing, missing
        assert (families, graphs, labeling, rectangles, search)
    """)
    assert proc.returncode == 0, proc.stderr
