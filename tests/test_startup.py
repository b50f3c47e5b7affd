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
