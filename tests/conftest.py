import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_optimized():
    """Run code in a child `python -O` that imports magiclab from this tree.

    `python -O` strips assert statements, so a self-check that must hold in
    every run is shown to survive it here.
    """

    def run(code: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return subprocess.run(
            [sys.executable, "-O", "-c", textwrap.dedent(code)],
            env=env, capture_output=True, text=True, timeout=60,
        )

    return run
