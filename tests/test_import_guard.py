"""Importing the package, the graph reader and the index must not import
numpy.

numpy is a hard dependency, but importing it costs ~0.1 s per process,
which a short-lived process that only loads a graph would pay for
nothing.  Modules that need numpy import it at module level and are
themselves imported lazily; this test pins that contract in a fresh
interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]

_PROBE = (
    "import sys\n"
    "import repro, repro.graphs.io\n"
    "from repro import HopDoublingIndex\n"
    "print('numpy' in sys.modules)\n"
)


def test_core_imports_leave_numpy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        cwd=_REPO,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False", (
        "importing repro, repro.graphs.io or HopDoublingIndex pulled in "
        "numpy"
    )
