"""`python -m nislie` runs the command from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "nislie", *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_lists_the_catalog():
    done = run_module("catalog", "list")
    assert done.returncode == 0, done.stderr
    assert "hei-double" in done.stdout


def test_module_malformed_call_exits_2_without_a_traceback():
    done = run_module("isometry", "hei-double", "hei-double", "--seed", "foo")
    assert done.returncode == 2
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
