"""The scripts in scripts/ run end to end against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)


@pytest.mark.parametrize("script, lines", [
    ("reproduce_nonunimodal.py", ["h*: 1 0 0 0 0 0 0 0 131 0 0 0 0 0 0 0",
                                  "first dip: index 9 (12488 > 11676 < 11704)"]),
    ("search_dim14.py", ["  -> 0 candidate(s) from 5586 patterns"]),
])
def test_script_prints_its_anchors(script, lines):
    proc = run_script(script)
    assert (proc.returncode, proc.stderr) == (0, "")
    out = proc.stdout.splitlines()
    for line in lines:
        assert line in out
