"""The demo scripts run cleanly and print the same text under any hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_demo(path, hash_seed):
    env = dict(os.environ)
    env.pop("SHEAFFORMS_FIELD", None)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=ROOT
    )


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_independent_of_hash_seed(path):
    first, second = run_demo(path, 0), run_demo(path, 2)
    assert first.returncode == 0, first.stderr
    assert second.returncode == 0, second.stderr
    assert first.stdout
    assert first.stdout == second.stdout
