"""The benchmark's own checks, in the tests: each workload of
`bench/workloads.py` runs the first cycle of its schedule for seed 1
through `execute` and then `check`, so a change to the library that breaks
what the benchmark checks (submodule equality in `calculus_gf`, say) fails
here and not only when the benchmark runs. The file is loaded, never
edited."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sheafforms
from sheafforms import linalg, oracles, scenario

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
NAME = "bench_workloads"


def _workloads():
    """`bench/workloads.py` as a module, registered under `NAME` in
    `sys.modules`, which its dataclasses need while they are made."""
    if NAME not in sys.modules:
        spec = importlib.util.spec_from_file_location(NAME, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[NAME] = module
        spec.loader.exec_module(module)
    return sys.modules[NAME]


# the namespace the benchmark reaches the library through
LIB = SimpleNamespace(sf=sheafforms, linalg=linalg, oracles=oracles, scenario=scenario)


@pytest.mark.parametrize("name", ["symplectic_q", "calculus_gf", "scenario_wide"])
def test_the_first_cycle_passes_the_benchmark_checks(name):
    bench = _workloads()
    workload = bench.WORKLOADS[name]
    source = bench.ItemSource(workload, LIB, 1)
    for k in range(workload.cycle):
        item = source.item(k)
        outcome = workload.check(LIB, item, workload.execute(LIB, item))
        assert outcome.ok, (k, outcome.detail)
