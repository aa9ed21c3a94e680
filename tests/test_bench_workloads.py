"""The benchmark's own checks, in the tests: each workload of
`bench/workloads.py` runs the first cycle of its schedule for seed 1
through `execute` and then `check`, so a change to the library that breaks
what the benchmark checks (submodule equality in `calculus_gf`, say) fails
here and not only when the benchmark runs. The items of that cycle are
pinned too, by a digest of their data, since the library's generators make
them. The file is loaded, never edited."""

import hashlib
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


# sha256 over `describe` of every item of the first cycle at seed 1, in order
ITEM_DATA = {
    "symplectic_q": "c0c4db1abfd527157a23dd5991a135de1a0ffd5b603559ba04141d03e00bb959",
    "calculus_gf": "7011a840325e059627cb233bbfa92ba21cd1bc0462d14e3faed2e72800dcb010",
    "scenario_wide": "5686c6d039a927236e89d05938f36d56c06876321634bf36d25e37b92807e8ec",
}


@pytest.mark.parametrize("name", list(ITEM_DATA))
def test_the_first_cycle_items_are_pinned(name):
    # the library's generators make the items: a generator change that
    # moves them changes what the benchmark measures, and must fail here
    bench = _workloads()
    workload = bench.WORKLOADS[name]
    source = bench.ItemSource(workload, LIB, 1)
    digest = hashlib.sha256()
    for k in range(workload.cycle):
        digest.update(workload.describe(LIB, source.item(k)).encode())
    assert digest.hexdigest() == ITEM_DATA[name]
