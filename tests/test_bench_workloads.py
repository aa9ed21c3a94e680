"""The benchmark's own checks, in the tests: each workload of
`bench/workloads.py` runs the first cycle of its schedule for seed 1
through `execute` and then `check`, so a change to the library that breaks
what the benchmark checks (submodule equality in `calculus_gf`, say) fails
here and not only when the benchmark runs. The items of that cycle are
pinned too, by a digest of their data, since the library's generators make
them, and the kernel and form-memo counts of `execute` over the cycle are
bounded. The file is loaded, never edited."""

import hashlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import sheafforms
from sheafforms import linalg, oracles, scenario
from sheafforms.bilinear import form_memo_stats

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


# upper bounds on the counts of `execute` over every item of the first cycle
# at seed 1: the `kernel_stats()` deltas (calls by field, rows converted on
# entry, entries built on exit, eliminations, packed multiply-adds) and the
# `form_memo_stats()` hits and misses. A change that lowers a count lowers
# its pin; one that raises a count changes this check
COUNTS = {
    "symplectic_q": {
        "kernel": {"gfp": 0, "rational": 1326, "rows_in": 142, "entries_out": 1344,
                   "eliminations": 172, "multiply_adds": 0},
        "memo": {"gram_hits": 56, "gram_misses": 16, "class_hits": 0, "class_misses": 0,
                 "projector_hits": 0, "projector_misses": 0, "symplectic_hits": 32,
                 "symplectic_misses": 16, "completion_hits": 16, "completion_misses": 16},
    },
    "calculus_gf": {
        "kernel": {"gfp": 970, "rational": 0, "rows_in": 455, "entries_out": 1050,
                   "eliminations": 385, "multiply_adds": 28874},
        "memo": {"gram_hits": 60, "gram_misses": 10, "class_hits": 40, "class_misses": 0,
                 "projector_hits": 30, "projector_misses": 10, "symplectic_hits": 0,
                 "symplectic_misses": 0, "completion_hits": 0, "completion_misses": 0},
    },
    "scenario_wide": {
        "kernel": {"gfp": 12254, "rational": 6186, "rows_in": 5783, "entries_out": 19795,
                   "eliminations": 3104, "multiply_adds": 950},
        "memo": {"gram_hits": 761, "gram_misses": 165, "class_hits": 384, "class_misses": 100,
                 "projector_hits": 260, "projector_misses": 60, "symplectic_hits": 108,
                 "symplectic_misses": 54, "completion_hits": 36, "completion_misses": 42},
    },
}


@pytest.mark.parametrize("name", list(COUNTS))
def test_the_first_cycle_counts_stay_within_their_pins(name):
    bench = _workloads()
    workload = bench.WORKLOADS[name]
    source = bench.ItemSource(workload, LIB, 1)
    items = [source.item(k) for k in range(workload.cycle)]
    stats = (linalg.kernel_stats, form_memo_stats)
    before = [stat() for stat in stats]
    for item in items:
        workload.execute(LIB, item)
    kernel, memo = (
        {key: stat()[key] - was[key] for key in was} for stat, was in zip(stats, before)
    )
    pins = COUNTS[name]
    assert set(kernel) == set(pins["kernel"]) and set(memo) == set(pins["memo"])
    assert {k: v for k, v in kernel.items() if v > pins["kernel"][k]} == {}
    assert {k: v for k, v in memo.items() if v > pins["memo"][k]} == {}
