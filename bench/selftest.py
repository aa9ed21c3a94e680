"""Self-test of the benchmark itself, on small item lists.

Run from the repository root with `python3 bench/selftest.py`, or with
`python3 -m pytest bench/selftest.py`.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import PACKAGE, TARGETS, Tracer, binding_snapshot, package_modules  # noqa: E402
from workloads import WORKLOADS, ItemSource  # noqa: E402

SMALL = {"symplectic_q": 3, "calculus_gf": 3, "scenario_wide": 6}


def small_feed(workload, lib, seed):
    source = ItemSource(workload, lib, seed)
    return run.Feed(source, [source.item(k) for k in range(SMALL[workload.name])])


def test_same_seed_gives_identical_items():
    for name, workload in WORKLOADS.items():
        lists = []
        for seed in (11, 11, 12):
            lib = run.import_library()
            source = ItemSource(workload, lib, seed)
            # items one cycle apart have the same shape
            ks = list(range(SMALL[name])) + [workload.cycle]
            lists.append([workload.describe(lib, source.item(k)) for k in ks])
        assert lists[0] == lists[1], name
        assert lists[0] != lists[2], name
        # no item repeats an earlier one, not even one cycle later
        assert len(set(lists[0])) == len(lists[0]), name


def test_feed_hands_out_each_item_once():
    lib = run.import_library()
    workload = WORKLOADS["calculus_gf"]
    feed = small_feed(workload, lib, 4)
    taken = [feed.take() for _ in range(SMALL["calculus_gf"] + 2)]
    assert [k for k, _ in taken] == list(range(len(taken)))
    forms = [item.form for _, item in taken]
    assert len({id(f) for f in forms}) == len(forms)
    assert len({f.module.space for f in forms}) == 2  # equal spaces, fresh objects
    assert len({id(f.module.space) for f in forms}) == len(forms)


def test_tracer_wraps_every_binding_and_leaves_no_residue():
    lib = run.import_library()
    mods = package_modules()
    originals = [
        getattr(mods[f"{PACKAGE}.{layer}"], attr)
        for layer, owner, attr in TARGETS
        if owner is None
    ]
    for name, workload in WORKLOADS.items():
        feed = small_feed(workload, lib, 5)
        before = binding_snapshot()
        tracer = Tracer()
        tracer.install()
        try:
            for mod in mods.values():
                for value in vars(mod).values():
                    assert all(value is not fn for fn in originals), (name, mod)
            phase = run.run_phase(workload, lib, feed, 0.0, tracer)
        finally:
            tracer.uninstall()
        assert binding_snapshot() == before, name
        assert phase.attempted == 1 and phase.failed == 0, name
        items = phase.measured_items()
        assert tracer.scalar_mults(items) > 0, name
        _, self_ns = tracer.span_totals(items)
        assert all(ns >= 0 for ns in self_ns.values()), name
        # self times of all spans add up to the item wall time exactly
        assert sum(self_ns.values()) == sum(phase.latencies_ns), name


def test_planned_error_counts_only_with_its_code():
    lib = run.import_library()
    workload = WORKLOADS["scenario_wide"]
    source = ItemSource(workload, lib, 3)
    for item in map(source.item, range(SMALL["scenario_wide"])):
        report, text = workload.execute(lib, item)
        assert workload.check(lib, item, (report, text)).ok
        for i, code in enumerate(item.expected):
            report, _ = workload.execute(lib, item)
            entry = report["tasks"][i]
            if code is None:
                key = next(iter(entry["certificate"]))
                entry["certificate"][key] = False
            else:
                entry["error"]["code"] = "SomeOtherError"
            text = lib.scenario.report_to_json(report)
            assert not workload.check(lib, item, (report, text)).ok, (i, code)


if __name__ == "__main__":
    for test_name, test in sorted(globals().items()):
        if test_name.startswith("test_") and callable(test):
            test()
            print("ok", test_name)
