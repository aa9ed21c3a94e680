"""Benchmark of the sheafforms library: one process, one closed-loop client.

Run from the repository root:

  python3 bench/run.py --workload symplectic_q --seed 1 --seconds 15 --trace 0

The library is imported from `src/` of the checkout this file sits in; if it
is missing the run fails without printing a result. Items come from
`--seed` (workloads.py): set-up makes the first schedule cycle and runs the
first WARMUP_ITEMS of it, and the items after that cycle are made on demand
between timed items. Items are run one after another (the next starts when
the previous one and its correctness check are done) until `--seconds` have
passed; each item is run once. Latency is the wall time of the library calls
for one item; making the item and the check that follows are not timed.

`--trace 0` reports the end-to-end metrics. Set-up (a fresh import of the
library, making the first cycle of items and warm-up) is repeated
SETUP_REPEATS times and the median is reported as `setup_s`. Throughput and
latencies are taken over the complete schedule cycles of the run, so every
run sees the same mix of item shapes.

Every reported time is scaled to a nominal machine speed measured in the
same run (yardstick.py): measured time divided by the slowdown, the median
time of a fixed benchmark-owned kernel over its nominal time. The kernel is
timed between set-ups for `setup_s`, and between schedule cycles for item
times, each of which is scaled by the kernel times on either side of its
cycle. The timed loop's overall slowdown is printed with the metrics.

`--trace 1` reports the per-layer metrics: half the time runs untraced, the
other half continues the same item sequence with every public function
wrapped (see spans.py), and the metrics are taken over the traced half's
complete cycles; spans are written to `.bench_out/` in the checkout.

The last line of standard output is a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 1 when any item fails
its check, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import yardstick  # noqa: E402
from spans import ITEM_SPAN, LAYERS, PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS, ItemSource  # noqa: E402

SETUP_REPEATS = 5
WARMUP_ITEMS = 2
KERNEL_SAMPLES = 3  # yardstick kernel calls at the start and after each cycle


class SetupError(Exception):
    pass


def import_library():
    """Import sheafforms afresh from the checkout's src/ (dropping any copy
    already loaded), so every set-up repeat pays the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SetupError(f"library source not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    sf = importlib.import_module(PACKAGE)
    if not Path(sf.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported {sf.__file__}, not the checkout's source")
    return SimpleNamespace(
        sf=sf,
        linalg=importlib.import_module(f"{PACKAGE}.linalg"),
        oracles=importlib.import_module(f"{PACKAGE}.oracles"),
        scenario=importlib.import_module(f"{PACKAGE}.scenario"),
    )


class Feed:
    """The item sequence in order: the items made in set-up, then new ones
    made on demand. Each item is handed out once, with its number k."""

    def __init__(self, source: ItemSource, made):
        self.source = source
        self.made = deque(made)
        self.next_k = 0

    def take(self):
        k = self.next_k
        self.next_k += 1
        return k, (self.made.popleft() if self.made else self.source.item(k))


def set_up(workload, seed: int):
    """Import, make the first cycle of items and warm up; returns
    (lib, feed, seconds)."""
    started = time.perf_counter()
    lib = import_library()
    source = ItemSource(workload, lib, seed)
    feed = Feed(source, [source.item(k) for k in range(workload.cycle)])
    for _ in range(WARMUP_ITEMS):
        workload.execute(lib, feed.take()[1])
    return lib, feed, time.perf_counter() - started


def time_kernel():
    """KERNEL_SAMPLES yardstick kernel times in ns, taken with the cyclic
    collector off, so they depend on machine speed alone, not on the heap
    the library keeps."""
    gc.disable()
    try:
        times = []
        for _ in range(KERNEL_SAMPLES):
            t0 = time.perf_counter_ns()
            yardstick.kernel()
            times.append(time.perf_counter_ns() - t0)
        return times
    finally:
        gc.enable()


def slowdown(kernel_ns) -> float:
    """Median kernel time over its nominal time; reported times are measured
    times divided by this (see yardstick.py)."""
    return statistics.median(kernel_ns) / 1e6 / yardstick.NOMINAL_MS


class Phase:
    """Results of one timed loop over consecutive items of a feed, numbered
    from `first`."""

    def __init__(self, cycle: int, first: int):
        self.cycle = cycle
        self.first = first
        self.latencies_ns = []
        self.passed = []
        self.outcomes = []  # per item: the check's Outcome, or None
        self.kernel_ns = []  # kernel times at the start and after each cycle

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def measured(self) -> int:
        """Number of leading items that form complete schedule cycles (each
        cycle holds every item shape once), or all items if there are fewer
        than one cycle. Statistics over them see the same mix in every run."""
        whole = self.attempted - self.attempted % self.cycle
        return whole or self.attempted

    def measured_items(self) -> range:
        """Item numbers k of the items that measured() counts."""
        return range(self.first, self.first + self.measured())

    def measured_outcomes(self):
        return [o for o in self.outcomes[: self.measured()] if o is not None]

    def scaled_latencies_ns(self):
        """Latencies of the measured items, each divided by the slowdown of
        the kernel times taken just before and just after its cycle: the
        machine's speed drifts within a run, and the local speed follows it
        more closely than one figure for the whole run."""
        out = []
        for i, ns in enumerate(self.latencies_ns[: self.measured()]):
            b = i // self.cycle
            out.append(ns / slowdown(sum(self.kernel_ns[b : b + 2], [])))
        return out

    def throughput(self) -> float:
        """Items completed correctly per second of scaled item wall time."""
        n = self.measured()
        return self.passed[:n].count(True) / (sum(self.scaled_latencies_ns()) / 1e9)

    def slowdown(self) -> float:
        """The whole loop's slowdown, printed with the metrics."""
        return slowdown(sum(self.kernel_ns, []))


def run_phase(workload, lib, feed: Feed, seconds: float, tracer=None) -> Phase:
    phase = Phase(workload.cycle, feed.next_k)
    gc.collect()
    phase.kernel_ns.append(time_kernel())
    deadline = time.perf_counter() + seconds
    while phase.attempted == 0 or time.perf_counter() < deadline:
        k, item = feed.take()
        output = None
        if tracer is None:
            t0 = time.perf_counter_ns()
            try:
                output = workload.execute(lib, item)
            except Exception:  # a library failure fails the item, not the run
                traceback.print_exc(file=sys.stderr)
            phase.latencies_ns.append(time.perf_counter_ns() - t0)
        else:
            span = tracer.begin_item(k)
            try:
                output = workload.execute(lib, item)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            finally:
                phase.latencies_ns.append(tracer.end_item(span))
        outcome = None if output is None else workload.check(lib, item, output)
        phase.passed.append(outcome is not None and outcome.ok)
        phase.outcomes.append(outcome)
        if outcome is not None and not outcome.ok:
            print(f"item {k} failed: {outcome.detail}", file=sys.stderr)
        if phase.attempted % phase.cycle == 0:
            phase.kernel_ns.append(time_kernel())
    return phase


def end_to_end(phase: Phase, setups, setup_kernel_ns) -> dict:
    lat_ms = [ns / 1e6 for ns in phase.scaled_latencies_ns()]
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8] if len(lat_ms) > 1 else lat_ms[0]
    return {
        "throughput_per_s": (phase.throughput(), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(setups) / slowdown(setup_kernel_ns), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics over the traced phase's complete cycles."""
    items = traced.measured_items()
    calls, self_ns = tracer.span_totals(items)
    n = len(items)
    slow = traced.slowdown()
    wall_ns = sum(traced.latencies_ns[:n])
    outcomes = traced.measured_outcomes()
    validated = tracer.validated_spaces(items)

    def per_item_calls(name):
        return (calls.get(name, 0) / n, "calls/item")

    def per_item_ms(*names):
        return (sum(self_ns.get(x, 0) for x in names) / 1e6 / n / slow, "ms/item")

    layer_ns = {layer: 0 for layer in LAYERS}
    for name, ns in self_ns.items():
        layer = name.split(".", 1)[0]
        if layer in layer_ns:
            layer_ns[layer] += ns

    def share(ns):
        return (ns / wall_ns, "ratio")

    m = {
        "topology.validate_topology.calls": per_item_calls("topology.validate_topology"),
        "topology.validate_topology.self_ms": per_item_ms("topology.validate_topology"),
        "topology.component_refinement.calls": per_item_calls("topology.component_refinement"),
        "topology.component_refinement.self_ms": per_item_ms("topology.component_refinement"),
        "topology.distinct_space_ratio": (
            len(set(validated)) / len(validated) if validated else 0.0, "ratio"
        ),
        "fields.parse.self_ms": per_item_ms("fields.parse"),
        "fields.format.self_ms": per_item_ms("fields.format"),
        "fields.max_entry_bits": (
            max(o.entry_bits for o in outcomes + untraced.measured_outcomes()), "bits"
        ),
    }
    for fn in ("rref", "nullspace", "inverse", "matmul", "mat_vec"):
        m[f"linalg.{fn}.calls"] = per_item_calls(f"linalg.{fn}")
        m[f"linalg.{fn}.self_ms"] = per_item_ms(f"linalg.{fn}")
    m["linalg.scalar_mults"] = (tracer.scalar_mults(items) / n, "mults/item")
    m["algebra.invert.calls"] = per_item_calls("algebra.invert")
    m["modules.from_rows.self_ms"] = per_item_ms("modules.from_rows")
    m["modules.intersect_submodules.self_ms"] = per_item_ms("modules.intersect_submodules")
    m["modules.contains.calls"] = per_item_calls("modules.contains")
    for fn in ("evaluate", "orthogonal"):
        m[f"bilinear.{fn}.calls"] = per_item_calls(f"bilinear.{fn}")
        m[f"bilinear.{fn}.self_ms"] = per_item_ms(f"bilinear.{fn}")
    m["bilinear.classify_orthosymmetry.calls"] = per_item_calls("bilinear.classify_orthosymmetry")
    m["bilinear.project.self_ms"] = per_item_ms("bilinear.project")
    m["symplectic.gram_schmidt_extend.self_ms"] = per_item_ms("symplectic.gram_schmidt_extend")
    m["symplectic.witt_extend.self_ms"] = per_item_ms("symplectic.witt_extend")
    m["symplectic.validate_symplectic.calls"] = per_item_calls("symplectic.validate_symplectic")
    certify_ns = sum(
        self_ns.get(x, 0)
        for x in ("symplectic.certify_basis", "symplectic.certify_envelope", "symplectic.holds")
    )
    m["symplectic.certify_share"] = (
        certify_ns / layer_ns["symplectic"] if layer_ns["symplectic"] else 0.0, "ratio"
    )
    m["oracles.run_suite.self_ms"] = per_item_ms("oracles.run_suite")
    m["scenario.scenario_from_dict.self_ms"] = per_item_ms("scenario.scenario_from_dict")
    m["scenario.report_to_json.self_ms"] = per_item_ms("scenario.report_to_json")
    m["scenario.format.self_ms"] = per_item_ms(
        "scenario.format_section", "scenario.format_submodule", "scenario.format_matrix"
    )
    task_ms = sum(o.task_ms for o in outcomes)
    m["scenario.expected_error_share"] = (
        sum(o.error_task_ms for o in outcomes) / task_ms if task_ms else 0.0, "ratio"
    )
    for layer in LAYERS:
        m[f"{layer}.self_share"] = share(layer_ns[layer])
    m["trace.unattributed_share"] = share(self_ns.get(ITEM_SPAN, 0))
    m["trace.overhead_ratio"] = (untraced.throughput() / traced.throughput(), "ratio")
    return m


def report(metrics: dict, attempted: int, failed: int, slowdown: float) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit}")
    print(f"{'error_rate':<{width}}  {failed / attempted:>14.6g}  ratio "
          f"({failed} of {attempted} items failed)")
    print(f"{'slowdown':<{width}}  {slowdown:>14.6g}  ratio "
          f"(yardstick median over {yardstick.NOMINAL_MS} ms; times above are "
          f"measured times divided by it)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]

    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setups = []
        setup_kernel_ns = []  # kernel times between set-ups, which they scale
        for _ in range(repeats):
            setup_kernel_ns += time_kernel()
            lib, feed, seconds = set_up(workload, args.seed)
            setups.append(seconds)
        setup_kernel_ns += time_kernel()
    except SetupError as exc:
        print(f"cannot set up: {exc}", file=sys.stderr)
        return 2

    if args.trace == 0:
        phase = run_phase(workload, lib, feed, args.seconds)
        metrics = end_to_end(phase, setups, setup_kernel_ns)
        attempted, failed = phase.attempted, phase.failed
        slowdown = phase.slowdown()
    else:
        untraced = run_phase(workload, lib, feed, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, lib, feed, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        slowdown = traced.slowdown()

    report(metrics, attempted, failed, slowdown)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
