#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload alloc_sweep --seed 1 --seconds 30 --trace 0

The workload repeats *passes* of fixed work until ``--seconds`` of
measuring are used up (at least one pass; two with ``--trace 1``).
Each pass sets up (timed as set-up), runs its steps (each timed) and
checks its outputs (untimed).  Every pass's simulated results must
digest identically.

``wall_s`` is the sum over the pass's steps of the fastest time each
step took in any untraced pass of the run.  Every pass repeats the same
steps, so this is the fixed work's host time with the interference of
other tenants of the machine filtered out step by step (``timeit``'s
best-of-repeats, applied per step).  The end-to-end times are then
rescaled to a host of reference speed: a fixed reference kernel is
timed after every pass, and its fastest time in the run against
:data:`REFERENCE_S` gives the host's speed for the run; see README.md.

``--trace 0`` prints the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (see layers.py) plus the tracing
overhead; the traced digest must equal the untraced one.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their span files (inside the checkout).
OUT_DIR = ROOT / ".perfbench-out"
#: Fresh-interpreter import timings taken per untraced run, one after
#: each of the first passes (their minimum counts).
IMPORT_SAMPLES = 15
#: Timings of :func:`reference_kernel` taken after each pass.
REFERENCE_SAMPLES = 20
#: The reference kernel's fastest time on the host the benchmark was
#: tuned on (a 2-vCPU Xeon VM under CPython 3.11).  End-to-end times are
#: rescaled to a host on which it takes this long.
REFERENCE_S = 0.0025

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "realtime_factor": "s/s",
    "peak_rss_mb": "MB",
}

#: ``comp.<name>.*``: the compartments the workloads call into.
_COMPARTMENT_METRICS = {
    f"comp.{name}.{kind}": unit
    for name in ("alloc", "firewall", "tcpip", "tls", "mqtt", "jsvm")
    for kind, unit in (("calls", "count"), ("s", "s"))
}

PER_LAYER = {
    "isa.run_s": "s",
    "isa.ns_per_instr": "ns",
    "isa.instructions": "count",
    "isa.jit_instr_share": "ratio",
    "isa.fused_instr_share": "ratio",
    "isa.jit_compiles": "count",
    "isa.jit_guard_bails": "count",
    "isa.jit_unsupported": "count",
    "isa.block_translations": "count",
    "cap.derive_calls": "count",
    "cap.derive_s": "s",
    "mem.bus_s": "s",
    "mem.fill_calls": "count",
    "mem.fill_bytes": "bytes",
    "mem.cap_reads": "count",
    "mem.cap_writes": "count",
    "pipeline.cycles": "cycles",
    "pipeline.cycles_charged": "cycles",
    "pipeline.cycles_executed": "cycles",
    "pipeline.host_ns_per_cycle": "ns",
    "pipeline.charge_s": "s",
    "switcher.calls": "count",
    "switcher.self_s": "s",
    "switcher.call_p50_us": "us",
    "switcher.call_p99_us": "us",
    "switcher.bytes_zeroed": "bytes",
    **_COMPARTMENT_METRICS,
    "heap.malloc_calls": "count",
    "heap.free_calls": "count",
    "heap.self_s": "s",
    "heap.malloc_p99_us": "us",
    "heap.failed": "count",
    "heap.peak_live": "count",
    "revoker.passes": "count",
    "revoker.s": "s",
    "revoker.words_visited": "count",
    "revoker.wait_cycles": "cycles",
    "net.submit_s": "s",
    "net.pump_s": "s",
    "net.pump_p99_ms": "ms",
    "net.backpressure_retries": "count",
    "net.delivered_ratio": "ratio",
    "net.per_packet_cycles": "cycles",
    "net.crossing_cycles_per_packet": "cycles",
    "tls.calls": "count",
    "tls.s": "s",
    "fw.calls": "count",
    "fw.s": "s",
    "jsvm.ticks": "count",
    "jsvm.tick_s": "s",
    "jsvm.tick_p99_us": "us",
    "jsvm.gc_passes": "count",
    "trace.overhead": "ratio",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
    "accuracy.table3_max_err_pct": "%",
    "accuracy.e6_cpu_load_err_pct": "%",
    "alloc_pairs_per_s": "1/s",
    "sim_mips": "Minstr/s",
    "packets_per_s": "1/s",
}

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t)\n"
)


def reference_kernel() -> int:
    """A fixed pure-Python loop of about :data:`REFERENCE_S`.

    Its fastest time in a run measures the speed the shared host gives
    the process during that run: when other tenants slow the host for a
    whole run, even the fastest step times rise, and this rises with
    them.  It calls no program code, so a change to the program cannot
    move it.
    """
    total, table = 0, {}
    for i in range(30_000):
        total += i * i % 7
        table[i & 63] = total
    return total


def time_reference(samples: list) -> None:
    """Append :data:`REFERENCE_SAMPLES` timings of the reference kernel."""
    for _ in range(REFERENCE_SAMPLES):
        start = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - start)


def import_seconds(modules) -> float:
    """Time a fresh interpreter takes to import ``modules``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *modules],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class StepTimer:
    """The untraced ``step`` callable: stamps each step's start."""

    def __init__(self) -> None:
        self.marks = []

    def __call__(self, label: str) -> None:
        self.marks.append(time.perf_counter_ns())

    def durations(self, start: int, end: int) -> list:
        """Step durations (ns); the first step starts at ``start``."""
        bounds = [start, *self.marks[1:], end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


@dataclass
class Pass:
    """Host timings and results of one pass."""

    traced: bool
    setup_s: float
    wall_s: float
    #: Untraced passes: the duration (ns) of each step, in order.
    steps: Optional[list]
    result: object
    digest: str
    #: Traced passes: the per-layer figures, and the tracer with the spans.
    layer: Optional[dict] = None
    tracer: object = None


def run_pass(workload, seed: int, traced: bool) -> Pass:
    from perfbench import layers
    from perfbench.workloads import digest

    # The object graphs the program builds are cyclic; collect the last
    # pass's garbage so that every pass starts from the same heap.
    gc.collect()
    tracer = layers.install() if traced else None
    timer = StepTimer()
    try:
        t0 = time.perf_counter_ns()
        state = workload.prepare(seed)
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = True
        t2 = time.perf_counter_ns()
        raw = workload.run(state, tracer.step if tracer is not None else timer)
        t3 = time.perf_counter_ns()
        if tracer is not None:
            tracer.end_step(t3)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = workload.finish(state, raw)
    return Pass(
        traced=traced,
        setup_s=(t1 - t0) / 1e9,
        wall_s=(t3 - t2) / 1e9,
        steps=None if traced else timer.durations(t2, t3),
        result=result,
        digest=digest(result.records),
        layer=(layers.layer_metrics(tracer, t3 - t2, result.sim_cycles)
               if traced else None),
        tracer=tracer,
    )


class StepMinima:
    """Each step's fastest untraced time (ns) so far.

    Passes are folded in one by one and their step times dropped, so
    that the run's memory, which ``peak_rss_mb`` reports, does not grow
    with the number of passes the host's speed allowed.  A pass that
    ran a different number of steps than the first also digests
    differently, which already counts as a failed op; it is left out.
    """

    def __init__(self) -> None:
        self.fastest: Optional[list] = None

    def add(self, steps: list) -> None:
        if self.fastest is None:
            self.fastest = steps
        elif len(steps) == len(self.fastest):
            self.fastest = list(map(min, self.fastest, steps))

    def wall_s(self) -> float:
        """The sum over steps of each step's fastest time (seconds)."""
        return sum(self.fastest) / 1e9


@dataclass
class Measured:
    """What :func:`measure` collected over a run."""

    passes: list
    minima: StepMinima
    #: Import probe timings (untraced runs), reference kernel timings.
    imports: list
    reference: list


def measure(workload, seed: int, seconds: float, trace: bool) -> Measured:
    """Run passes until ``seconds`` are used; untraced first, then
    (with ``trace``) alternating traced and untraced.  Only the first
    traced pass keeps its spans; a pass's simulated results are dropped
    once digested.

    Each pass is followed by timings of the reference kernel, and in
    untraced runs the first :data:`IMPORT_SAMPLES` passes by an import
    probe each, so that both are spread over the run like the passes.
    """
    run = Measured([], StepMinima(), [], [])
    passes, imports, reference = run.passes, run.imports, run.reference
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run_pass(workload, seed, traced)
        if traced and len(passes) > 1:
            p.tracer = None
        if not traced:
            run.minima.add(p.steps)
            p.steps = None
        p.result.records = None
        passes.append(p)
        print(
            f"pass {len(passes)} {'traced' if traced else 'untraced'}: "
            f"setup {p.setup_s:.3f} s, wall {p.wall_s:.3f} s, ops {p.result.ops}, "
            f"failed {len(p.result.failures)}, digest {p.digest[:16]}"
        )
        for failure in p.result.failures:
            print(f"  FAILED {failure}")
        time_reference(reference)
        probe = not trace and len(imports) < IMPORT_SAMPLES
        if probe:
            imports.append(import_seconds(workload.imports))
        elapsed = time.perf_counter() - start
        next_traced = trace and len(passes) % 2 == 1
        same_kind = [q for q in passes if q.traced == next_traced] or passes
        estimate = same_kind[-1].setup_s + same_kind[-1].wall_s
        estimate += sum(reference[-REFERENCE_SAMPLES:])
        if probe:
            estimate += imports[-1]
        if len(passes) >= (2 if trace else 1) and elapsed + estimate > seconds:
            return run


def host_scale(reference: list) -> float:
    """The factor that rescales this run's host times to a host of
    reference speed (below 1 when the host ran slower)."""
    return REFERENCE_S / min(reference)


def end_to_end(run: Measured) -> dict:
    """``setup_s`` is the fastest import probe plus the fastest pass
    set-up, each the same work repeated, as ``wall_s`` takes each
    step's fastest time; both are rescaled by :func:`host_scale`
    (see README.md)."""
    untraced = [p for p in run.passes if not p.traced]
    scale = host_scale(run.reference)
    wall = run.minima.wall_s() * scale
    return {
        "setup_s": (min(run.imports) + min(p.setup_s for p in untraced)) * scale,
        "wall_s": wall,
        "realtime_factor": untraced[0].result.device_s / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Measured, paper=None) -> dict:
    """Every :data:`PER_LAYER` metric; 0 where the workload has none.
    ``paper`` is the workload's untimed run of the paper's own
    configuration, if it has one.
    Host times here are not rescaled (see README.md)."""
    untraced = [p for p in run.passes if not p.traced]
    traced = [p for p in run.passes if p.traced]
    wall = run.minima.wall_s()
    first = untraced[0].result
    values = {
        name: statistics.median(p.layer[name] for p in traced)
        for name in traced[0].layer
    }
    values.update(first.figures)
    if paper is not None:
        values.update(paper.figures)
    # Both sides as plain pass medians: a traced pass has no step times.
    values["trace.overhead"] = statistics.median(
        p.wall_s for p in traced
    ) / statistics.median(p.wall_s for p in untraced)
    values["pipeline.host_ns_per_cycle"] = wall * 1e9 / first.sim_cycles
    values["alloc_pairs_per_s"] = first.alloc_pairs / wall
    values["sim_mips"] = first.instructions / wall / 1e6
    values["packets_per_s"] = first.packets / wall
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    seed_note = "drives the traffic" if workload.uses_seed else (
        "ignored: the paper's fixed configuration")
    print(f"workload {workload.name}, seed {args.seed} ({seed_note}), "
          f"{args.seconds:g} s, trace {args.trace}")

    # The parent's imports come first so that a fresh checkout's
    # bytecode is written before the timed import probes read it.
    for module in workload.imports:
        __import__(module)

    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    passes = run.passes
    paper = workload.paper_run() if args.trace else None

    attempted = sum(p.result.ops for p in passes) + len(passes) - 1
    failed = sum(len(p.result.failures) for p in passes)
    if paper is not None:
        attempted += paper.ops
        failed += len(paper.failures)
        for failure in paper.failures:
            print(f"  FAILED paper-configuration run: {failure}")
    first_digest = passes[0].digest
    for index, p in enumerate(passes[1:], start=2):
        if p.digest != first_digest:
            failed += 1
            print(f"  FAILED pass {index} ({'traced' if p.traced else 'untraced'}) "
                  f"digest {p.digest} != pass 1 digest {first_digest}")
    print(f"digest {first_digest} ({len(passes)} passes, "
          f"{'all identical' if failed == 0 else 'see failures'})")
    untraced = [p for p in passes if not p.traced]
    print(f"untraced passes: {len(untraced)}, {len(run.minima.fastest)} steps each, "
          f"median pass wall {statistics.median(p.wall_s for p in untraced):.4f} s")
    if run.imports:
        print(f"import probes: {len(run.imports)}, fastest {min(run.imports):.4f} s, "
              f"median {statistics.median(run.imports):.4f} s")
    print(f"reference kernel: fastest {min(run.reference) * 1e3:.4f} ms of "
          f"{len(run.reference)} (nominal {REFERENCE_S * 1e3:g} ms); host times "
          f"x {host_scale(run.reference):.4f}; unscaled per-step wall "
          f"{run.minima.wall_s():.4f} s")

    if args.trace:
        metrics, units = per_layer(run, paper), PER_LAYER
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        passes[1].tracer.write(str(path), {"workload": workload.name, "seed": args.seed})
        print(f"spans written to {path.relative_to(ROOT)}")
    else:
        metrics, units = end_to_end(run), END_TO_END
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
