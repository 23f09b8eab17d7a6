"""The traced run: time every call into each ``repro`` layer from outside.

:func:`install` replaces the public entry points listed in
:data:`ENTRIES` with timing wrappers and returns a :class:`Tracer`;
:meth:`Tracer.uninstall` puts every original attribute back.  No file
of the program is edited: the wrappers live on the classes only while
a traced pass runs.

Every wrapped call is a span: name, start, end and the span that caused
it (the enclosing wrapped call, or the workload step that issued it).
Spans are kept in memory, up to :data:`SPAN_LIMIT`, and written out by
:meth:`Tracer.write` when the benchmark ends.  Aggregates are kept for
every call regardless of the limit.  A span's self time is its duration
minus the durations of the wrapped spans nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from typing import Callable, Dict, List, NamedTuple, Optional

_ns = time.perf_counter_ns

#: Raw spans kept for the trace file; aggregates cover every call.
SPAN_LIMIT = 100_000


class Entry(NamedTuple):
    """One wrapped entry point: ``module.owner.attr``, named ``span``."""

    span: str
    module: str
    owner: str
    attr: str


ENTRIES = (
    Entry("isa.run", "repro.isa.executor", "CPU", "run"),
    Entry("cap.set_bounds", "repro.capability.capability", "Capability", "set_bounds"),
    Entry("cap.set_address", "repro.capability.capability", "Capability", "set_address"),
    Entry("cap.inc_address", "repro.capability.capability", "Capability", "inc_address"),
    Entry("cap.and_perms", "repro.capability.capability", "Capability", "and_perms"),
    Entry("cap.seal", "repro.capability.capability", "Capability", "seal"),
    Entry("cap.unseal", "repro.capability.capability", "Capability", "unseal"),
    Entry("mem.fill", "repro.memory.bus", "SystemBus", "fill"),
    Entry("mem.write_bytes", "repro.memory.bus", "SystemBus", "write_bytes"),
    Entry("mem.read_bytes", "repro.memory.bus", "SystemBus", "read_bytes"),
    Entry("mem.read_capability", "repro.memory.bus", "SystemBus", "read_capability"),
    Entry("mem.write_capability", "repro.memory.bus", "SystemBus", "write_capability"),
    Entry("pipeline.charge", "repro.pipeline.model", "CoreModel", "charge"),
    Entry("switcher.call", "repro.rtos.switcher", "CompartmentSwitcher", "call"),
    Entry("heap.malloc", "repro.allocator.heap", "CheriHeap", "malloc"),
    Entry("heap.free", "repro.allocator.heap", "CheriHeap", "free"),
    Entry("revoker.sweep", "repro.revoker.software", "SoftwareRevoker", "sweep"),
    Entry("revoker.run_to_completion", "repro.revoker.hardware",
          "BackgroundRevoker", "run_to_completion"),
    Entry("net.submit", "repro.iot.sessions", "NetPipeline", "submit"),
    Entry("net.pump", "repro.iot.sessions", "NetPipeline", "pump"),
    Entry("tls.open_record", "repro.iot.tls", "TLSSession", "open_record"),
    Entry("tls.seal_record", "repro.iot.tls", "TLSSession", "seal_record"),
    Entry("fw.admit", "repro.iot.firewall", "Firewall", "admit"),
    Entry("jsvm.run_tick", "repro.iot.jsvm", "JavaScriptVM", "run_tick"),
)

#: The hardware revoker's wait policy is built per System by this
#: factory; wrapping it counts the cycles an allocator call is charged
#: while it sits blocked on a revocation pass.  Not a span: the policy
#: is arithmetic on simulated cycles.
WAIT_POLICY_FACTORY = ("repro.machine", "make_hardware_wait_policy")

#: Spans whose individual durations are kept for percentiles.
SAMPLED = frozenset({"switcher.call", "heap.malloc", "net.pump", "jsvm.run_tick"})


def _tier_counts(cpu) -> tuple:
    return (
        cpu.stats.instructions,
        cpu.block_stats.instructions,
        cpu.block_stats.translations,
        cpu.jit_stats.instructions,
        cpu.jit_stats.compiles,
        cpu.jit_stats.guard_bails,
        cpu.jit_stats.unsupported,
    )


_TIER_KEYS = (
    "isa.instructions",
    "isa.fused_instructions",
    "isa.block_translations",
    "isa.jit_instructions",
    "isa.jit_compiles",
    "isa.jit_guard_bails",
    "isa.jit_unsupported",
)


class Tracer:
    """Span store and counters for one traced pass."""

    def __init__(self) -> None:
        self.active = False
        #: Open frames: ``[start_ns, child_ns, span_id, is_step]``.
        self._stack: List[list] = []
        self._next_id = 1
        #: span name -> [calls, inclusive_ns, self_ns, raised]
        self.agg: Dict[str, List[int]] = {}
        #: span name -> inclusive durations (ns), for :data:`SAMPLED`.
        self.samples: Dict[str, List[int]] = {name: [] for name in SAMPLED}
        #: Compartment -> [calls, inclusive_ns] of switcher calls into it.
        self.compartments: Dict[str, List[int]] = {}
        self.counters: Dict[str, int] = {}
        #: ``(id, cause_id, name, start_ns, end_ns)``; cause 0 = none.
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: Host ns covered by outermost layer spans (not by step spans).
        self.covered_ns = 0
        self._switcher_depth = 0
        self._step: Optional[tuple] = None
        self._restore: List[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self, is_step: bool) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [0, 0, span_id, is_step]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, end: int, raised: bool) -> int:
        stack = self._stack
        stack.pop()
        start = frame[0]
        duration = end - start
        cause = 0
        if stack:
            parent = stack[-1]
            cause = parent[2]
            parent[1] += duration
            if parent[3] and not frame[3]:
                self.covered_ns += duration
        elif not frame[3]:
            self.covered_ns += duration
        if not frame[3]:
            agg = self.agg.get(name)
            if agg is None:
                agg = self.agg[name] = [0, 0, 0, 0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]
            agg[3] += raised
            samples = self.samples.get(name)
            if samples is not None:
                samples.append(duration)
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((frame[2], cause, name, start, end))
        else:
            self.spans_dropped += 1
        return duration

    def step(self, label: str) -> None:
        """Start the workload's next step: the cause of every layer span
        issued until the next step starts (see workloads.py)."""
        if not self.active:
            return
        now = _ns()
        self.end_step(now)
        frame = self._open(True)
        frame[0] = now
        self._step = (frame, "step:" + label)

    def end_step(self, now: Optional[int] = None) -> None:
        if self._step is not None:
            frame, name = self._step
            self._step = None
            self._close(name, frame, _ns() if now is None else now, False)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        pre = _PRE.get(name)
        post = _POST.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = pre(tracer, args) if pre is not None else None
            frame = tracer._open(False)
            raised = True
            frame[0] = _ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                duration = tracer._close(name, frame, _ns(), raised)
                if post is not None:
                    post(tracer, args, None if raised else result, state, duration)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_wait_factory(self, factory: Callable) -> Callable:
        tracer = self

        def make_policy(*args, **kwargs):
            policy = factory(*args, **kwargs)

            def counted(wall_cycles: int) -> int:
                charged = policy(wall_cycles)
                if tracer.active:
                    tracer.count("revoker.wait_cycles", charged)
                return charged

            return counted

        return functools.wraps(factory)(make_policy)

    def uninstall(self) -> None:
        """Put back every attribute :func:`install` replaced."""
        self.active = False
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def percentile_us(self, name: str, q: float) -> float:
        """Nearest-rank ``q`` quantile of a sampled span's durations."""
        values = sorted(self.samples.get(name, ()))
        if not values:
            return 0.0
        return values[max(0, math.ceil(q * len(values)) - 1)] / 1e3

    def write(self, path: str, meta: dict) -> None:
        """Write the recorded spans (times relative to the earliest)."""
        origin = min((span[3] for span in self.spans), default=0)
        fields = ("id", "cause", "name", "start_ns", "end_ns")
        with open(path, "w") as fh:
            json.dump(
                {
                    **meta,
                    "fields": fields,
                    "spans_recorded": len(self.spans),
                    "spans_dropped": self.spans_dropped,
                    "spans": [
                        (i, c, n, s - origin, e - origin)
                        for i, c, n, s, e in self.spans
                    ],
                },
                fh,
            )


def _targets():
    """``(owner, attr, span name)`` of every attribute :func:`install`
    replaces; the span name is None for the wait-policy factory."""
    for entry in ENTRIES:
        module = importlib.import_module(entry.module)
        yield getattr(module, entry.owner), entry.attr, entry.span
    yield importlib.import_module(WAIT_POLICY_FACTORY[0]), WAIT_POLICY_FACTORY[1], None


def install() -> Tracer:
    """Wrap every entry in :data:`ENTRIES` (recording starts inactive)."""
    tracer = Tracer()
    try:
        for owner, attr, span in _targets():
            original = vars(owner)[attr]
            tracer._restore.append((owner, attr, original))
            setattr(owner, attr, tracer._wrap_wait_factory(original) if span is None
                    else tracer._wrap(span, original))
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


def wrapped_attributes() -> List[tuple]:
    """``(owner, attr, current value)`` for every attribute install() touches."""
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in _targets()]


# ---------------------------------------------------------------------------
# Per-entry counters taken around the wrapped call
# ---------------------------------------------------------------------------


def _pre_cpu_run(tracer, args):
    return _tier_counts(args[0])


def _post_cpu_run(tracer, args, result, before, duration):
    for key, old, new in zip(_TIER_KEYS, before, _tier_counts(args[0])):
        tracer.count(key, new - old)


def _post_charge(tracer, args, result, state, duration):
    tracer.count("pipeline.cycles_charged", int(args[1]))


def _post_fill(tracer, args, result, state, duration):
    tracer.count("mem.fill_bytes", args[2])


def _pre_switcher_call(tracer, args):
    tracer._switcher_depth += 1
    return args[0].stats.bytes_zeroed if tracer._switcher_depth == 1 else None


def _post_switcher_call(tracer, args, result, zeroed_before, duration):
    tracer._switcher_depth -= 1
    if zeroed_before is not None:
        tracer.count(
            "switcher.bytes_zeroed", args[0].stats.bytes_zeroed - zeroed_before
        )
    comp = tracer.compartments.setdefault(args[2].compartment_name, [0, 0])
    comp[0] += 1
    comp[1] += duration


def _post_malloc(tracer, args, result, state, duration):
    live = args[0].live_allocations
    if live > tracer.counters.get("heap.peak_live", 0):
        tracer.counters["heap.peak_live"] = live


def _post_sweep(tracer, args, result, state, duration):
    if result is not None:
        words, cycles = result
        tracer.count("revoker.passes")
        tracer.count("revoker.words_visited", words)
        tracer.count("revoker.wait_cycles", cycles)


def _pre_hw_pass(tracer, args):
    stats = args[0].stats
    return stats.passes, stats.words_loaded


def _post_hw_pass(tracer, args, result, before, duration):
    stats = args[0].stats
    tracer.count("revoker.passes", stats.passes - before[0])
    tracer.count("revoker.words_visited", stats.words_loaded - before[1])


def _post_submit(tracer, args, result, state, duration):
    if result is False:
        tracer.count("net.backpressure_retries")


def _pre_tick(tracer, args):
    return args[0].stats.gc_passes


def _post_tick(tracer, args, result, gc_before, duration):
    tracer.count("jsvm.gc_passes", args[0].stats.gc_passes - gc_before)


_PRE: Dict[str, Callable] = {
    "isa.run": _pre_cpu_run,
    "switcher.call": _pre_switcher_call,
    "revoker.run_to_completion": _pre_hw_pass,
    "jsvm.run_tick": _pre_tick,
}
_POST: Dict[str, Callable] = {
    "isa.run": _post_cpu_run,
    "pipeline.charge": _post_charge,
    "mem.fill": _post_fill,
    "switcher.call": _post_switcher_call,
    "heap.malloc": _post_malloc,
    "revoker.sweep": _post_sweep,
    "revoker.run_to_completion": _post_hw_pass,
    "net.submit": _post_submit,
    "jsvm.run_tick": _post_tick,
}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _sum(tracer: Tracer, prefix: str, column: int) -> int:
    return sum(
        values[column]
        for name, values in tracer.agg.items()
        if name.startswith(prefix)
    )


def layer_metrics(tracer: Tracer, work_ns: int, sim_cycles: int) -> Dict[str, float]:
    """Per-layer figures of one traced pass.

    ``work_ns`` is the host time of the traced work; ``sim_cycles`` the
    simulated cycles it produced.  ``_s`` figures are self time unless
    README.md says otherwise; counts are calls or simulated events.
    """
    agg = tracer.agg
    c = tracer.counters

    def calls(name: str) -> int:
        return agg.get(name, (0, 0, 0, 0))[0]

    def incl_s(name: str) -> float:
        return agg.get(name, (0, 0, 0, 0))[1] / 1e9

    def self_s(prefix: str) -> float:
        return _sum(tracer, prefix, 2) / 1e9

    instructions = c.get("isa.instructions", 0)
    isa_self = self_s("isa.")
    charged = c.get("pipeline.cycles_charged", 0)
    metrics: Dict[str, float] = {
        "isa.run_s": isa_self,
        "isa.ns_per_instr": isa_self * 1e9 / instructions if instructions else 0.0,
        "isa.instructions": instructions,
        "isa.jit_instr_share": (
            c.get("isa.jit_instructions", 0) / instructions if instructions else 0.0
        ),
        "isa.fused_instr_share": (
            c.get("isa.fused_instructions", 0) / instructions if instructions else 0.0
        ),
        "isa.jit_compiles": c.get("isa.jit_compiles", 0),
        "isa.jit_guard_bails": c.get("isa.jit_guard_bails", 0),
        "isa.jit_unsupported": c.get("isa.jit_unsupported", 0),
        "isa.block_translations": c.get("isa.block_translations", 0),
        "cap.derive_calls": _sum(tracer, "cap.", 0),
        "cap.derive_s": self_s("cap."),
        "mem.bus_s": self_s("mem."),
        "mem.fill_calls": calls("mem.fill"),
        "mem.fill_bytes": c.get("mem.fill_bytes", 0),
        "mem.cap_reads": calls("mem.read_capability"),
        "mem.cap_writes": calls("mem.write_capability"),
        "pipeline.cycles": sim_cycles,
        "pipeline.cycles_charged": charged,
        "pipeline.cycles_executed": sim_cycles - charged,
        "pipeline.charge_s": self_s("pipeline."),
        "switcher.calls": calls("switcher.call"),
        "switcher.self_s": self_s("switcher."),
        "switcher.call_p50_us": tracer.percentile_us("switcher.call", 0.50),
        "switcher.call_p99_us": tracer.percentile_us("switcher.call", 0.99),
        "switcher.bytes_zeroed": c.get("switcher.bytes_zeroed", 0),
    }
    for name, (count, ns) in tracer.compartments.items():
        metrics[f"comp.{name}.calls"] = count
        metrics[f"comp.{name}.s"] = ns / 1e9
    metrics.update({
        "heap.malloc_calls": calls("heap.malloc"),
        "heap.free_calls": calls("heap.free"),
        "heap.self_s": self_s("heap."),
        "heap.malloc_p99_us": tracer.percentile_us("heap.malloc", 0.99),
        "heap.failed": _sum(tracer, "heap.", 3),
        "heap.peak_live": c.get("heap.peak_live", 0),
        "revoker.passes": c.get("revoker.passes", 0),
        "revoker.s": self_s("revoker."),
        "revoker.words_visited": c.get("revoker.words_visited", 0),
        "revoker.wait_cycles": c.get("revoker.wait_cycles", 0),
        "net.submit_s": incl_s("net.submit"),
        "net.pump_s": incl_s("net.pump"),
        "net.pump_p99_ms": tracer.percentile_us("net.pump", 0.99) / 1e3,
        "net.backpressure_retries": c.get("net.backpressure_retries", 0),
        "tls.calls": _sum(tracer, "tls.", 0),
        "tls.s": self_s("tls."),
        "fw.calls": calls("fw.admit"),
        "fw.s": self_s("fw."),
        "jsvm.ticks": calls("jsvm.run_tick"),
        "jsvm.tick_s": incl_s("jsvm.run_tick"),
        "jsvm.tick_p99_us": tracer.percentile_us("jsvm.run_tick", 0.99),
        "jsvm.gc_passes": c.get("jsvm.gc_passes", 0),
        "trace.unattributed_s": max(0, work_ns - tracer.covered_ns) / 1e9,
        "trace.spans": len(tracer.spans) + tracer.spans_dropped,
    })
    return metrics
