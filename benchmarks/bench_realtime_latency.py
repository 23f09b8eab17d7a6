"""E9 — the real-time claim (paper section 2.1).

"A real-time system is one in which the latency of operations is
bounded and can be reasoned about... we provide extensions that allow
software to enforce which code may run with interrupts disabled, which
makes it tractable to reason about worst-case latency."

This bench measures the longest interrupts-disabled window over the
allocation microbenchmark with full temporal safety (software revoker —
the worst configuration for latency) and demonstrates:

* the worst case equals one revoker batch and is independent of the
  allocation size and the amount of memory swept;
* shrinking the batch shrinks the bound proportionally (the
  "easily changed batch size" knob of section 3.3.2).
"""

import pytest

from repro.allocator import TemporalSafetyMode
from repro.analysis.reporting import format_table, size_label
from repro.machine import System
from repro.pipeline import CoreKind
from repro.rtos import InterruptLatencyMonitor
from conftest import emit


def run_with_monitor(allocation_size: int, batch_granules: int, total=1 << 19):
    system = System.build(core=CoreKind.IBEX, mode=TemporalSafetyMode.SOFTWARE)
    system.software_revoker.batch_granules = batch_granules
    monitor = InterruptLatencyMonitor(system.csr, system.core_model)
    for _ in range(max(1, total // allocation_size)):
        system.free(system.malloc(allocation_size))
    return monitor, system


def test_worst_case_latency_bounded():
    def run():
        rows = []
        results = {}
        for size in (64, 4096, 128 * 1024):
            monitor, system = run_with_monitor(size, batch_granules=64)
            results[size] = monitor.worst_case
            rows.append(
                (
                    size_label(size),
                    len(monitor.windows),
                    f"{monitor.worst_case:,}",
                    f"{monitor.total_disabled:,}",
                )
            )
        return rows, results

    rows, results = run()
    emit(
        "Section 2.1: worst-case interrupts-off window under full "
        "temporal safety (software revoker, batch = 64 granules)",
        format_table(
            ["alloc size", "critical sections", "worst window (cyc)",
             "total disabled (cyc)"],
            rows,
        ),
    )
    # The bound is a constant of the image: identical at every
    # allocation size, no matter how much sweeping happened.
    values = set(results.values())
    assert len(values) == 1, f"latency bound varied with workload: {results}"


def test_batch_size_is_the_latency_knob():
    def run():
        rows = []
        worst = {}
        for batch in (16, 64, 256):
            monitor, _ = run_with_monitor(1024, batch_granules=batch, total=1 << 18)
            worst[batch] = monitor.worst_case
            rows.append((batch, f"{monitor.worst_case:,}"))
        return rows, worst

    rows, worst = run()
    emit(
        "Section 3.3.2: the batch size bounds the critical section",
        format_table(["batch (granules)", "worst window (cycles)"], rows),
    )
    assert worst[16] < worst[64] < worst[256]
    assert worst[256] == pytest.approx(16 * worst[16], rel=0.05)
