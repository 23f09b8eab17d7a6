"""Simulator speed harness: how fast the simulator itself runs.

Unlike the other benchmarks (which reproduce the paper's *architectural*
numbers), this one measures host wall-clock for the executor and fails
only on a real collapse.  That compiled code retires exactly what the
interpreter does is pinned by the differential tests in ``tests/isa``.

``tools/bench_speed.py`` records the same workloads to
``BENCH_simspeed.json``; ``tools/gate.py simspeed`` gates CI on
them.
"""

from repro.analysis.reporting import format_table
from repro.analysis.simspeed import (
    SEED_BASELINE,
    measure_alu_loop,
    measure_mem_loop,
    measure_table3_iter1,
)
from conftest import emit


def test_simulator_speed(benchmark):
    results = {}

    def workloads():
        results["alu_loop"] = measure_alu_loop()
        results["mem_loop"] = measure_mem_loop()
        results["table3_iter1"] = measure_table3_iter1()

    benchmark.pedantic(workloads, rounds=1, iterations=1)

    body = format_table(
        ["workload", "seconds", "MIPS"],
        [
            (
                name,
                f"{r['seconds']:.3f}",
                f"{r['mips']:.3f}" if "mips" in r else "-",
            )
            for name, r in results.items()
        ],
    )
    body += (
        f"\n\nseed baseline: table3_iter1 "
        f"{SEED_BASELINE['table3_iter1_seconds']:.3f}s, "
        f"alu_loop {SEED_BASELINE['alu_loop_mips']:.3f} MIPS"
    )
    emit("Simulator speed (host wall-clock)", body)

    # Generous floors: an order of magnitude below current numbers, so
    # only a real collapse (not shared-machine noise) fails them.
    assert results["alu_loop"]["mips"] > 0.03
    assert results["table3_iter1"]["seconds"] < 30.0
