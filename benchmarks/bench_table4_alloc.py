"""E3 — Table 4: cycles to allocate 1 MiB of heap at different sizes.

Eight configurations (Baseline / Metadata / Software / Hardware, each
with and without the stack high-water mark) on both cores.  This file
reproduces the table at four representative sizes; the full 13-size
sweeps live in the Figure 5/6 benchmarks.

For small allocation sizes the total is scaled down from the paper's
1 MiB (the overhead *ratios* are what the figures report, and each size
is normalized against its own baseline, so totals may differ per size).
"""

import pytest

from repro.pipeline import CoreKind
from repro.workloads.alloc_bench import format_table4, sweep
from conftest import emit

SIZES = (32, 1024, 32 * 1024, 128 * 1024)


@pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
def test_table4(benchmark, core):
    results = benchmark.pedantic(
        lambda: sweep(core, SIZES), rounds=1, iterations=1
    )
    emit(
        f"Table 4 ({core.value}): cycles to allocate 1 MiB at different sizes",
        format_table4(results),
    )

    by = {(r.label, r.allocation_size): r.cycles for r in results}

    for size in SIZES:
        base = by[("Baseline", size)]
        assert by[("Metadata", size)] > base
        assert by[("Software", size)] > by[("Hardware", size)]

    # Revocation dominates at 128 KiB (a full sweep per allocation).
    assert by[("Software", 128 * 1024)] > 20 * by[("Baseline", 128 * 1024)]

    # The HWM helps at small sizes...
    small_saving = 1 - by[("Baseline (S)", 32)] / by[("Baseline", 32)]
    assert 0.05 < small_saving < 0.35
    if core is CoreKind.IBEX:
        # ...and costs a little at 128 KiB under the hardware revoker
        # (two extra CSRs per context switch while blocked — 7.2.2).
        assert by[("Hardware (S)", 128 * 1024)] > by[("Hardware", 128 * 1024)]
