"""E3 + E4 — Table 4 and Figure 5: the allocator benchmark on Flute.

One 13-size sweep (32 B .. 128 KiB, eight configurations: Baseline /
Metadata / Software / Hardware, each with and without the stack
high-water mark) feeds both artifacts.  Table 4 shows the raw cycles at
four representative sizes; the figure plots, for each configuration,
total benchmark cycles normalized to the Baseline configuration.

For small allocation sizes the total is scaled down from the paper's
1 MiB (:func:`repro.workloads.alloc_bench.sweep_total_bytes`): each
size is normalized against its own baseline, so the ratios are
unaffected.  Expected figure shape:

* software-revocation overhead grows with allocation size (fewer
  cross-compartment calls amortize a fixed sweep bill) and dominates at
  128 KiB;
* the hardware revoker stays far cheaper; Hardware (S) beats the
  baseline for sizes up to ~512 B;
* the Flute hardware revoker degrades at the largest sizes because the
  prototype lacks a completion interrupt and the RTOS's polling steals
  its bus slots.
"""

import pytest

from repro.analysis.reporting import format_series
from repro.pipeline import CoreKind
from repro.workloads.alloc_bench import (
    ALLOCATION_SIZES,
    format_table4,
    overhead_series,
    sweep,
)
from conftest import TABLE4_SIZES, check_table4, emit


@pytest.fixture(scope="module")
def results():
    return sweep(CoreKind.FLUTE)


def test_table4(results):
    cells = [r for r in results if r.allocation_size in TABLE4_SIZES]
    emit(
        "Table 4 (flute): cycles to allocate 1 MiB at different sizes",
        format_table4(cells),
    )
    check_table4(cells)


def test_figure5(results):
    series = overhead_series(results)
    emit(
        "Figure 5: allocator benchmark results on Flute "
        "(overhead vs Baseline)",
        format_series(series, "cycles / baseline cycles per size"),
    )

    software = dict(series["Software"])
    hardware = dict(series["Hardware"])
    hardware_s = dict(series["Hardware (S)"])

    # Software overhead rises with size and dominates at the top end.
    assert software[128 * 1024] > software[32]
    assert software[128 * 1024] > 20

    # Hardware revoker is always cheaper than software.
    for size in ALLOCATION_SIZES:
        assert hardware[size] < software[size]

    # Hardware + HWM beats the baseline for small allocations
    # ("up to 512B on Flute — the vast majority of allocations").
    for size in (32, 64, 128, 256):
        assert hardware_s[size] < 1.0, f"Hardware (S) should win at {size}B"
    assert hardware_s[512] < 1.02  # the paper's crossover point
    assert hardware_s[2048] > 1.0  # and it has crossed by 2 KiB

    # The Flute polling tail: hardware overhead grows at the largest
    # sizes relative to the mid-range.
    assert hardware[128 * 1024] > hardware[4096]
