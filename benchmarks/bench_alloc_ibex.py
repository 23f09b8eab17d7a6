"""E3 + E5 — Table 4 and Figure 6: the allocator benchmark on Ibex.

The same one-sweep-two-artifacts structure as ``bench_alloc_flute.py``.
Expected figure shape differences from Flute (paper section 7.2.2):

* zeroing is proportionately costlier on the 33-bit bus, so the stack
  high-water mark matters more: Software (S) drops *below* the
  no-HWM baseline at 32- and 64-byte allocations;
* Hardware (S) sits close to (slightly above) the baseline rather than
  beating it as on Flute;
* at 128 KiB the Hardware (S) variant is slightly *slower* than
  Hardware — the two extra CSRs saved/restored on every context switch
  while blocked on the revoker.
"""

import pytest

from repro.analysis.reporting import format_series
from repro.pipeline import CoreKind
from repro.workloads.alloc_bench import format_table4, overhead_series, sweep
from conftest import TABLE4_SIZES, check_table4, emit


@pytest.fixture(scope="module")
def results():
    return sweep(CoreKind.IBEX)


def test_table4(results):
    cells = [r for r in results if r.allocation_size in TABLE4_SIZES]
    emit(
        "Table 4 (ibex): cycles to allocate 1 MiB at different sizes",
        format_table4(cells),
    )
    check_table4(cells)


def test_figure6(results):
    series = overhead_series(results)
    emit(
        "Figure 6: allocator benchmark results on Ibex "
        "(overhead vs Baseline)",
        format_series(series, "cycles / baseline cycles per size"),
    )

    software = dict(series["Software"])
    software_s = dict(series["Software (S)"])
    hardware = dict(series["Hardware"])
    hardware_s = dict(series["Hardware (S)"])

    # Full temporal safety *with software revocation* beats the no-HWM
    # baseline at 32 and 64 bytes — the headline Ibex result.
    assert software_s[32] < 1.0
    assert software_s[64] < 1.0

    # Software overhead still dominates at large sizes.
    assert software[128 * 1024] > 20

    # Hardware (S) close to baseline at small sizes (within ~15%).
    assert hardware_s[32] < 1.15

    # The 128 KiB HWM context-switch penalty.
    assert hardware_s[128 * 1024] > hardware[128 * 1024]
