"""E5 — Figure 6: allocator benchmark overheads on Ibex.

Expected shape differences from Flute (paper section 7.2.2):

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
from repro.workloads.alloc_bench import (
    ALLOCATION_SIZES,
    overhead_series,
    sweep,
)
from conftest import emit


def test_figure6(benchmark):
    results = benchmark.pedantic(
        lambda: sweep(CoreKind.IBEX), rounds=1, iterations=1
    )
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
