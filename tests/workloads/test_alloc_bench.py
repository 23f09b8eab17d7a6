"""Tests for the allocation microbenchmark harness (Table 4, Figs 5/6).

These use a reduced total (64 KiB instead of 1 MiB) so the orderings
can be asserted quickly; the full-size runs live in ``benchmarks/``.
"""

import os
import sys

import pytest

import repro
from repro.allocator import TemporalSafetyMode as M
from repro.machine import System
from repro.pipeline import CoreKind
from repro.workloads.alloc_bench import (
    CONFIGURATIONS,
    TOTAL_BYTES,
    format_table4,
    overhead_series,
    run_alloc_bench,
    sweep,
    sweep_total_bytes,
)

TOTAL = 64 * 1024


def cycles(core, mode, hwm, size, total=TOTAL):
    return run_alloc_bench(core, mode, hwm, size, total).cycles


class TestConfigurationOrdering:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    def test_temporal_safety_costs_stack_up(self, core):
        """Baseline <= Metadata <= Hardware <= Software at small sizes.

        The total is large enough that quarantine crosses the sweep
        threshold several times, so the revoker choice matters."""
        total = 512 * 1024
        base = cycles(core, M.BASELINE, False, 64, total)
        meta = cycles(core, M.METADATA, False, 64, total)
        hard = cycles(core, M.HARDWARE, False, 64, total)
        soft = cycles(core, M.SOFTWARE, False, 64, total)
        assert base < meta < hard < soft

    def test_revocation_dominates_at_large_sizes(self):
        """Figure 5/6 right edge: at 128 KiB the sweep is nearly the

        whole story."""
        base = cycles(CoreKind.IBEX, M.BASELINE, False, 128 * 1024, 1 << 20)
        soft = cycles(CoreKind.IBEX, M.SOFTWARE, False, 128 * 1024, 1 << 20)
        assert soft > 20 * base

    def test_hardware_revoker_much_cheaper_than_software(self):
        soft = cycles(CoreKind.IBEX, M.SOFTWARE, False, 128 * 1024, 1 << 20)
        hard = cycles(CoreKind.IBEX, M.HARDWARE, False, 128 * 1024, 1 << 20)
        assert hard < soft / 1.5


class TestHighWaterMark:
    @pytest.mark.parametrize("core", [CoreKind.FLUTE, CoreKind.IBEX])
    def test_hwm_saves_at_small_sizes(self, core):
        without = cycles(core, M.BASELINE, False, 32)
        with_hwm = cycles(core, M.BASELINE, True, 32)
        saving = (without - with_hwm) / without
        assert 0.05 < saving < 0.30  # "reduces the total cost by 10%"

    def test_hwm_saving_fades_at_large_sizes(self):
        small_without = cycles(CoreKind.FLUTE, M.BASELINE, False, 32)
        small_with = cycles(CoreKind.FLUTE, M.BASELINE, True, 32)
        large_without = cycles(CoreKind.FLUTE, M.SOFTWARE, False, 32 * 1024, 1 << 19)
        large_with = cycles(CoreKind.FLUTE, M.SOFTWARE, True, 32 * 1024, 1 << 19)
        small_save = (small_without - small_with) / small_without
        large_save = (large_without - large_with) / large_without
        assert large_save < small_save

    def test_ibex_hwm_penalty_when_revoker_bound(self):
        """The paper's surprise: at 128 KiB on Ibex, Hardware(S) is

        *slower* than Hardware — two more CSRs per context switch while
        blocked on the revoker (section 7.2.2)."""
        without = cycles(CoreKind.IBEX, M.HARDWARE, False, 128 * 1024, 1 << 20)
        with_hwm = cycles(CoreKind.IBEX, M.HARDWARE, True, 128 * 1024, 1 << 20)
        assert with_hwm > without

    def test_software_with_hwm_beats_baseline_on_ibex_small(self):
        """Section 7.2.2: on Ibex the HWM brings full temporal safety

        (software revoker!) below the no-HWM baseline at 32/64 bytes."""
        for size in (32, 64):
            baseline = cycles(CoreKind.IBEX, M.BASELINE, False, size)
            soft_hwm = cycles(CoreKind.IBEX, M.SOFTWARE, True, size)
            assert soft_hwm < baseline


class TestHarness:
    def test_result_metadata(self):
        result = run_alloc_bench(CoreKind.IBEX, M.HARDWARE, True, 1024, TOTAL)
        assert result.iterations == TOTAL // 1024
        assert result.label == "Hardware (S)"
        assert result.cycles_per_iteration > 0

    def test_table4_and_series(self):
        results = sweep(CoreKind.IBEX, sizes=(64, 4096))
        assert len(results) == 2 * 4 * 2
        series = overhead_series(results)
        assert "Baseline" in series and "Software (S)" in series
        for points in series.values():
            assert [x for x, _ in points] == [64, 4096]
        baseline = dict(series["Baseline"])
        assert baseline[64] == pytest.approx(1.0)
        text = format_table4(results)
        assert "64B" in text and "4KiB" in text

    def test_sweep_scales_small_sizes_down(self):
        assert sweep_total_bytes(1024) == TOTAL_BYTES // 4
        assert sweep_total_bytes(2048) == TOTAL_BYTES
        results = sweep(CoreKind.IBEX, sizes=(128 * 1024,))
        assert len(results) == 4 * 2
        assert {r.iterations for r in results} == {8}


#: Host work per malloc+free pair, as Python function calls into
#: ``repro`` (see :func:`count_pair_calls`).  The allocator path runs no
#: ISA instruction, so this count is what its host cost is made of; it
#: is deterministic, so the ceiling is exact.  Lower it when the path
#: gets cheaper.
CALLS_PER_PAIR_CEILING = 260.0
COUNTER_PAIRS = 256
COUNTER_SIZE = 64

_REPRO_DIR = os.path.dirname(repro.__file__)
#: Comprehension frames: CPython 3.12 inlines them, so counting them
#: would make the figure depend on the interpreter version.
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})


def count_pair_calls(system, pairs: int, size: int) -> int:
    """Python-level calls into ``repro`` made by ``pairs`` malloc+free pairs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if (
                code.co_filename.startswith(_REPRO_DIR)
                and code.co_name not in _COMPREHENSIONS
            ):
                calls += 1

    malloc, free = system.malloc, system.free
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _ in range(pairs):
            free(malloc(size))
    finally:
        sys.setprofile(previous)
    return calls


def test_host_calls_per_alloc_pair():
    """Both cores x all eight configurations, 256 pairs of 64 B each."""
    cells = {}
    for core in (CoreKind.FLUTE, CoreKind.IBEX):
        for mode in CONFIGURATIONS:
            for hwm in (False, True):
                system = System.build(core=core, mode=mode, hwm_enabled=hwm)
                label = f"{core.value}/{mode.value}/hwm={int(hwm)}"
                cells[label] = count_pair_calls(system, COUNTER_PAIRS, COUNTER_SIZE)
    per_pair = round(sum(cells.values()) / (len(cells) * COUNTER_PAIRS), 1)
    if per_pair > CALLS_PER_PAIR_CEILING:
        lines = [
            f"{label}: {count / COUNTER_PAIRS:.2f} calls/pair"
            for label, count in cells.items()
        ]
        pytest.fail(
            f"{per_pair} host calls per malloc+free pair, ceiling "
            f"{CALLS_PER_PAIR_CEILING}\n" + "\n".join(lines) + "\nreproduce: "
            "PYTHONPATH=src python -m pytest -q "
            "tests/workloads/test_alloc_bench.py::test_host_calls_per_alloc_pair"
        )
