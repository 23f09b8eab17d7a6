"""Ablations over the design choices DESIGN.md calls out.

Each ablation varies one co-design decision and measures the paper's
stated trade-off:

* **compiler fixes** — the paper flags its Table 3 numbers as worst-case
  pending two known codegen bug fixes (§7.2); we quantify the expected
  recovery by lowering with the fixes applied.
* **revocation granule** — §3.3.1: a coarser granule shrinks the bitmap
  SRAM proportionally but pads allocations.
* **quarantine threshold** — §5.1: sweeping less often amortizes the
  whole-heap scan over more freed bytes, at the cost of more memory
  held in quarantine.
* **revoker batch size** — §3.3.2: the software sweep disables
  interrupts per batch, so batch size is a direct real-time latency
  knob with negligible throughput cost.
"""

from repro.allocator import CheriHeap, TemporalSafetyMode
from repro.analysis.reporting import format_table
from repro.capability import make_roots
from repro.memory import RevocationMap, SystemBus, TaggedMemory, default_memory_map
from repro.pipeline import CoreKind, make_core_model
from repro.revoker import BackgroundRevoker, EpochCounter, SoftwareRevoker
from repro.workloads.coremark import run_coremark
from conftest import emit


def test_ablation_compiler_fixes():
    """How much of the CoreMark overhead the two compiler bugs cost."""

    def run():
        rows = []
        for core in (CoreKind.FLUTE, CoreKind.IBEX):
            base = run_coremark(core, "rv32e", iterations=1)
            for fixed in (False, True):
                result = run_coremark(
                    core, "cheriot+filter", iterations=1, fixed_compiler=fixed
                )
                overhead = 100 * (result.cycles - base.cycles) / base.cycles
                rows.append(
                    (
                        core.value,
                        "fixed" if fixed else "as-submitted",
                        f"{result.cycles:,}",
                        f"{overhead:.2f}%",
                    )
                )
        return rows

    rows = run()
    emit(
        "Ablation: the two compiler bugs of section 7.2 "
        "(paper: numbers are worst-case pending fixes)",
        format_table(["core", "compiler", "cycles", "overhead vs rv32e"], rows),
    )
    by = {(r[0], r[1]): float(r[3].rstrip("%")) for r in rows}
    for core in ("flute", "ibex"):
        assert by[(core, "fixed")] < by[(core, "as-submitted")]


def test_ablation_revocation_granule():
    """Bitmap SRAM vs allocation padding across granule sizes."""

    def run():
        rows = []
        for granule in (8, 16, 32, 64):
            mm = default_memory_map()
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
            rmap = RevocationMap(mm.heap.base, mm.heap.size, granule_bytes=granule)
            roots = make_roots()
            epoch = EpochCounter()
            hw = BackgroundRevoker(bus, rmap, epoch)
            heap = CheriHeap(
                bus, mm.heap, rmap, roots.memory, TemporalSafetyMode.HARDWARE,
                hardware_revoker=hw, epoch=epoch,
            )
            for _ in range(256):
                heap.free(heap.malloc(20))
            rows.append(
                (
                    f"{granule} B",
                    f"{rmap.bitmap_bytes:,} B",
                    f"{100 * rmap.bitmap_bytes / mm.heap.size:.2f}%",
                    f"{heap.stats.fragmentation_padding:,} B",
                )
            )
        return rows

    rows = run()
    emit(
        "Ablation: revocation granule size (section 3.3.1) — "
        "bitmap SRAM vs padding for 256 x 20-byte allocations",
        format_table(["granule", "bitmap SRAM", "SRAM overhead", "padding"], rows),
    )
    bitmaps = [int(r[1].replace(",", "").split()[0]) for r in rows]
    paddings = [int(r[3].replace(",", "").split()[0]) for r in rows]
    assert bitmaps == sorted(bitmaps, reverse=True)
    assert paddings[-1] > paddings[0]


def test_ablation_quarantine_threshold():
    """Sweep frequency vs total cycles at a small allocation size."""

    def run():
        rows = []
        mm = default_memory_map()
        for fraction in (0.125, 0.25, 0.5):
            threshold = int(mm.heap.size * fraction)
            from repro.machine import System

            system = System.build(
                core=CoreKind.IBEX,
                mode=TemporalSafetyMode.SOFTWARE,
                quarantine_threshold=threshold,
            )
            system.reset_cycles()
            for _ in range(4096):
                system.free(system.malloc(64))
            rows.append(
                (
                    f"{fraction:.3f} x heap",
                    f"{system.allocator.stats.revocation_passes}",
                    f"{system.core_model.cycles:,}",
                )
            )
        return rows

    rows = run()
    emit(
        "Ablation: quarantine threshold (section 5.1) — software revoker, "
        "4096 x 64-byte alloc/free",
        format_table(["threshold", "sweeps", "cycles"], rows),
    )
    cycles = [int(r[2].replace(",", "")) for r in rows]
    assert cycles == sorted(cycles, reverse=True)  # bigger threshold cheaper


def test_ablation_revoker_batch_size():
    """Interrupts-disabled window vs batch size for the software sweep."""

    def run():
        mm = default_memory_map()
        rows = []
        for batch in (16, 64, 256, 1024):
            bus = SystemBus()
            bus.attach_sram(TaggedMemory(mm.code.base, mm.sram_bytes))
            rmap = RevocationMap(mm.heap.base, mm.heap.size)
            core = make_core_model(CoreKind.IBEX, load_filter_enabled=True)
            revoker = SoftwareRevoker(bus, rmap, core_model=core, batch_granules=batch)
            _, cycles = revoker.sweep(mm.heap.base, mm.heap.top)
            window = core.sweep_cycles_software(batch * 8)
            rows.append((batch, f"{window:,}", f"{cycles:,}"))
        return rows

    rows = run()
    emit(
        "Ablation: software revoker batch size (section 3.3.2) — "
        "worst-case interrupts-off window vs full-sweep cost (256 KiB heap)",
        format_table(
            ["batch (granules)", "interrupts-off window (cycles)", "sweep total"],
            rows,
        ),
    )
    windows = [int(r[1].replace(",", "")) for r in rows]
    totals = [int(r[2].replace(",", "")) for r in rows]
    assert windows == sorted(windows)  # latency grows with batch
    # ...while total sweep cost is essentially flat (within 2%).
    assert max(totals) - min(totals) < 0.02 * max(totals)


def test_ablation_peephole_optimizer():
    """-O0-style spills vs the peephole's register reuse (section 7.2's

    -Oz setting sits between the two)."""

    def run():
        rows = []
        for core in (CoreKind.FLUTE, CoreKind.IBEX):
            for optimize in (False, True):
                result = run_coremark(
                    core, "cheriot+filter", iterations=1, optimize=optimize
                )
                rows.append(
                    (
                        core.value,
                        "peephole" if optimize else "spill-everything",
                        f"{result.instructions:,}",
                        f"{result.cycles:,}",
                    )
                )
        return rows

    rows = run()
    emit(
        "Ablation: peephole optimizer (register reuse of just-stored values)",
        format_table(["core", "codegen", "instructions", "cycles"], rows),
    )
    by = {(r[0], r[1]): int(r[3].replace(",", "")) for r in rows}
    for core in ("flute", "ibex"):
        assert by[(core, "peephole")] < by[(core, "spill-everything")]
