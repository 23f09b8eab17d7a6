"""E2 — Table 3: CoreMark results for the two cores.

Paper reference (CoreMark/MHz, and overhead vs the same core's RV32E):

    Flute: RV32E 2.017 | +caps 1.892 (5.73%) | +filter 1.892 (5.73%)
    Ibex:  RV32E 2.086 | +caps 1.811 (13.18%) | +filter 1.624 (21.28%)

We run the CoreMark-workalike on the ISA simulator under both core
timing models; baselines are pinned to the paper's absolute scores and
the overheads emerge from mechanism (extra instructions, capability-
width pointer traffic, the Ibex load filter's memory-port conflict).
"""

import pytest

from repro.analysis.reporting import format_table
from repro.workloads.coremark import run_kernel_profile, table3
from conftest import emit


@pytest.fixture(scope="module")
def rows():
    return table3(iterations=2)


def test_table3_reproduction(rows):
    body = format_table(
        ["core", "config", "cycles", "score", "paper", "overhead %"],
        [
            (
                r["core"],
                r["config"],
                f"{r['cycles']:,}",
                f"{r['score_scaled']:.3f}",
                f"{r['paper_score']:.3f}",
                f"{r['overhead_pct']:.2f}",
            )
            for r in rows
        ],
    )
    emit("Table 3: CoreMark results for our two cores", body)

    by = {(r["core"], r["config"]): r for r in rows}
    flute_caps = by[("flute", "cheriot")]["overhead_pct"]
    flute_filter = by[("flute", "cheriot+filter")]["overhead_pct"]
    ibex_caps = by[("ibex", "cheriot")]["overhead_pct"]
    ibex_filter = by[("ibex", "cheriot+filter")]["overhead_pct"]

    # Who-wins / rough-factor shape from the paper:
    assert flute_caps == pytest.approx(5.73, abs=3.0)
    assert flute_filter == flute_caps  # filter fully hidden on Flute
    assert ibex_caps == pytest.approx(13.18, abs=5.0)
    assert ibex_filter == pytest.approx(21.28, abs=7.0)
    assert ibex_caps > flute_caps  # narrow bus hurts Ibex more
    assert ibex_filter > ibex_caps  # short pipeline exposes the filter


def test_per_kernel_attribution():
    """Where the overhead lives: the pointer-chasing list kernel pays

    the load filter hardest, the globals-reading state machine least."""
    from repro.pipeline import CoreKind

    def run():
        return {
            config: run_kernel_profile(CoreKind.IBEX, config, iterations=1)
            for config in ("rv32e", "cheriot", "cheriot+filter")
        }

    profiles = run()
    rows = []
    for kernel in ("list", "matrix", "state"):
        base = profiles["rv32e"][kernel]
        rows.append(
            (
                kernel,
                f"{base:,}",
                f"+{100 * (profiles['cheriot'][kernel] - base) / base:.1f}%",
                f"+{100 * (profiles['cheriot+filter'][kernel] - base) / base:.1f}%",
            )
        )
    emit(
        "Table 3 attribution (Ibex): per-kernel overhead",
        format_table(["kernel", "rv32e cycles", "+capabilities", "+load filter"], rows),
    )
    def filter_delta(kernel):
        return profiles["cheriot+filter"][kernel] - profiles["cheriot"][kernel]

    assert filter_delta("list") / profiles["cheriot"]["list"] > \
        filter_delta("state") / profiles["cheriot"]["state"]
