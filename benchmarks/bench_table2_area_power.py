"""E1 — Table 2: area and power costs for variants of Ibex.

Paper reference values (TSMC 28nm HPC+, 300 MHz):

    RV32E                 26988 GE            1.437 mW
    RV32E + PMP16         55905 GE (2.07x)    2.16 mW (1.50x)
    RV32E + capabilities  58110 GE (2.15x)    2.58 mW (1.79x)
    + load filter         58431 GE (2.17x)    2.58 mW (1.80x)
    + background revoker  61422 GE (2.28x)    2.73 mW (1.90x)
"""

import pytest

from repro.hw.area_power import area_power_table, format_table2
from repro.hw.critical_path import format_timing, timing_reports
from conftest import emit

PAPER_GATES = [26988, 55905, 58110, 58431, 61422]
PAPER_POWER = [1.437, 2.16, 2.58, 2.58, 2.73]


def test_table2_reproduction():
    rows = area_power_table()
    emit("Table 2: area and power costs for variants of Ibex", format_table2(rows))

    gates = [row.gates for row in rows]
    assert gates == PAPER_GATES, "gate counts must match the paper exactly"
    for row, expected in zip(rows, PAPER_POWER):
        assert row.power_mw == pytest.approx(expected, rel=0.03)

    # Shape assertions the paper's prose makes:
    base, pmp, caps, lf, rev = rows
    assert pmp.gate_ratio == pytest.approx(2.07, abs=0.01)
    assert rev.gate_ratio == pytest.approx(2.28, abs=0.01)
    assert (lf.gates - caps.gates) / caps.gates < 0.01  # filter ~free
    assert rev.gates / pmp.gates < 1.10  # <10% over the PMP baseline

    # Timing: "All Ibex configurations had a f_max of 330 MHz" — the
    # additions stay off the critical path.
    emit("Timing: critical path per variant", format_timing())
    assert all(r.meets_baseline_fmax for r in timing_reports())
