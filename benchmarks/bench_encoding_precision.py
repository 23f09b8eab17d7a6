"""E7 — Encoding precision and memory fragmentation (section 3.2.3).

The paper's claims:

* objects of up to 511 bytes are always representable precisely;
* average internal fragmentation ~ 1/2**9 ~= 0.19 % with the CHERIoT
  9-bit T/B fields, versus 12.5 % with the 3-bit worst case of the
  reused 64-bit CHERI-Concentrate layout;
* revocation bitmap SRAM overhead is 1/64 = 1.56 % of the heap.
"""

import pytest

from repro.analysis.fragmentation import (
    average_fragmentation,
    check_cheriot_encoder,
    max_precise_length,
    rule_of_thumb_fragmentation,
)
from repro.analysis.reporting import format_table
from repro.memory.revocation_map import SRAM_OVERHEAD
from conftest import emit


def measure():
    return {
        "max_precise": max_precise_length(9),
        "frag9": average_fragmentation(9, min_length=512),
        "frag3": average_fragmentation(3, min_length=8),
        "rule9": rule_of_thumb_fragmentation(9),
        "rule3": rule_of_thumb_fragmentation(3),
    }


def test_encoding_precision():
    m = measure()
    body = format_table(
        ["quantity", "measured", "paper"],
        [
            ("largest always-precise object", f"{m['max_precise']} B", "511 B"),
            (
                "avg fragmentation, 9-bit T/B",
                f"{m['frag9'] * 100:.3f}%",
                f"~{m['rule9'] * 100:.2f}% (1/2^9)",
            ),
            (
                "avg fragmentation, 3-bit T/B",
                f"{m['frag3'] * 100:.2f}%",
                f"{m['rule3'] * 100:.1f}% (1/2^3)",
            ),
            ("revocation bitmap SRAM overhead", f"{SRAM_OVERHEAD * 100:.2f}%", "1.56%"),
        ],
    )
    emit("Section 3.2.3 / 3.3.1: encoding precision and overheads", body)

    assert m["max_precise"] == 511
    assert m["frag9"] < 0.005  # sub-half-percent, paper: ~0.19%
    assert m["frag3"] > 0.05  # "unacceptable", paper: 12.5%
    assert m["frag3"] > 30 * m["frag9"]
    assert SRAM_OVERHEAD == pytest.approx(0.015625)

    # Formula cross-checked against the real E/B/T encoder.
    for length, allocated in check_cheriot_encoder([1, 511, 513, 100_000]):
        assert allocated >= length
