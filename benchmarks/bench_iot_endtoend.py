"""E6 — End-to-end IoT application CPU load (paper section 7.2.3).

The paper runs the compartmentalized network stack + TLS + MQTT + JS
interpreter on a 20 MHz CHERIoT-Ibex for a minute (including TLS
connection establishment) and measures 17.5 % CPU load — 82.5 % of the
core left to the idle thread.

We simulate the same 60 s with per-packet heap allocations, per-tick JS
execution and GC-driven frees through the full temporal-safety
machinery, and require the load to land in the same regime.
"""

from repro.allocator import TemporalSafetyMode
from repro.analysis.reporting import format_table
from repro.iot.app import IoTApplication
from repro.pipeline import CoreKind
from conftest import emit

PAPER_CPU_LOAD = 0.175


def run_app():
    app = IoTApplication(core=CoreKind.IBEX, mode=TemporalSafetyMode.HARDWARE)
    return app.run(duration_ms=60_000)


def test_iot_endtoend():
    report = run_app()
    body = format_table(
        ["metric", "measured", "paper"],
        [
            ("CPU load", f"{report.cpu_load * 100:.1f}%", "17.5%"),
            ("idle fraction", f"{report.idle_fraction * 100:.1f}%", "82.5%"),
            ("duration", f"{report.duration_ms / 1000:.0f}s @ 20MHz", "60s @ 20MHz"),
            ("packets received", report.packets_received, "-"),
            ("JS ticks (10ms)", report.js_ticks, "6000"),
            ("JS objects allocated", report.js_objects_allocated, "-"),
            ("GC passes", report.gc_passes, "-"),
            ("revocation passes", report.revocation_passes, "-"),
        ],
    )
    emit("Section 7.2.3: end-to-end IoT application", body)

    # Same regime as the paper: a low-duty-cycle device with plenty of
    # idle headroom, not a saturated core.
    assert 0.05 < report.cpu_load < 0.35
    assert report.js_ticks == 6000
    assert report.packets_received > 0
    assert report.js_objects_allocated > 0
    assert sum(report.led_final) == 1  # the LED chase is alive

    # Device-level energy: what the security upgrade costs in battery.
    from repro.analysis.energy import security_battery_cost

    cheriot, pmp, extra = security_battery_cost(
        report.cpu_load, report.duration_ms / 1000
    )
    emit(
        "Energy: complete memory safety vs the PMP status quo",
        format_table(
            ["core", "avg power", "CR2032 life"],
            [
                (pmp.variant_name, f"{pmp.average_mw:.4f} mW",
                 f"{pmp.cr2032_days:.0f} days"),
                (cheriot.variant_name, f"{cheriot.average_mw:.4f} mW",
                 f"{cheriot.cr2032_days:.0f} days"),
                ("security premium", f"+{extra * 100:.1f}%", ""),
            ],
        ),
    )
    assert extra < 0.5


def test_iot_temporal_safety_mode_comparison():
    """The end-to-end cost of temporal safety: the same application

    under Baseline (spatial only), Software and Hardware revocation."""

    def run():
        rows = []
        loads = {}
        for mode in (
            TemporalSafetyMode.BASELINE,
            TemporalSafetyMode.SOFTWARE,
            TemporalSafetyMode.HARDWARE,
        ):
            # A tight quarantine (8 KiB) forces frequent revocation so
            # the revoker choice is visible within the 15 s window.
            app = IoTApplication(
                core=CoreKind.IBEX, mode=mode, quarantine_threshold=8 * 1024
            )
            report = app.run(duration_ms=15_000)
            loads[mode] = report.cpu_load
            rows.append(
                (mode.value, f"{report.cpu_load * 100:.2f}%",
                 report.revocation_passes)
            )
        return rows, loads

    rows, loads = run()
    emit(
        "End-to-end cost of temporal safety (15 s windows)",
        format_table(["allocator mode", "CPU load", "revocation passes"], rows),
    )
    # Temporal safety costs something; the hardware offload keeps it
    # cheaper than software sweeping; everything stays far from 100%.
    assert loads[TemporalSafetyMode.BASELINE] <= loads[TemporalSafetyMode.HARDWARE]
    assert loads[TemporalSafetyMode.HARDWARE] <= loads[TemporalSafetyMode.SOFTWARE]
    assert loads[TemporalSafetyMode.SOFTWARE] < 0.9
