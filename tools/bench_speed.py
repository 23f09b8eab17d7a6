#!/usr/bin/env python3
"""Measure simulator speed and write ``BENCH_simspeed.json``.

Usage (from the repository root)::

    PYTHONPATH=src python tools/bench_speed.py [-o BENCH_simspeed.json]

The JSON records, per workload, host wall-clock seconds (and MIPS where
instruction counts are meaningful), alongside the pre-optimization seed
baseline for the before/after story.  The committed copy is the baseline
``tools/gate.py simspeed`` gates against.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.analysis.simspeed import (  # noqa: E402
    SEED_BASELINE,
    host_speed_probe,
    measure_all,
)


def measure(repeat: int = 3) -> dict:
    """Best-of-``repeat`` seconds per workload, plus the host-speed probe
    (run on both sides of the window, min kept: it should describe this
    host at its quietest, as the best-of-repeat minima do)."""
    probe = host_speed_probe()
    best: dict = {}
    for _ in range(max(1, repeat)):
        for name, result in measure_all().items():
            if name not in best or result["seconds"] < best[name]["seconds"]:
                best[name] = result
    return {
        "probe_seconds": min(probe, host_speed_probe()),
        "workloads": best,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o",
        "--output",
        default="BENCH_simspeed.json",
        help="where to write the JSON report (default: %(default)s)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="measurement repetitions; the best (minimum) time is kept",
    )
    args = parser.parse_args(argv)

    measured = measure(args.repeat)
    best = measured["workloads"]
    report = {
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "python": platform.python_version(),
        **measured,
        "seed_baseline": SEED_BASELINE,
        "speedup_vs_seed": {
            "table3_iter1": round(
                SEED_BASELINE["table3_iter1_seconds"]
                / best["table3_iter1"]["seconds"],
                2,
            ),
            "alu_loop": round(
                best["alu_loop"]["mips"] / SEED_BASELINE["alu_loop_mips"], 2
            ),
            "mem_loop": round(
                best["mem_loop"]["mips"] / SEED_BASELINE["mem_loop_mips"], 2
            ),
            # coremark_1k has no seed-era number (the workload post-dates
            # the seed); it is gated purely against the committed
            # baseline by tools/gate.py simspeed.
        },
    }
    with open(args.output, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"wrote {args.output}")
    for name, result in sorted(best.items()):
        mips = f"  {result['mips']:.3f} MIPS" if "mips" in result else ""
        print(f"  {name:<14} {result['seconds']:.3f}s{mips}")
    print(
        "  speedup vs seed: "
        f"table3 {report['speedup_vs_seed']['table3_iter1']}x, "
        f"alu {report['speedup_vs_seed']['alu_loop']}x, "
        f"mem {report['speedup_vs_seed']['mem_loop']}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
