#!/usr/bin/env python3
"""Per-compartment cycle attribution and hot-PC report (``make profile``).

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_report.py [--kernel list]
    PYTHONPATH=src python tools/profile_report.py --fleet 3 \
        [--output OBS_fleet_profile.json]

Runs the reference telemetry workload (malloc/free churn + forced
revocation sweep + one Table-3 CoreMark kernel) on a telemetry-enabled
system and prints:

* the per-context cycle breakdown from the
  :class:`~repro.obs.profile.CycleAttributor` — every elapsed cycle
  lands in exactly one bucket, so the total must reconcile with
  ``CoreModel.cycles`` (the report says so, and exits non-zero if not);
* the hot-PC histogram from the retire-hook
  :class:`~repro.obs.profile.PCProfiler`;
* switcher/error-handler overhead counters from the metrics registry.

``--fleet N`` instead runs the workload per device (kernels rotating
through list/matrix/state), merges the per-device hot-PC histograms by
integer addition into one fleet profile, and writes it as JSON.  The
profile is a pure function of the plan knobs, so the committed
``OBS_fleet_profile.json`` is a byte-reproducible baseline;
``tools/gate.py fleet-profile`` regenerates it and fails with a top-N
hot-path diff if the fresh profile drifts — the hot-path regression
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.machine import CoreKind  # noqa: E402
from repro.obs import render_attribution, render_hot_pcs  # noqa: E402
from repro.obs.profile import (  # noqa: E402
    hot_from_dict,
    merge_profile_dicts,
    profile_to_dict,
)
from repro.obs.workload import (  # noqa: E402
    run_fleet_workloads,
    run_traced_workload,
)

#: The default committed fleet-profile baseline.
FLEET_BASELINE = "OBS_fleet_profile.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--core",
        choices=[kind.value for kind in CoreKind],
        default=CoreKind.IBEX.value,
        help="core timing model (default: ibex)",
    )
    parser.add_argument(
        "--kernel",
        choices=["list", "matrix", "state"],
        default="list",
        help="CoreMark kernel for the profiled phase (default: list)",
    )
    parser.add_argument(
        "--rounds", type=int, default=40, help="malloc/free rounds (default: 40)"
    )
    parser.add_argument(
        "--iterations", type=int, default=1, help="kernel iterations (default: 1)"
    )
    parser.add_argument(
        "--top", type=int, default=10, help="hot PCs to show (default: 10)"
    )
    parser.add_argument(
        "--fleet", type=int, default=0, metavar="N",
        help="merge N devices into one fleet profile (0: single device)",
    )
    parser.add_argument(
        "--output", "-o", default=FLEET_BASELINE,
        help="fleet profile JSON path (with --fleet; default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.fleet:
        return _fleet(args)

    result = run_traced_workload(
        core=CoreKind(args.core),
        rounds=args.rounds,
        kernel=args.kernel,
        iterations=args.iterations,
    )
    system = result["system"]
    profiler = result["profiler"]
    totals = system.obs.attributor.snapshot()
    core_cycles = system.core_model.cycles

    print(f"profile: core={args.core} kernel={args.kernel} rounds={args.rounds}")
    print()
    print("per-context cycle attribution:")
    print(render_attribution(totals, core_cycles=core_cycles))
    print()
    print(f"hot PCs (kernel phase, {profiler.retired:,} instructions retired):")
    print(render_hot_pcs(profiler, n=args.top))
    print()
    diff = system.stats_diff(result["before"])
    switcher = diff.get("switcher", {})
    print("switcher overhead (this run):")
    for key in sorted(switcher):
        print(f"  {key:<28} {switcher[key]:>12,}")
    print()
    spans = len(system.obs.tracer)
    print(f"spans recorded: {spans:,} (dropped: {system.obs.tracer.dropped:,})")

    if sum(totals.values()) != core_cycles:
        print("error: attribution does not reconcile with the core model")
        return 1
    return 0


def render_profile(profile: dict) -> str:
    """The byte form of ``OBS_fleet_profile.json``."""
    return json.dumps(profile, indent=2, sort_keys=True) + "\n"


def fleet_profile(
    devices: int,
    core: CoreKind = CoreKind.IBEX,
    rounds: int = 40,
    iterations: int = 1,
) -> "tuple[list, dict]":
    """The merged fleet hot-PC profile: ``(kernels run, profile)``."""
    workloads = run_fleet_workloads(
        devices=devices, core=core, rounds=rounds, iterations=iterations,
    )
    profile = merge_profile_dicts(
        profile_to_dict(result["profiler"], image=f"traced-{result['kernel']}")
        for _, result in workloads
    )
    return [result["kernel"] for _, result in workloads], profile


def _fleet(args) -> int:
    """Merged fleet profile: regenerate and write it."""
    kernels, fresh = fleet_profile(
        args.fleet, CoreKind(args.core), args.rounds, args.iterations
    )

    print(
        f"fleet profile: {args.fleet} devices, core={args.core}, "
        f"kernels={kernels}, {fresh['retired']:,} instructions retired"
    )
    print(f"hot PCs (fleet, top {args.top}):")
    rows = hot_from_dict(fresh, args.top)
    top = rows[0][1] or 1
    for key, cycles, hits, text in rows:
        bar = "#" * max(1, round(cycles / top * 30))
        print(f"  {key:<24} {cycles:>10,} cyc  {hits:>8,} hits  {bar}  {text}")

    with open(args.output, "w") as fh:
        fh.write(render_profile(fresh))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
