#!/usr/bin/env python3
"""Evaluate ``OBS_slo_policy.json`` over the fleet aggregate.

Usage (from the repository root)::

    PYTHONPATH=src python tools/slo_report.py      # refresh OBS_slo.json
    PYTHONPATH=src python tools/slo_report.py --results-from DIR -o FILE

Folds the stock fleet plan's shard results into the deterministic
aggregate (:func:`repro.obs.pipeline.fleet_rollup`), evaluates the
declarative SLO policy over it (:func:`repro.obs.slo.evaluate_slo` —
unknown rules fail closed) and writes ``OBS_slo.json``.  Every number
derives from simulated cycles, so the bytes are identical however the
results were produced: serially in-process (the default), or harvested
from a complete checkpoint directory of the stock plan
(``--results-from DIR``) — e.g. one a supervised ``fleet_campaign.py
--jobs N --checkpoint-dir DIR`` run filled, across an interrupt/resume
split if need be.

``tools/gate.py slo`` gates the committed report.  Exit status: 0 every
objective holds; 1 an objective is violated (the report is still
written); 2 an unusable policy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.fleet import CheckpointStore, FleetPlan, run_shard  # noqa: E402
from repro.obs.pipeline import fleet_rollup  # noqa: E402
from repro.obs.slo import (  # noqa: E402
    PolicyError,
    load_policy,
    render_slo,
    slo_report,
)

from fleet_campaign import STOCK_PLAN  # noqa: E402

#: The committed declarative policy.
POLICY = "OBS_slo_policy.json"


def _checkpointed_results(plan: FleetPlan, results_from: str) -> dict:
    """Every shard result of ``plan`` from a checkpoint directory."""
    store = CheckpointStore(results_from)
    manifest = store._read_manifest() or {}
    if manifest.get("fingerprint") != plan.fingerprint():
        raise SystemExit(
            f"{results_from!r} holds no checkpoints of plan "
            f"{plan.fingerprint()!r} (manifest: {manifest or 'none'})"
        )
    results = store.completed()
    missing = [s.shard_id for s in plan.shards() if s.shard_id not in results]
    if missing:
        raise SystemExit(
            f"checkpoint dir {results_from!r} is incomplete: "
            f"missing shards {missing} — finish the run with --resume"
        )
    return results


def build_report(
    policy_path: str = POLICY, plan: FleetPlan = STOCK_PLAN, results_from=None
) -> dict:
    """The ``OBS_slo.json`` document; :class:`PolicyError` if the policy
    cannot be read or evaluated at all."""
    try:
        with open(policy_path) as fh:
            policy = load_policy(json.load(fh))
    except (OSError, ValueError) as exc:
        raise PolicyError(f"cannot read policy {policy_path!r}: {exc}") \
            from exc
    if results_from:
        results = _checkpointed_results(plan, results_from)
    else:
        results = {spec.shard_id: run_shard(spec) for spec in plan.shards()}
    return slo_report(plan, fleet_rollup(plan, results, {}), policy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--results-from", default=None, metavar="DIR",
        help="fold shard results from this checkpoint directory instead "
        "of recomputing them",
    )
    parser.add_argument(
        "--output", "-o", default="OBS_slo.json",
        help="report path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        report = build_report(results_from=args.results_from)
    except PolicyError as exc:
        print(exc, file=sys.stderr)
        return 2

    for result in report["slo"]["results"]:
        mark = "ok" if result["ok"] else "FAIL"
        params = " ".join(
            f"{key}={value}" for key, value in result["params"].items()
        )
        line = f"  [{mark}] {result['rule']}"
        if params:
            line += f" ({params})"
        line += f": observed {result['observed']} vs bound {result['bound']}"
        if result.get("detail"):
            line += f" — {result['detail']}"
        print(line)

    with open(args.output, "w") as fh:
        fh.write(render_slo(report))
    print(f"wrote {args.output}")
    return 0 if report["slo"]["passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
