#!/usr/bin/env python3
"""Run a seeded fault-injection campaign and write the result JSON.

Usage (from the repository root)::

    PYTHONPATH=src python tools/fault_campaign.py [--campaign short|full]
        [--total N] [--seed N] [--output BENCH_faults.json] [--check]

``--campaign full`` (10,000 injections) refreshes the committed
``BENCH_faults.json``; ``--campaign short`` (750 injections) is the
fast configuration, the size ``tools/gate.py faults`` re-runs.  The
output is fully deterministic for a given ``(seed, total)`` pair — no
timestamps, no environment — so the committed file is bit-reproducible.

``--check`` additionally exits non-zero if any injection escaped, so
the runner doubles as a gate.  Every escape is reported with its fault
class, the campaign seed, and a one-line ``--reproduce`` command that
replays exactly that injection.

``--reproduce INDEX`` replays a single injection from the seeded
stream (the campaign is deterministic, so injection *k* of a
``(seed, total)`` campaign is injection *k* of any campaign with the
same seed and ``total > k``) and prints the full record — the
debugging entry point the escape messages hand you.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.faultinject import run_campaign  # noqa: E402
from repro.faultinject.campaign import DEFAULT_SEED  # noqa: E402

CAMPAIGN_SIZES = {"short": 750, "full": 10_000}


def reproduce_command(index: int, seed: int) -> str:
    """The exact command that replays injection ``index`` alone."""
    return (
        f"PYTHONPATH=src python tools/fault_campaign.py "
        f"--reproduce {index} --seed {seed}"
    )


def escape_claims(doc: dict) -> list:
    """Zero escaped injections (``--check``, ``tools/gate.py faults``);
    each ``escaped_details`` entry comes with its replay command."""
    seed, escaped = doc["seed"], doc["outcomes"]["escaped"]
    if escaped == 0:
        return []
    problems = [f"{escaped} escaped injections (must be 0)"]
    for entry in doc.get("escaped_details", []):
        problems.append(
            f"escaped injection #{entry['index']} [fault class "
            f"{entry['fault_class']}, seed {seed}] {entry['scenario']}: "
            f"{entry.get('detail') or '(no detail)'}\n"
            f"    replay: {reproduce_command(entry['index'], seed)}"
        )
    return problems


def reproduce(index: int, seed: int) -> int:
    """Replay injection ``index`` of the seeded stream and print it."""
    if index < 0:
        print("--reproduce index must be >= 0", file=sys.stderr)
        return 2
    result = run_campaign(total=index + 1, seed=seed)
    record = result.records[index]
    print(
        f"injection #{record.index} (seed {seed})\n"
        f"  fault class:  {record.fault_class.value}\n"
        f"  scenario:     {record.scenario}\n"
        f"  outcome:      {record.outcome.value}\n"
        f"  detail:       {record.detail or '(none)'}\n"
        f"  wrong result: {record.wrong_result}"
    )
    return 1 if record.outcome.value == "escaped" else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--campaign",
        choices=sorted(CAMPAIGN_SIZES),
        default="full",
        help="preset injection count (default: %(default)s)",
    )
    parser.add_argument(
        "--total",
        type=int,
        default=None,
        help="override the preset injection count",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="campaign RNG seed (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_faults.json",
        help="result JSON path (default: %(default)s); '-' for stdout",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any injection escaped",
    )
    parser.add_argument(
        "--reproduce",
        type=int,
        default=None,
        metavar="INDEX",
        help="replay a single injection from the seeded stream and "
        "print its full record (exit 1 if it escapes)",
    )
    args = parser.parse_args(argv)

    if args.reproduce is not None:
        return reproduce(args.reproduce, args.seed)

    total = args.total if args.total is not None else CAMPAIGN_SIZES[args.campaign]

    def progress(done: int, planned: int) -> None:
        print(f"  {done}/{planned} injections", file=sys.stderr)

    result = run_campaign(total=total, seed=args.seed, progress=progress)
    doc = result.to_dict()
    payload = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w") as fh:
            fh.write(payload)
        print(f"wrote {args.output}")

    tally = result.tally()
    print(
        f"{result.total} injections: {tally['masked']} masked, "
        f"{tally['detected']} detected, {tally['contained']} contained, "
        f"{tally['escaped']} ESCAPED ({result.wrong_results} wrong results)"
    )
    problems = escape_claims(doc) if args.check else []
    for problem in problems:
        print(f"GATE: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
