#!/usr/bin/env python3
"""Scaled network-stack benchmark: zero-copy vs copying at N sessions.

Usage (from the repository root)::

    PYTHONPATH=src python tools/net_bench.py              # refresh BENCH_net.json
    PYTHONPATH=src python tools/net_bench.py --jobs 4     # same bytes, faster
    PYTHONPATH=src python tools/net_bench.py --conns 1,32 --rounds 2 -o -

Sweeps connection count across both receive disciplines of
:class:`repro.iot.sessions.NetPipeline` — the zero-copy
capability-narrowing path and the per-layer copying baseline — driving
each point with the seeded :class:`repro.iot.loadgen.NetLoadGen`
(mixed request/response + streaming shapes, corrupt and reordered
frames injected).  Every point self-checks: the pipeline must deliver
exactly the messages the generator emitted, with exactly the injected
drop counts, or the tool aborts — a benchmark of a broken stack is not
a benchmark.

The committed ``BENCH_net.json`` carries, per point, the
per-compartment cycle buckets, measured crossing overhead, queue
high-watermarks and the per-packet latency quantiles; per connection
count it derives the copy/zero-copy ratios.  ``per_packet_stack_
cycles`` excludes the cipher work (byte-identical in both disciplines
by construction), so its ratio isolates the data-movement path that
narrowing optimises; the total ratio is reported alongside.

Everything derives from simulated cycles and one seed, so the rendered
bytes are identical for any ``--jobs`` value: each worker computes one
(mode, connections) point independently and the document is assembled
in a fixed order.  ``tools/gate.py net`` is the regression gate.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.iot.loadgen import NetLoadGen, drive  # noqa: E402
from repro.iot.sessions import NetPipeline  # noqa: E402

#: Document version of ``BENCH_net.json``.
NET_BENCH_VERSION = 1

#: The default connection-count sweep (the last point is the scale the
#: acceptance criterion gates on).
DEFAULT_CONNS = (1, 32, 256, 2048)

#: Traffic rounds per point, by connection count: enough packets at
#: every scale to reach steady state without letting the big points
#: dominate the runtime.  Unlisted counts fall back to 4.
DEFAULT_ROUNDS = {1: 16, 32: 8, 256: 4, 2048: 2}

#: One seed for every generator; a point's stream is a pure function of
#: (mode, connections, rounds, seed).
SEED = 20260807

#: Fault-injection rates: low enough that drops stay a small correction
#: to throughput, high enough that both drop paths are exercised at
#: every sweep point.
CORRUPT_RATE = 0.02
REORDER_RATE = 0.02


class NetBenchError(Exception):
    """A sweep point that failed its own delivery cross-check."""


def run_point(zero_copy: bool, connections: int, rounds: int) -> dict:
    """One (mode, connections) sweep point, self-checked."""
    pipeline = NetPipeline(zero_copy=zero_copy)
    conn_ids = range(1, connections + 1)
    pipeline.establish_many(conn_ids)
    gen = NetLoadGen(
        conn_ids,
        seed=SEED,
        corrupt_rate=CORRUPT_RATE,
        reorder_rate=REORDER_RATE,
    )
    drive(pipeline, gen, rounds=rounds)

    report = pipeline.report()
    counters = report["counters"]
    mode = report["mode"]
    label = f"{mode} @ {connections} connections"
    if counters["packets_delivered"] != gen.expected_delivered:
        raise NetBenchError(
            f"{label}: delivered {counters['packets_delivered']} of "
            f"{gen.expected_delivered} expected messages"
        )
    if counters["payload_bytes_delivered"] != gen.expected_payload_bytes:
        raise NetBenchError(
            f"{label}: payload byte count diverged "
            f"({counters['payload_bytes_delivered']} vs "
            f"{gen.expected_payload_bytes})"
        )
    if counters["dropped_corrupt"] != gen.injected_corrupt:
        raise NetBenchError(
            f"{label}: corrupt drops {counters['dropped_corrupt']} != "
            f"{gen.injected_corrupt} injected"
        )
    if counters["dropped_out_of_order"] != gen.injected_reorder:
        raise NetBenchError(
            f"{label}: out-of-order drops "
            f"{counters['dropped_out_of_order']} != "
            f"{gen.injected_reorder} injected"
        )

    return {
        "mode": mode,
        "connections": connections,
        "rounds": rounds,
        "frames_emitted": gen.frames_emitted,
        "counters": counters,
        "queues": report["queues"],
        "latency": report["latency"],
        "steady_cycles": report["steady_cycles"],
        "stack_cycles": report["stack_cycles"],
        "per_packet_cycles": report["per_packet_cycles"],
        "per_packet_stack_cycles": report["per_packet_stack_cycles"],
        "crossing_cycles_per_packet": report["crossing_cycles_per_packet"],
    }


def _worker(task: "tuple[bool, int, int]") -> dict:
    zero_copy, connections, rounds = task
    return run_point(zero_copy, connections, rounds)


def _comparison(points: "list[dict]") -> "list[dict]":
    """Per connection count: what the copying baseline costs extra."""
    by_key = {(p["mode"], p["connections"]): p for p in points}
    rows = []
    for connections in sorted({p["connections"] for p in points}):
        zero = by_key.get(("zerocopy", connections))
        copy = by_key.get(("copy", connections))
        if zero is None or copy is None:
            continue
        rows.append(
            {
                "connections": connections,
                "copy_per_packet_stack_cycles": copy[
                    "per_packet_stack_cycles"
                ],
                "zerocopy_per_packet_stack_cycles": zero[
                    "per_packet_stack_cycles"
                ],
                "stack_cycles_ratio": round(
                    copy["per_packet_stack_cycles"]
                    / zero["per_packet_stack_cycles"],
                    4,
                ),
                "total_cycles_ratio": round(
                    copy["per_packet_cycles"] / zero["per_packet_cycles"], 4
                ),
                "allocs_per_packet_copy": round(
                    copy["counters"]["allocs"]
                    / copy["counters"]["packets_delivered"],
                    4,
                ),
                "allocs_per_packet_zerocopy": round(
                    zero["counters"]["allocs"]
                    / zero["counters"]["packets_delivered"],
                    4,
                ),
            }
        )
    return rows


def build_document(
    conns=DEFAULT_CONNS, rounds=None, jobs: int = 1
) -> dict:
    """The full sweep document; byte-identical for any ``jobs``."""
    rounds = rounds or DEFAULT_ROUNDS
    tasks = []
    for connections in sorted(conns):
        for zero_copy in (False, True):
            tasks.append(
                (zero_copy, connections, rounds.get(connections, 4))
            )
    if jobs > 1:
        with multiprocessing.Pool(processes=jobs) as pool:
            points = pool.map(_worker, tasks)
    else:
        points = [_worker(task) for task in tasks]
    points.sort(key=lambda p: (p["connections"], p["mode"]))
    return {
        "version": NET_BENCH_VERSION,
        "config": {
            "connections": sorted(conns),
            "rounds": {str(c): rounds.get(c, 4) for c in sorted(conns)},
            "seed": SEED,
            "corrupt_rate": CORRUPT_RATE,
            "reorder_rate": REORDER_RATE,
        },
        "sweep": points,
        "comparison": _comparison(points),
    }


def render_document(doc: dict) -> str:
    """The canonical byte form of ``BENCH_net.json``."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def summarize(doc: dict, out=sys.stdout) -> None:
    header = (
        f"{'conns':>6} {'copy stack/pkt':>14} {'zero stack/pkt':>14} "
        f"{'stack ratio':>11} {'total ratio':>11}"
    )
    print(header, file=out)
    for row in doc["comparison"]:
        print(
            f"{row['connections']:>6} "
            f"{row['copy_per_packet_stack_cycles']:>14} "
            f"{row['zerocopy_per_packet_stack_cycles']:>14} "
            f"{row['stack_cycles_ratio']:>11} "
            f"{row['total_cycles_ratio']:>11}",
            file=out,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="BENCH_net.json",
        help="output file, or '-' for stdout (default: %(default)s)",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="worker processes, one sweep point each (default: serial)",
    )
    parser.add_argument(
        "--conns", default="",
        help="comma-separated connection counts (default: "
        + ",".join(str(c) for c in DEFAULT_CONNS) + ")",
    )
    parser.add_argument(
        "--rounds", type=int, default=0,
        help="override the traffic rounds at every point (smoke runs)",
    )
    args = parser.parse_args(argv)

    conns = (
        tuple(int(c) for c in args.conns.split(",")) if args.conns
        else DEFAULT_CONNS
    )
    rounds = (
        {c: args.rounds for c in conns} if args.rounds else DEFAULT_ROUNDS
    )

    try:
        doc = build_document(conns=conns, rounds=rounds, jobs=args.jobs)
    except NetBenchError as exc:
        print(f"net_bench: {exc}", file=sys.stderr)
        return 1

    summarize(doc, out=sys.stderr)
    rendered = render_document(doc)
    if args.output == "-":
        sys.stdout.write(rendered)
    else:
        with open(args.output, "w") as fh:
            fh.write(rendered)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
