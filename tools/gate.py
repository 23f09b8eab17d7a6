#!/usr/bin/env python3
"""The regression gates: one registry entry per committed artifact.

Usage (from the repository root)::

    PYTHONPATH=src python tools/gate.py [NAME ...] [--jobs N]

With no names every gate in :data:`GATES` runs (``make check``); gates
always run in registry order.  An entry names a committed artifact and
rebuilds it from the producer code.  It fails on **drift** — the fresh
render differs from the committed bytes; the report names the first
divergent path (or line) and the refresh command — and on **a violated
claim**, checked on the committed and the fresh document alike.
``faults`` and ``simspeed`` compare statistically instead of byte for
byte.  ``--jobs`` speeds up the audit, net and tables rebuilds; no byte
depends on it.

Exit status: 0 every gate holds; 1 drift or a violated claim; 2 an
unusable (missing or malformed) artifact.  The worst gate decides.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, os.path.join(REPO, "tools"))

from repro.analysis.simspeed import MEASURERS  # noqa: E402
from repro.faultinject import run_campaign  # noqa: E402
from repro.faultinject.campaign import DEFAULT_SEED  # noqa: E402
from repro.fleet import merge_report, render_report, run_shard  # noqa: E402
from repro.obs.profile import diff_hot  # noqa: E402
from repro.obs.slo import PolicyError, render_slo  # noqa: E402

import bench_speed  # noqa: E402
import capaudit  # noqa: E402
import net_bench  # noqa: E402
import profile_report  # noqa: E402
import run_benchmarks  # noqa: E402
import slo_report  # noqa: E402
from fault_campaign import (  # noqa: E402
    CAMPAIGN_SIZES,
    escape_claims,
    reproduce_command,
)
from fleet_campaign import STOCK_PLAN, fleet_claims  # noqa: E402

#: faults: injections re-run, and the detection-rate drop allowed
#: against the committed 10,000-injection campaign.
FAULT_TOTAL = CAMPAIGN_SIZES["short"]
FAULT_TOLERANCE = 0.02
#: net: copying costs >= MIN_STACK_RATIO x the zero-copy per-packet
#: stack cycles at every point with >= SCALE_CONNECTIONS sessions.
MIN_STACK_RATIO = 2.0
SCALE_CONNECTIONS = 1024
#: fleet-profile: devices merged, and hot paths a drift report lists.
PROFILE_DEVICES = 3
PROFILE_TOP = 10
#: simspeed: allowed wall-clock regression, repetitions (best kept),
#: and the workloads a baseline refresh may not drop.
SPEED_THRESHOLD = 0.20
SPEED_REPEAT = 3
REQUIRED_WORKLOADS = ("alu_loop", "mem_loop", "table3_iter1", "coremark_1k")


class Unusable(Exception):
    """An artifact or gate input that cannot be read at all (exit 2)."""


class Violation(Exception):
    """A rebuild that failed its own self-check (exit 1)."""


def render_json(doc) -> str:
    """The canonical byte form of every committed JSON artifact."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def first_divergence(base, fresh, path: str = "") -> str:
    """Where two JSON-shaped values part ways, or ``""`` if they agree.

    Returns a dotted path (``aggregates.faults.escaped: baseline 0,
    fresh run 2``).  Types count as well as values: ``1`` and ``1.0``
    (or ``True`` and ``1``) compare equal in Python but render
    differently.
    """
    if isinstance(base, dict) and isinstance(fresh, dict):
        for key in sorted(set(base) | set(fresh)):
            here = f"{path}.{key}" if path else str(key)
            if key not in base:
                return f"{here}: only in fresh run"
            if key not in fresh:
                return f"{here}: only in baseline"
            found = first_divergence(base[key], fresh[key], here)
            if found:
                return found
        return ""
    if isinstance(base, list) and isinstance(fresh, list):
        for i, (b, f) in enumerate(zip(base, fresh)):
            found = first_divergence(b, f, f"{path}[{i}]")
            if found:
                return found
        if len(base) != len(fresh):
            return f"{path}: length {len(base)} vs {len(fresh)}"
        return ""
    if type(base) is not type(fresh) or base != fresh:
        return f"{path}: baseline {base!r}, fresh run {fresh!r}"
    return ""


@dataclass(frozen=True)
class Gate:
    """One committed artifact and everything needed to defend it."""

    name: str
    #: Artifact path, relative to the repository root.
    path: str
    #: ``build(jobs)``: the fresh document, from the producer code.
    build: Callable[[int], Any]
    #: The command that rewrites the artifact after an intentional change.
    refresh: str
    #: ``claims(doc)``: violated claims; runs on committed and fresh docs.
    claims: Callable[[Any], List[str]] = lambda doc: []
    render: Callable[[Any], str] = render_json
    parse: Callable[[str], Any] = json.loads
    #: ``explain(base, fresh)``: where a byte mismatch comes from.
    explain: Callable[[Any, Any], str] = first_divergence
    #: ``compare(base, fresh)``: replaces the byte comparison with a
    #: statistical one (problems, each naming what to run next).
    compare: Optional[Callable[[Any, Any], List[str]]] = None


def load_baseline(path: str, parse: Callable[[str], Any] = json.loads):
    """``(text, document)`` of a committed artifact, or :class:`Unusable`."""
    try:
        with open(path) as fh:
            text = fh.read()
        return text, parse(text)
    except (OSError, ValueError) as exc:
        raise Unusable(f"cannot read {path!r}: {exc}") from exc


def check(gate: Gate, jobs: int = 1, path: Optional[str] = None) -> List[str]:
    """Every problem with one gate's artifact; raises :class:`Unusable`."""
    path = path or os.path.join(REPO, gate.path)
    text, base = load_baseline(path, gate.parse)
    try:
        problems = [f"committed artifact: {p}" for p in gate.claims(base)]
    except (LookupError, TypeError, AttributeError) as exc:
        raise Unusable(f"{path!r} is malformed: {exc!r}") from exc
    try:
        fresh = gate.build(jobs)
    except Violation as exc:
        return problems + [f"rebuild failed: {exc}"]
    problems += [f"fresh run: {p}" for p in gate.claims(fresh)]
    if gate.compare is not None:
        problems += gate.compare(base, fresh)
    elif gate.render(fresh) != text:
        where = gate.explain(base, fresh) or "(byte-level only)"
        problems.append(
            f"{gate.path} drifted at: {where}\n"
            f"  if the change is intentional, refresh with: {gate.refresh}"
        )
    return problems


def run_gate(gate: Gate, jobs: int = 1, path: Optional[str] = None) -> int:
    """Run one gate and report it; returns its exit status."""
    tag = f"[{gate.name}]"
    try:
        problems = check(gate, jobs, path)
    except Unusable as exc:
        print(f"{tag} unusable artifact: {exc}", file=sys.stderr)
        print(f"{tag} regenerate it with: {gate.refresh}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"{tag} {problem}", file=sys.stderr)
    if problems:
        print(f"{tag} FAILED", file=sys.stderr)
        return 1
    print(f"{tag} ok: {gate.path} holds")
    return 0


def _fault_compare(base: dict, fresh: dict) -> List[str]:
    """Detection rate must not drop beyond the tolerance."""
    refresh = "make faults CAMPAIGN=full"
    if base["seed"] != fresh["seed"]:
        return [
            f"seed: baseline {base['seed']}, gate re-run {fresh['seed']}\n"
            f"  refresh with: {refresh}"
        ]
    base_rate = base.get("detection_rate", 1.0)
    rate = fresh["detection_rate"]
    if rate >= base_rate - FAULT_TOLERANCE:
        return []
    problems = [
        f"detection_rate: baseline {base_rate:.4f}, fresh run "
        f"({FAULT_TOTAL} injections) {rate:.4f}, tolerance {FAULT_TOLERANCE}\n"
        f"  if the change is intentional, refresh with: {refresh}"
    ]
    for fault_class, counts in sorted(fresh["by_class"].items()):
        stopped = counts["detected"] + counts["contained"]
        activated = stopped + counts["escaped"]
        if stopped < activated:
            problems.append(
                f"fault class {fault_class}: {stopped}/{activated} activated "
                f"faults stopped — inspect injections with: "
                f"{reproduce_command('INDEX', fresh['seed'])}"
            )
    return problems


def _build_fleet(jobs: int) -> dict:
    """The serial in-process run: no workers, no supervision."""
    results = {spec.shard_id: run_shard(spec) for spec in STOCK_PLAN.shards()}
    return merge_report(STOCK_PLAN, results, {})


def _fleet_explain(base: dict, fresh: dict) -> str:
    """The divergent path, plus the command that reruns its device."""
    where = first_divergence(base, fresh)
    match = re.match(r"devices\[(\d+)\]", where)
    if match and int(match.group(1)) < len(fresh["devices"]):
        device = fresh["devices"][int(match.group(1))]["device"]
        plan = STOCK_PLAN
        where += (
            "\n  single-device reproduction: PYTHONPATH=src python -c "
            "\"from repro.fleet import DeviceSpec, run_device; import json; "
            f"print(json.dumps(run_device(DeviceSpec({device}, {plan.seed}, "
            f"injections={plan.injections_per_device}, "
            f"alloc_ops={plan.alloc_ops})), indent=2, sort_keys=True))\""
        )
    return where


def _build_net(jobs: int) -> dict:
    try:
        return net_bench.build_document(jobs=jobs)
    except net_bench.NetBenchError as exc:
        raise Violation(str(exc)) from exc


def net_claims(doc: dict) -> List[str]:
    """Zero-copy stays >= MIN_STACK_RATIO x cheaper at scale."""
    rows = doc["comparison"]
    at_scale = [r for r in rows if r["connections"] >= SCALE_CONNECTIONS]
    if not at_scale:
        return [f"sweep has no point with >= {SCALE_CONNECTIONS} connections"]
    return [
        f"at {row['connections']} connections the copy/zero-copy "
        f"stack-cycle ratio is {row['stack_cycles_ratio']} "
        f"(floor: {MIN_STACK_RATIO})"
        for row in at_scale
        if row["stack_cycles_ratio"] < MIN_STACK_RATIO
    ]


def build_slo(
    jobs: int,
    policy: str = os.path.join(REPO, slo_report.POLICY),
    plan=STOCK_PLAN,
) -> dict:
    """The SLO report from a serial run (``jobs`` is unused: supervised
    results reach the report through ``slo_report.py --results-from``)."""
    try:
        return slo_report.build_report(policy, plan)
    except PolicyError as exc:
        raise Unusable(str(exc)) from exc


def slo_claims(doc: dict) -> List[str]:
    """Every objective holds (unknown rules evaluate as failures)."""
    return [
        f"SLO objective {result['rule']} violated: observed "
        f"{result['observed']} vs bound {result['bound']}"
        + (f" — {result['detail']}" if result.get("detail") else "")
        for result in doc["slo"]["results"]
        if not result["ok"]
    ]


def _profile_explain(base: dict, fresh: dict) -> str:
    churn = diff_hot(base, fresh, PROFILE_TOP) or [
        f"(no top-{PROFILE_TOP} churn; drift is in the cold tail or totals)"
    ]
    return "\n  ".join([first_divergence(base, fresh)] + churn)


def speed_claims(doc: dict) -> List[str]:
    return [
        f"workloads.{name}: required workload missing"
        for name in REQUIRED_WORKLOADS
        if name not in doc["workloads"]
    ]


def _speed_compare(base: dict, fresh: dict) -> List[str]:
    """Wall-clock per workload within SPEED_THRESHOLD of the baseline.

    Host-speed drift on shared machines exceeds the threshold, so the
    baseline is scaled by how much slower or faster this host runs a
    fixed simulator-shaped probe than the baseline host did.
    """
    scale = 1.0
    if base.get("probe_seconds"):
        scale = fresh["probe_seconds"] / base["probe_seconds"]
    problems = []
    for name in sorted(base["workloads"]):
        if name not in fresh["workloads"]:
            problems.append(f"workloads.{name}: missing from the measurement")
            continue
        limit = base["workloads"][name]["seconds"] * scale
        now = fresh["workloads"][name]["seconds"]
        if now > limit * (1.0 + SPEED_THRESHOLD) and name in MEASURERS:
            # One re-measure before declaring a regression: a single
            # co-tenant load burst costs more than the threshold, while
            # a genuine simulator slowdown reproduces on the spot.
            now = min(now, MEASURERS[name]()["seconds"])
        ratio = now / limit if limit > 0 else float("inf")
        if ratio > 1.0 + SPEED_THRESHOLD:
            problems.append(
                f"workloads.{name}.seconds: baseline {limit:.3f}s (host "
                f"probe {scale:.2f}x), now {now:.3f}s ({ratio - 1.0:+.1%}, "
                f"threshold {SPEED_THRESHOLD:.0%})\n"
                "  if the slowdown is intentional, refresh with: "
                "make bench-speed"
            )
    return problems


_BANNER = "=" * 72


def _build_tables(jobs: int) -> str:
    with tempfile.TemporaryDirectory(prefix="gate-tables-") as tmp:
        out = os.path.join(tmp, "tables.txt")
        if run_benchmarks.main(["--jobs", str(jobs), "-o", out]) != 0:
            raise Violation("a benchmark module failed (reported above)")
        with open(out) as fh:
            return fh.read()


def _title_pattern(node: ast.AST) -> str:
    """A regex matching every string a title expression can produce."""
    if isinstance(node, ast.Constant):
        return re.escape(str(node.value))
    if isinstance(node, ast.JoinedStr):
        return "".join(_title_pattern(value) for value in node.values)
    return ".*"


def emitting_module(title: str) -> Optional[str]:
    """The benchmark module whose ``emit(title, ...)`` prints ``title``."""
    for module in run_benchmarks.discover_modules():
        with open(os.path.join(run_benchmarks.BENCH_DIR, module)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "emit"
                and node.args
                and re.fullmatch(_title_pattern(node.args[0]), title)
            ):
                return module
    return None


def _tables_explain(base: str, fresh: str) -> str:
    """The first differing line, its table, and the module to rerun."""
    old, new = base.splitlines(), fresh.splitlines()
    pairs = enumerate(itertools.zip_longest(old, new), 1)
    number, (was, now) = next(
        ((n, pair) for n, pair in pairs if pair[0] != pair[1]), (0, (0, 0))
    )
    if not number:
        return ""
    lines = new if now is not None else old
    title = None
    for i in range(min(number, len(lines) - 1), 1, -1):
        if lines[i] == _BANNER and lines[i - 2] == _BANNER:
            title = lines[i - 1]
            break
    module = emitting_module(title) if title else None
    rerun = f"benchmarks/{module}" if module else "benchmarks/"
    return (
        f"line {number}: baseline {was!r}, fresh run {now!r}\n"
        f"  table: {title or '(file header)'}\n"
        f"  rerun it: PYTHONPATH=src python -m pytest {rerun} -q"
    )


#: The registry, in run order.  ``simspeed`` comes first so it times
#: the simulator in a fresh interpreter — no trace-JIT code cache or
#: heap left behind by another gate's rebuild — as ``make bench-speed``
#: does when it writes the baseline.
GATES = {
    gate.name: gate
    for gate in (
        Gate(
            "simspeed", "BENCH_simspeed.json",
            lambda jobs: bench_speed.measure(SPEED_REPEAT),
            "make bench-speed", claims=speed_claims, compare=_speed_compare,
        ),
        Gate(
            "audit", "AUDIT_baseline.json",
            lambda jobs: capaudit.build_audit(
                os.path.join(REPO, "AUDIT_policy.json"), jobs
            ),
            "make audit-refresh",
            claims=capaudit.enforce_gates, render=capaudit.render,
        ),
        Gate(
            "faults", "BENCH_faults.json",
            lambda jobs: run_campaign(FAULT_TOTAL, DEFAULT_SEED).to_dict(),
            "make faults CAMPAIGN=full",
            claims=escape_claims, compare=_fault_compare,
        ),
        Gate(
            "fleet", "BENCH_fleet.json", _build_fleet, "make fleet",
            claims=fleet_claims, render=render_report, explain=_fleet_explain,
        ),
        Gate(
            "net", "BENCH_net.json", _build_net, "make net",
            claims=net_claims, render=net_bench.render_document,
        ),
        Gate(
            "slo", "OBS_slo.json", build_slo, "make slo",
            claims=slo_claims, render=render_slo,
        ),
        Gate(
            "fleet-profile", "OBS_fleet_profile.json",
            lambda jobs: profile_report.fleet_profile(PROFILE_DEVICES)[1],
            "make fleet-profile",
            render=profile_report.render_profile, explain=_profile_explain,
        ),
        Gate(
            "tables", "bench_output_tables.txt", _build_tables, "make bench",
            render=str, parse=str, explain=_tables_explain,
        ),
    )
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "names", nargs="*", metavar="NAME",
        help=f"gates to run (default: all of {', '.join(GATES)})",
    )
    parser.add_argument("-j", "--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in GATES]
    if unknown:
        parser.error(f"unknown gate(s) {unknown}; choose from {list(GATES)}")
    names = [name for name in GATES if name in args.names or not args.names]
    return max([run_gate(GATES[name], max(1, args.jobs)) for name in names])


if __name__ == "__main__":
    raise SystemExit(main())
