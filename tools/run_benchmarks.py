#!/usr/bin/env python3
"""Run the Section-7 benchmark suite and merge the reproduced tables.

Usage (from the repository root)::

    PYTHONPATH=src python tools/run_benchmarks.py [-j N] [-o FILE]
        [--timeout SECONDS]
        [--modules bench_table3_coremark,bench_alloc_ibex]

Each benchmark module runs in its own supervised subprocess
(worker-per-benchmark) with ``PYTHONHASHSEED=0`` and its tables
redirected to a private file via ``REPRO_BENCH_TABLES``; the merged
``bench_output_tables.txt`` is assembled in sorted module order after
every worker finishes.  The output is therefore *byte-identical* for
any ``--jobs`` value — there is no wall-clock-dependent interleaving
and no timestamp in the file.

Worker supervision (shared with the fleet orchestrator,
:mod:`repro.fleet.procutil`): every module gets a wall-clock deadline
— a wedged benchmark is killed and reported instead of hanging the
suite forever — and a failing module's stderr/stdout tail is printed
under its name with a one-line rerun command, instead of a bare
interleaved dump.  Each module's wall-clock is printed as it finishes,
so a slow benchmark is visible without profiling the suite.

Every module's output is architectural (cycles, ratios), never host
time; simulator-speed numbers come from ``tools/bench_speed.py``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmarks")

sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.fleet.procutil import SupervisedResult, run_supervised, tail  # noqa: E402

#: Default per-module wall-clock budget.  The slowest module finishes
#: in well under a minute on CI's weakest runner; anything past this is
#: a hang, not a slow benchmark.
DEFAULT_TIMEOUT = 900.0


def discover_modules() -> list:
    return [
        name
        for name in sorted(os.listdir(BENCH_DIR))
        if name.startswith("bench_") and name.endswith(".py")
    ]


def run_module(
    module: str, tables_path: str, timeout: float
) -> SupervisedResult:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_BENCH_TABLES"] = tables_path
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        os.path.join("benchmarks", module),
        "-q",
        "-p",
        "no:cacheprovider",
    ]
    return run_supervised(cmd, timeout=timeout, env=env, cwd=ROOT)


def report_failure(module: str, result: SupervisedResult) -> None:
    """One readable block per failed module, not a raw dump."""
    if result.timed_out:
        headline = (
            f"TIMED OUT after {result.duration:.0f}s and was killed "
            "(raise --timeout if this host is genuinely that slow)"
        )
    else:
        headline = f"FAILED (exit {result.returncode})"
    print(f"\n{module}: {headline}", file=sys.stderr)
    for stream, text in (("stdout", result.stdout), ("stderr", result.stderr)):
        excerpt = tail(text, 25)
        if excerpt.strip():
            print(f"  --- {stream} tail ---", file=sys.stderr)
            for line in excerpt.splitlines():
                print(f"  {line}", file=sys.stderr)
    print(
        f"  reproduce alone: PYTHONPATH=src {os.path.basename(sys.executable)}"
        f" -m pytest benchmarks/{module} -q",
        file=sys.stderr,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker subprocesses to run concurrently (default: %(default)s)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default="bench_output_tables.txt",
        help="merged tables file (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT,
        help="per-module wall-clock timeout in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--modules",
        default="",
        help="comma-separated benchmark module names (default: all)",
    )
    args = parser.parse_args(argv)

    if args.modules:
        modules = []
        for name in args.modules.split(","):
            name = name.strip()
            if not name.endswith(".py"):
                name += ".py"
            if not os.path.exists(os.path.join(BENCH_DIR, name)):
                print(f"no such benchmark module: {name}", file=sys.stderr)
                return 2
            modules.append(name)
        modules.sort()
    else:
        modules = discover_modules()

    jobs = max(1, args.jobs)
    print(f"running {len(modules)} benchmark modules with {jobs} worker(s)")

    failures = {}
    with tempfile.TemporaryDirectory(prefix="bench-tables-") as tmpdir:
        tables = {m: os.path.join(tmpdir, m + ".tables") for m in modules}
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(run_module, m, tables[m], args.timeout): m
                for m in modules
            }
            for future in concurrent.futures.as_completed(futures):
                module = futures[future]
                result = future.result()
                if result.ok:
                    status = "ok"
                elif result.timed_out:
                    status = "TIMED OUT"
                else:
                    status = f"FAILED (exit {result.returncode})"
                print(f"  {module:<32} {status:<10} {result.duration:7.1f}s")
                if not result.ok:
                    failures[module] = result

        if failures:
            for module in sorted(failures):
                report_failure(module, failures[module])
            print(
                f"\n{len(failures)} of {len(modules)} benchmark module(s) "
                "failed; tables not written",
                file=sys.stderr,
            )
            return 1

        # Deterministic merge: fixed header, then each module's tables in
        # sorted module order (completion order above does not matter).
        parts = [
            "Section-7 reproduced tables and figures\n"
            "Regenerate with: make bench [JOBS=N]\n"
            "Modules: " + ", ".join(m[:-3] for m in modules) + "\n"
        ]
        for module in modules:
            with open(tables[module]) as fh:
                parts.append(fh.read())
        with open(args.output, "w") as fh:
            fh.write("".join(parts))

    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
