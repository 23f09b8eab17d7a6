"""The parallel benchmark runner's reproducibility contract.

``tools/run_benchmarks.py`` fans benchmark modules out to worker
subprocesses; the merged ``bench_output_tables.txt`` must be
byte-identical whether one worker ran or many — sorted module order,
private per-worker table files, no timestamps, no wall-clock-dependent
interleaving.  Uses the two fastest deterministic modules so the test
stays cheap; the full-suite equivalence was verified the same way when
the committed tables file was generated.
"""

import glob
import importlib.util
import inspect
import os
import subprocess
import sys

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
RUNNER = os.path.join(ROOT, "tools", "run_benchmarks.py")
BENCH_DIR = os.path.join(ROOT, "benchmarks")
MODULES = "bench_encoding_precision,bench_table2_area_power"


def _run(jobs, output):
    proc = subprocess.run(
        [
            sys.executable,
            RUNNER,
            "--jobs",
            str(jobs),
            "--modules",
            MODULES,
            "-o",
            output,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(output, "rb") as fh:
        return fh.read()


def test_parallel_output_byte_identical_to_serial(tmp_path):
    serial = _run(1, str(tmp_path / "serial.txt"))
    parallel = _run(2, str(tmp_path / "parallel.txt"))
    assert parallel == serial
    # The tables actually made it into the file (not a trivially-empty
    # equality) and the header is the deterministic one.
    assert serial.startswith(b"Section-7 reproduced tables")
    assert serial.count(b"=" * 72) >= 4


def test_unknown_module_rejected(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            RUNNER,
            "--modules",
            "bench_does_not_exist",
            "-o",
            str(tmp_path / "out.txt"),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "no such benchmark module" in proc.stderr


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_benchmark_takes_the_timing_fixture(monkeypatch):
    """Every benchmark computes its table directly: none asks for
    pytest-benchmark's ``benchmark`` fixture, so the suite needs no
    timing plugin and nothing is computed only to be timed."""
    # The modules import their shared helpers as plain ``conftest``.
    shared = _load(os.path.join(BENCH_DIR, "conftest.py"), "conftest")
    monkeypatch.setitem(sys.modules, "conftest", shared)
    paths = sorted(glob.glob(os.path.join(BENCH_DIR, "bench_*.py")))
    assert paths
    for path in paths:
        module = _load(path, os.path.basename(path)[:-3])
        for name, value in vars(module).items():
            if name.startswith("test_") and inspect.isfunction(value):
                params = inspect.signature(value).parameters
                assert "benchmark" not in params, f"{module.__name__}::{name}"
