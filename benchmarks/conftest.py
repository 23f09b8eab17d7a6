"""Shared benchmark configuration.

Every benchmark prints the reproduced table/figure (visible with
``make bench`` or ``pytest benchmarks/ -s``, and in the captured output)
and asserts the paper's *shape* — orderings, crossovers, rough factors —
rather than absolute numbers.
"""

import os

#: The four representative sizes of the paper's Table 4 (32 B, 1 KiB,
#: 32 KiB, 128 KiB), a subset of each core's full allocator sweep.
TABLE4_SIZES = (32, 1024, 32 * 1024, 128 * 1024)


def emit(title: str, body: str) -> None:
    """Print a reproduced artifact with a recognisable banner.

    When ``REPRO_BENCH_TABLES`` names a file, the artifact is also
    appended there — ``tools/run_benchmarks.py`` points each worker at
    its own file and merges them in module order, so the combined
    ``bench_output_tables.txt`` is byte-identical however many workers
    ran.
    """
    banner = "=" * 72
    block = f"\n{banner}\n{title}\n{banner}\n{body}\n"
    print(block)
    path = os.environ.get("REPRO_BENCH_TABLES")
    if path:
        with open(path, "a") as fh:
            fh.write(block)


def check_table4(cells) -> None:
    """Table 4's shape on either core, over its ``TABLE4_SIZES`` cells."""
    by = {(r.label, r.allocation_size): r.cycles for r in cells}

    for size in TABLE4_SIZES:
        assert by[("Metadata", size)] > by[("Baseline", size)]
        assert by[("Software", size)] > by[("Hardware", size)]

    # Revocation dominates at 128 KiB (a full sweep per allocation).
    assert by[("Software", 128 * 1024)] > 20 * by[("Baseline", 128 * 1024)]

    # The HWM helps at small sizes.
    small_saving = 1 - by[("Baseline (S)", 32)] / by[("Baseline", 32)]
    assert 0.05 < small_saving < 0.35
