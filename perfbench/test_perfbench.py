"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import layers, run  # noqa: E402
from perfbench.workloads import WORKLOADS, NetSessions, digest, sliced_cpu  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def smoke_pass(name, traced, seed=7):
    return run.run_pass(WORKLOADS[name](smoke=True), seed, traced)


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert UNIT.match(unit), (name, unit)
    assert not set(run.END_TO_END) & set(run.PER_LAYER)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == table


def test_install_and_uninstall_restore_every_attribute():
    before = layers.wrapped_attributes()
    tracer = layers.install()
    try:
        during = layers.wrapped_attributes()
        assert all(b[2] is not d[2] for b, d in zip(before, during))
    finally:
        tracer.uninstall()
    assert [a[2] for a in layers.wrapped_attributes()] == [b[2] for b in before]


def test_traced_pass_restores_attributes_and_matches_untraced_digest():
    before = [a[2] for a in layers.wrapped_attributes()]
    untraced = smoke_pass("alloc_sweep", traced=False)
    traced = smoke_pass("alloc_sweep", traced=True)
    assert [a[2] for a in layers.wrapped_attributes()] == before
    assert traced.digest == untraced.digest
    assert traced.layer["heap.malloc_calls"] == traced.result.alloc_pairs
    assert traced.layer["switcher.calls"] == 2 * traced.result.alloc_pairs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_size_passes_output_checks(name):
    untraced = smoke_pass(name, traced=False)
    assert untraced.result.ops >= 1
    assert untraced.result.failures == []
    assert untraced.result.sim_cycles > 0 and untraced.result.device_s > 0
    traced = smoke_pass(name, traced=True)
    assert traced.result.failures == []
    assert traced.digest == untraced.digest
    assert set(traced.layer) | set(traced.result.figures) <= set(run.PER_LAYER)


def test_iot_paper_run_is_e6_and_passes_its_checks():
    workload = WORKLOADS["iot_app"]()
    reference = workload.paper_run()
    assert reference.failures == []
    assert reference.device_s == workload.E6_DURATION_MS / 1000
    assert set(reference.figures) == {"accuracy.e6_cpu_load_err_pct"}
    assert WORKLOADS["alloc_sweep"]().paper_run() is None


def test_held_out_seed_gives_net_run_of_the_same_shape():
    tuned = smoke_pass("net_sessions", traced=False, seed=1)
    held_out = smoke_pass("net_sessions", traced=False, seed=987654321)
    assert held_out.result.failures == []
    assert held_out.result.ops == tuned.result.ops
    for a, b in zip(tuned.result.records, held_out.result.records):
        assert a.keys() == b.keys()
        assert a["counters"].keys() == b["counters"].keys()
        assert a["sessions"] == b["sessions"] == NetSessions.SMOKE_SESSIONS
        # The shape mix is fixed: every seed delivers the same messages.
        assert a["counters"]["packets_delivered"] == b["counters"]["packets_delivered"]
    assert held_out.digest != tuned.digest  # the seed does drive traffic
    assert set(tuned.result.figures) == set(held_out.result.figures)


def test_same_seed_same_inputs():
    assert digest(smoke_pass("net_sessions", False, 3).result.records) == \
        digest(smoke_pass("net_sessions", False, 3).result.records)


@pytest.mark.parametrize("config", ["rv32e", "cheriot+filter"])
def test_sliced_coremark_run_matches_one_call(config):
    from repro.pipeline import CoreKind
    from repro.workloads import coremark

    plain = coremark.run_coremark(CoreKind.IBEX, config, 2)
    cpu_class, steps = coremark.CPU, []
    coremark.CPU = sliced_cpu(cpu_class, steps.append, 500)
    try:
        sliced = coremark.run_coremark(CoreKind.IBEX, config, 2)
    finally:
        coremark.CPU = cpu_class
    assert (sliced.cycles, sliced.instructions, sliced.crc) == \
        (plain.cycles, plain.instructions, plain.crc)
    assert len(steps) == -(-plain.instructions // 500)
