"""The net benchmark tool and its regression gate."""

import dataclasses
import importlib.util
import json
import os
import sys

import pytest

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Tiny sweep so the module stays fast (the full sweep is CI's job).
SMALL_CONNS = (2, 4)
SMALL_ROUNDS = {2: 2, 4: 2}


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "tools", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def net_bench():
    return _load("net_bench")


@pytest.fixture(scope="module")
def check_net(net_bench):
    return _load("gate").GATES["net"]


@pytest.fixture(scope="module")
def gate(check_net):
    return sys.modules["gate"]


@pytest.fixture(scope="module")
def small_doc(net_bench):
    return net_bench.build_document(
        conns=SMALL_CONNS, rounds=SMALL_ROUNDS, jobs=1
    )


class TestNetBench:
    def test_sweep_covers_both_modes(self, small_doc):
        keys = [
            (p["mode"], p["connections"]) for p in small_doc["sweep"]
        ]
        assert keys == [
            ("copy", 2), ("zerocopy", 2), ("copy", 4), ("zerocopy", 4)
        ]

    def test_serial_and_parallel_bytes_identical(self, net_bench, small_doc):
        parallel = net_bench.build_document(
            conns=SMALL_CONNS, rounds=SMALL_ROUNDS, jobs=2
        )
        assert net_bench.render_document(
            parallel
        ) == net_bench.render_document(small_doc)

    def test_rendered_form_is_canonical(self, net_bench, small_doc):
        rendered = net_bench.render_document(small_doc)
        assert rendered.endswith("\n")
        assert json.dumps(
            json.loads(rendered), indent=2, sort_keys=True
        ) + "\n" == rendered

    def test_comparison_rows_carry_ratios(self, small_doc):
        for row in small_doc["comparison"]:
            assert row["stack_cycles_ratio"] > 1.0
            assert row["allocs_per_packet_copy"] > (
                row["allocs_per_packet_zerocopy"]
            )

    def test_cli_writes_file(self, net_bench, tmp_path):
        out = tmp_path / "net.json"
        rc = net_bench.main(
            ["--conns", "2,4", "--rounds", "2", "-o", str(out)]
        )
        assert rc == 0
        assert json.loads(out.read_text())["version"] == (
            net_bench.NET_BENCH_VERSION
        )


class TestCommittedBaseline:
    def test_committed_baseline_meets_the_claim(self, check_net):
        with open(os.path.join(REPO, "BENCH_net.json")) as fh:
            baseline = json.load(fh)
        assert check_net.claims(baseline) == []

    def test_committed_sweep_reaches_scale(self):
        with open(os.path.join(REPO, "BENCH_net.json")) as fh:
            baseline = json.load(fh)
        assert max(baseline["config"]["connections"]) >= 1024


class TestGate:
    @pytest.fixture()
    def small_baseline(self, net_bench, small_doc, tmp_path):
        path = tmp_path / "BENCH_net.json"
        path.write_text(net_bench.render_document(small_doc))
        return path

    def test_missing_baseline_exits_2(self, gate, check_net, tmp_path):
        rc = gate.run_gate(check_net, path=str(tmp_path / "absent.json"))
        assert rc == 2

    def test_tampered_counter_detected(
        self, gate, check_net, net_bench, small_doc, tmp_path, capsys
    ):
        doc = json.loads(net_bench.render_document(small_doc))
        doc["sweep"][0]["counters"]["packets_delivered"] += 1
        path = tmp_path / "tampered.json"
        path.write_text(net_bench.render_document(doc))
        small = dataclasses.replace(
            check_net,
            build=lambda jobs: net_bench.build_document(
                conns=SMALL_CONNS, rounds=SMALL_ROUNDS, jobs=jobs
            ),
        )
        rc = gate.run_gate(small, path=str(path))
        assert rc == 1
        err = capsys.readouterr().err
        assert "sweep[0].counters.packets_delivered" in err
        assert "make net" in err

    def test_ratio_floor_enforced(self, check_net):
        doc = {
            "comparison": [
                {"connections": 2048, "stack_cycles_ratio": 1.4},
            ]
        }
        problems = check_net.claims(doc)
        assert len(problems) == 1
        assert "1.4" in problems[0]

    def test_no_at_scale_point_is_a_problem(self, check_net):
        doc = {"comparison": [{"connections": 64, "stack_cycles_ratio": 9.0}]}
        assert check_net.claims(doc)
