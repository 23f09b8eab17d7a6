"""The SLO producer and its gate: regenerate, byte-compare, fail closed."""

import dataclasses
import importlib.util
import json
import os
import sys

import pytest

from repro.fleet import CheckpointStore, FleetPlan, run_shard
from repro.obs.slo import render_slo

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Small plan so the module stays fast (the stock plan is CI's job).
SMALL_PLAN = FleetPlan(
    devices=4, shard_size=2, injections_per_device=1, alloc_ops=4
)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(REPO, "tools", f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def slo_report():
    return _load("slo_report")


@pytest.fixture(scope="module")
def gate():
    return _load("gate")


def _policy(tmp_path, *rules):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"version": 1, "rules": list(rules)}))
    return str(policy)


def _small_gate(gate, policy):
    """The registry's SLO gate, rebuilt over the small plan and ``policy``."""
    return dataclasses.replace(
        gate.GATES["slo"],
        build=lambda jobs: gate.build_slo(jobs, policy, SMALL_PLAN),
    )


@pytest.fixture()
def small_baseline(slo_report, tmp_path):
    """A freshly generated small-plan baseline + its policy."""
    policy = _policy(
        tmp_path,
        {"rule": "fault-escapes", "max": 0},
        {"rule": "degraded-ceiling", "max_fraction": 0.0},
    )
    return policy, _report_through_the_tool(slo_report, policy, tmp_path, 0)


def _report_through_the_tool(slo_report, policy, tmp_path, rc):
    """Run the producer's CLI over the small plan and ``policy``: it
    must exit ``rc`` (0 every objective holds, 1 one is violated) and
    write the report either way."""
    report = slo_report.build_report(policy, SMALL_PLAN)
    assert report["slo"]["passed"] is (rc == 0)
    out = tmp_path / "OBS_slo.json"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            slo_report, "build_report", lambda results_from=None: report
        )
        assert slo_report.main(["-o", str(out)]) == rc
    assert out.read_text() == render_slo(report)
    return out


def _checkpoints(tmp_path, shards):
    store = CheckpointStore(str(tmp_path / "ckpt"))
    store.bind(SMALL_PLAN, resume=False)
    for spec in SMALL_PLAN.shards()[:shards]:
        store.commit(spec.shard_id, run_shard(spec))
    return str(tmp_path / "ckpt")


class TestGate:
    def test_regenerated_baseline_passes_the_check(
        self, gate, small_baseline
    ):
        policy, baseline = small_baseline
        small = _small_gate(gate, policy)
        assert gate.run_gate(small, path=str(baseline)) == 0

    def test_tampered_baseline_is_drift(
        self, gate, small_baseline, capsys
    ):
        policy, baseline = small_baseline
        doc = json.loads(baseline.read_text())
        doc["aggregate"]["counters"]["calls"] += 1
        baseline.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        small = _small_gate(gate, policy)
        assert gate.run_gate(small, path=str(baseline)) == 1
        assert "aggregate.counters.calls" in capsys.readouterr().err

    def test_violated_objective_fails_even_when_bytes_match(
        self, gate, slo_report, tmp_path
    ):
        """A policy that cannot hold produces a failing report; the
        producer exits 1 (still writing it), and the gate must flag it
        even if the committed baseline records the same failure (a red
        baseline is not a green gate)."""
        policy = _policy(
            tmp_path,
            {"rule": "throughput-floor", "min_calls_per_kcycle": 10**6},
        )
        baseline = _report_through_the_tool(slo_report, policy, tmp_path, 1)
        small = _small_gate(gate, policy)
        assert gate.run_gate(small, path=str(baseline)) == 1

    def test_unknown_rule_fails_closed_through_the_tool(
        self, gate, slo_report, tmp_path
    ):
        policy = _policy(tmp_path, {"rule": "made-up-objective"})
        baseline = _report_through_the_tool(slo_report, policy, tmp_path, 1)
        violations = gate.GATES["slo"].claims(json.loads(baseline.read_text()))
        assert len(violations) == 1
        assert "made-up-objective" in violations[0]

    def test_missing_baseline_is_usage_error(
        self, gate, tmp_path
    ):
        policy = _policy(tmp_path, {"rule": "fault-escapes", "max": 0})
        small = _small_gate(gate, policy)
        assert gate.run_gate(small, path=str(tmp_path / "nope.json")) == 2

    def test_unreadable_policy_is_usage_error(
        self, gate, small_baseline, tmp_path
    ):
        _, baseline = small_baseline
        small = _small_gate(gate, str(tmp_path / "absent.json"))
        assert gate.run_gate(small, path=str(baseline)) == 2

    def test_results_from_checkpoints(
        self, gate, slo_report, small_baseline, tmp_path
    ):
        """Shard results harvested from a checkpoint dir gate
        identically to a fresh serial rebuild."""
        policy, baseline = small_baseline
        ckpt = _checkpoints(tmp_path, shards=2)
        resumed = dataclasses.replace(
            gate.GATES["slo"],
            build=lambda jobs: slo_report.build_report(
                policy, SMALL_PLAN, results_from=ckpt
            ),
        )
        assert gate.run_gate(resumed, path=str(baseline)) == 0

    def test_incomplete_checkpoints_are_refused(
        self, slo_report, small_baseline, tmp_path
    ):
        policy, _ = small_baseline
        ckpt = _checkpoints(tmp_path, shards=1)  # shard 1 missing
        with pytest.raises(SystemExit):
            slo_report.build_report(policy, SMALL_PLAN, results_from=ckpt)


class TestCommittedArtifacts:
    def test_committed_slo_baseline_is_fresh_and_green(self, gate):
        """The repo's own OBS_slo.json must reproduce and pass."""
        assert gate.run_gate(gate.GATES["slo"]) == 0
