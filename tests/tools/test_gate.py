"""The gate registry: every gate's failure paths, and the explainers.

Real rebuilds are the CI's job (``make check``); these tests swap a
gate's ``build`` for the committed document, so they exercise the
driver, the claims and the explainers in milliseconds.
"""

import dataclasses
import importlib.util
import json
import os
import sys

import pytest

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location(
        "gate", os.path.join(REPO, "tools", "gate.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["gate"] = module
    spec.loader.exec_module(module)
    return module


def _committed(gate, name):
    entry = gate.GATES[name]
    with open(os.path.join(REPO, entry.path)) as fh:
        return entry.parse(fh.read())


def _replaying(gate, name, doc):
    """The registry entry, with a rebuild that returns ``doc``."""
    return dataclasses.replace(gate.GATES[name], build=lambda jobs: doc)


def _bump(doc, *keys):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] += 1


def _tamper_tables(text):
    lines = text.split("\n")
    row = lines.index("Table 3: CoreMark results for our two cores") + 4
    lines[row] = lines[row].replace("1", "7", 1)
    return "\n".join(lines)


def _tamper_speed(doc):
    doc["workloads"]["alu_loop"]["seconds"] /= 100


#: Per gate: how to tamper a copy of the committed artifact, and what
#: the drift report must name (where, then the command to run).
TAMPER = {
    "simspeed": (
        _tamper_speed,
        ["workloads.alu_loop.seconds", "make bench-speed"],
    ),
    "audit": (
        lambda d: _bump(d, "images", "baremetal", "instructions"),
        ["images.baremetal.instructions", "make audit-refresh"],
    ),
    "faults": (
        lambda d: d.update(detection_rate=d["detection_rate"] + 0.5),
        ["detection_rate", "make faults CAMPAIGN=full"],
    ),
    "fleet": (
        lambda d: _bump(d, "devices", 1, "seed"),
        ["devices[1].seed", "make fleet", "single-device reproduction"],
    ),
    "net": (
        lambda d: _bump(d, "sweep", 0, "counters", "packets_delivered"),
        ["sweep[0].counters.packets_delivered", "make net"],
    ),
    "slo": (
        lambda d: _bump(d, "aggregate", "counters", "calls"),
        ["aggregate.counters.calls", "make slo"],
    ),
    "fleet-profile": (
        lambda d: _bump(d, "retired"),
        ["retired", "make fleet-profile"],
    ),
    "tables": (
        _tamper_tables,
        [
            "Table 3: CoreMark results for our two cores",
            "python -m pytest benchmarks/bench_table3_coremark.py -q",
        ],
    ),
}


def test_registry_covers_every_committed_artifact(gate):
    assert list(gate.GATES) == list(TAMPER)
    for entry in gate.GATES.values():
        assert os.path.exists(os.path.join(REPO, entry.path))


@pytest.mark.parametrize("name", sorted(TAMPER))
def test_committed_artifact_satisfies_its_claims(gate, name):
    assert gate.GATES[name].claims(_committed(gate, name)) == []


@pytest.mark.parametrize("name", sorted(TAMPER))
def test_missing_artifact_exits_2(gate, name, tmp_path, capsys):
    def never(jobs):
        raise AssertionError("a missing artifact must not be rebuilt")

    entry = dataclasses.replace(gate.GATES[name], build=never)
    assert gate.run_gate(entry, path=str(tmp_path / "absent")) == 2
    err = capsys.readouterr().err
    assert f"[{name}]" in err and entry.refresh in err


@pytest.mark.parametrize("name", ["audit", "fleet", "net", "slo"])
def test_malformed_artifact_exits_2(gate, name, tmp_path):
    path = tmp_path / "artifact.json"
    path.write_text("{}\n")
    entry = _replaying(gate, name, _committed(gate, name))
    assert gate.run_gate(entry, path=str(path)) == 2


@pytest.mark.parametrize("name", sorted(TAMPER))
def test_reproducing_artifact_passes(gate, name, capsys):
    entry = _replaying(gate, name, _committed(gate, name))
    assert gate.run_gate(entry) == 0
    assert f"[{name}] ok" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TAMPER))
def test_tampered_artifact_exits_1_and_explains(
    gate, name, tmp_path, capsys, monkeypatch
):
    # The speed gate re-measures a workload once before reporting it;
    # with no measurers it judges the replayed document alone.
    monkeypatch.setattr(gate, "MEASURERS", {})
    tamper, expected = TAMPER[name]
    entry = gate.GATES[name]
    doc = _committed(gate, name)
    if isinstance(doc, str):
        tampered = tamper(doc)
    else:
        tampered = json.loads(json.dumps(doc))
        tamper(tampered)
    path = tmp_path / os.path.basename(entry.path)
    path.write_text(entry.render(tampered))
    assert gate.run_gate(_replaying(gate, name, doc), path=str(path)) == 1
    err = capsys.readouterr().err
    assert f"[{name}]" in err
    for needle in expected:
        assert needle in err


# ----------------------------------------------------------------------
# Claim violations fail even when the artifact reproduces byte for byte.
# ----------------------------------------------------------------------


def _escaped_fault_doc(gate):
    doc = _committed(gate, "faults")
    doc["outcomes"]["escaped"] = 1
    doc["escaped_details"] = [
        {
            "index": 42,
            "fault_class": "tag_flip",
            "scenario": "stale capability survives revocation",
            "detail": "synthetic",
        }
    ]
    return doc


def _degraded_fleet_doc(gate):
    doc = _committed(gate, "fleet")
    doc["degraded"] = [{"shard": 3, "reason": "synthetic"}]
    return doc


def _slow_net_doc(gate):
    doc = _committed(gate, "net")
    doc["comparison"][-1]["stack_cycles_ratio"] = 1.5
    return doc


def _red_slo_doc(gate):
    doc = _committed(gate, "slo")
    doc["slo"]["results"][0]["ok"] = False
    doc["slo"]["passed"] = False
    return doc


def _unsafe_audit_doc(gate):
    doc = _committed(gate, "audit")
    doc["images"]["baremetal"]["violations"].append(
        {"category": "bounds", "index": 0, "mnemonic": "sw",
         "message": "synthetic"}
    )
    return doc


VIOLATIONS = {
    "faults": (_escaped_fault_doc, "fault_campaign.py --reproduce 42"),
    "fleet": (_degraded_fleet_doc, "quarantined shards [3]"),
    "net": (_slow_net_doc, "ratio is 1.5"),
    "slo": (_red_slo_doc, "SLO objective"),
    "audit": (_unsafe_audit_doc, "image baremetal: bounds violation"),
}


@pytest.mark.parametrize("name", sorted(VIOLATIONS))
def test_violated_claim_fails_even_when_bytes_match(
    gate, name, tmp_path, capsys
):
    make_doc, needle = VIOLATIONS[name]
    doc = make_doc(gate)
    entry = _replaying(gate, name, doc)
    path = tmp_path / "artifact.json"
    path.write_text(entry.render(doc))
    assert gate.run_gate(entry, path=str(path)) == 1
    err = capsys.readouterr().err
    assert "committed artifact" in err and needle in err


def test_fault_claims_replay_baseline_escapes(gate, monkeypatch):
    """A committed escape names the command that replays it — read from
    ``escaped_details``, the key the campaign writes — without running
    a campaign."""
    def never(*args, **kwargs):
        pytest.fail("claims must not run a campaign")

    monkeypatch.setattr(gate, "run_campaign", never)
    monkeypatch.setattr(sys.modules["fault_campaign"], "run_campaign", never)
    problems = gate.GATES["faults"].claims(_escaped_fault_doc(gate))
    assert len(problems) == 2
    assert "1 escaped injections" in problems[0]
    seed = _committed(gate, "faults")["seed"]
    assert (
        "PYTHONPATH=src python tools/fault_campaign.py --reproduce 42 "
        f"--seed {seed}"
    ) in problems[1]
    assert "fault class tag_flip" in problems[1]


def test_speed_claims_require_every_gated_workload(gate):
    doc = _committed(gate, "simspeed")
    del doc["workloads"]["coremark_1k"]
    assert gate.GATES["simspeed"].claims(doc) == [
        "workloads.coremark_1k: required workload missing"
    ]


def test_failed_rebuild_is_a_failure(gate, tmp_path, capsys):
    def broken(jobs):
        raise gate.Violation("a benchmark module failed")

    entry = dataclasses.replace(gate.GATES["tables"], build=broken)
    assert gate.run_gate(entry) == 1
    assert "rebuild failed: a benchmark module failed" in (
        capsys.readouterr().err
    )


def test_gates_run_in_registry_order_speed_first(gate, monkeypatch):
    ran = []
    monkeypatch.setattr(
        gate, "run_gate", lambda entry, jobs: ran.append(entry.name) or 0
    )
    assert gate.main(["tables", "audit", "simspeed"]) == 0
    assert ran == ["simspeed", "audit", "tables"]
    ran.clear()
    assert gate.main([]) == 0
    assert ran == list(gate.GATES) and ran[0] == "simspeed"


def test_producers_check_with_the_registry_claims(gate):
    """``fault_campaign.py --check`` and ``fleet_campaign.py --check``
    judge by the very functions the registry runs: one copy each."""
    faults, fleet = sys.modules["fault_campaign"], sys.modules["fleet_campaign"]
    assert gate.GATES["faults"].claims is faults.escape_claims
    assert gate.GATES["fleet"].claims is fleet.fleet_claims


def test_main_rejects_unknown_gates(gate):
    with pytest.raises(SystemExit) as exc:
        gate.main(["no-such-gate"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# The explainers.
# ----------------------------------------------------------------------


class TestFirstDivergence:
    def test_equal_documents_agree(self, gate):
        doc = {"a": [1, {"b": 2.5}], "c": "x"}
        assert gate.first_divergence(doc, json.loads(json.dumps(doc))) == ""

    def test_names_the_first_differing_path(self, gate):
        assert gate.first_divergence(
            {"a": {"b": [1, 2]}}, {"a": {"b": [1, 3]}}
        ) == "a.b[1]: baseline 2, fresh run 3"

    def test_missing_keys_and_lengths(self, gate):
        assert gate.first_divergence({"a": 1}, {}) == "a: only in baseline"
        assert gate.first_divergence({}, {"a": 1}) == "a: only in fresh run"
        assert gate.first_divergence([1], [1, 2]) == ": length 1 vs 2"

    def test_type_changes_diverge(self, gate):
        """Python compares these equal; their JSON renders do not."""
        assert gate.first_divergence({"a": 1}, {"a": 1.0}) == (
            "a: baseline 1, fresh run 1.0"
        )
        assert gate.first_divergence({"a": True}, {"a": 1}) == (
            "a: baseline True, fresh run 1"
        )


def test_every_committed_table_maps_to_its_module(gate):
    """The tables explainer can name the emitting module of every table
    in the committed file, in the file's module order."""
    with open(os.path.join(REPO, "bench_output_tables.txt")) as fh:
        lines = fh.read().splitlines()
    banner = "=" * 72
    titles = [
        lines[i - 1] for i in range(2, len(lines))
        if lines[i] == banner and lines[i - 2] == banner
    ]
    modules = [gate.emitting_module(title) for title in titles]
    assert None not in modules
    header = lines[2].removeprefix("Modules: ").split(", ")
    assert sorted(set(modules)) == [f"{m}.py" for m in header]
    assert modules == sorted(modules)


def test_tables_explainer_names_header_drift(gate):
    base = "Section-7 reproduced tables\nModules: a\n"
    assert gate.GATES["tables"].explain(
        base, base.replace("Modules: a", "Modules: b")
    ) == (
        "line 2: baseline 'Modules: a', fresh run 'Modules: b'\n"
        "  table: (file header)\n"
        "  rerun it: PYTHONPATH=src python -m pytest benchmarks/ -q"
    )
