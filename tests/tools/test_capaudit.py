"""The audit artifact: deterministic, parallel-safe, gate-enforcing."""

import importlib.util
import json
import os
import sys

import pytest

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="module")
def capaudit():
    spec = importlib.util.spec_from_file_location(
        "capaudit", os.path.join(REPO, "tools", "capaudit.py")
    )
    module = importlib.util.module_from_spec(spec)
    # Register before exec so multiprocessing can pickle the module's
    # worker function by qualified name.
    sys.modules["capaudit"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def doc(capaudit):
    return capaudit.build_audit(os.path.join(REPO, "AUDIT_policy.json"))


def test_audit_document_shape(doc):
    assert set(doc) == {"version", "images", "linkage", "policy", "crosscheck"}
    assert set(doc["images"]) == {"baremetal", "coremark", "regwalk", "switcher"}


def test_audit_is_deterministic(capaudit, doc):
    again = capaudit.build_audit(os.path.join(REPO, "AUDIT_policy.json"))
    assert capaudit.render(doc) == capaudit.render(again)


def test_parallel_jobs_produce_identical_bytes(capaudit, doc):
    parallel = capaudit.build_audit(
        os.path.join(REPO, "AUDIT_policy.json"), jobs=3
    )
    assert capaudit.render(doc) == capaudit.render(parallel)


def test_committed_baseline_matches_a_fresh_run(capaudit, doc):
    baseline_path = os.path.join(REPO, "AUDIT_baseline.json")
    with open(baseline_path) as fh:
        committed = fh.read()
    assert committed == capaudit.render(doc), (
        "AUDIT_baseline.json is stale — refresh with: make audit-refresh"
    )


def test_gates_pass_on_the_stock_audit(capaudit, doc):
    assert capaudit.enforce_gates(doc) == []


def test_gates_catch_injected_violations(capaudit, doc):
    bad = json.loads(capaudit.render(doc))
    bad["images"]["baremetal"]["violations"].append(
        {
            "category": "bounds",
            "index": 0,
            "mnemonic": "sw",
            "message": "synthetic",
        }
    )
    bad["policy"]["violations"].append(
        {"rule": "mmio-allowlist", "subject": "x", "message": "synthetic"}
    )
    bad["crosscheck"]["consistent"] = False
    problems = capaudit.enforce_gates(bad)
    assert len(problems) == 3
