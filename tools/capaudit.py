#!/usr/bin/env python3
"""The signing-time capability audit (paper sections 3-4).

Usage (from the repository root)::

    PYTHONPATH=src python tools/capaudit.py              # print the audit
    PYTHONPATH=src python tools/capaudit.py --output AUDIT_baseline.json
    PYTHONPATH=src python tools/capaudit.py --jobs 4     # parallel verify

One run produces the complete static story of the repo's images:

* **verifier** — every audited image (``repro.verify.images``) run
  through the abstract interpreter: violations (must be zero on stock
  images), per-category obligation counts, and proven-property counts;
* **linkage** — the stock system's linkage report (exports, sealed
  import tokens, capability grants classified against the memory map)
  evaluated against the declarative policy in ``AUDIT_policy.json``;
* **crosscheck** — the static-vs-dynamic falsifiability gate over the
  code-splice mutants.

The output is deterministic — byte-identical across runs and across
``--jobs`` values — and committed as ``AUDIT_baseline.json``, which
``tools/gate.py audit`` gates.

Exit status 1 if any safety gate fails (a violation, a policy
violation, or an inconsistent crosscheck); the document is still
written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

AUDIT_VERSION = 1


def _verify_one(name: str) -> "tuple[str, dict]":
    """Verify one audited image (worker entry point for --jobs)."""
    from repro.verify import AUDITED_IMAGES, verify_image

    return name, verify_image(AUDITED_IMAGES[name]()).to_dict()


def _verify_all(jobs: int) -> "dict[str, dict]":
    from repro.verify import AUDITED_IMAGES

    names = sorted(AUDITED_IMAGES)
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(min(jobs, len(names))) as pool:
            results = pool.map(_verify_one, names)
    else:
        results = [_verify_one(name) for name in names]
    # Sorted merge: the output order never depends on completion order.
    return {name: result for name, result in sorted(results)}


def build_audit(policy_path: str, jobs: int = 1) -> dict:
    """Compute the full audit document (deterministic)."""
    from repro.machine import System
    from repro.verify import audit_image, evaluate_policy, run_crosscheck

    with open(policy_path) as fh:
        policy = json.load(fh)

    system = System.build()
    linkage = audit_image(system.switcher, system.loader.memory_map)
    policy_violations = [
        v.to_dict() for v in evaluate_policy(linkage, policy)
    ]

    return {
        "version": AUDIT_VERSION,
        "images": _verify_all(jobs),
        "linkage": linkage.to_dict(),
        "policy": {
            "file": os.path.basename(policy_path),
            "violations": policy_violations,
        },
        "crosscheck": run_crosscheck(),
    }


def render(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def enforce_gates(doc: dict) -> "list[str]":
    """The absolute claims: what must hold for any committable audit."""
    problems = []
    for name, result in doc["images"].items():
        for violation in result["violations"]:
            problems.append(
                f"image {name}: {violation['category']} violation at "
                f"index {violation['index']} ({violation['mnemonic']}): "
                f"{violation['message']}"
            )
    for violation in doc["policy"]["violations"]:
        problems.append(
            f"policy {violation['rule']}: {violation['subject']}: "
            f"{violation['message']}"
        )
    crosscheck = doc["crosscheck"]
    if not crosscheck["consistent"]:
        problems.append(
            "crosscheck: a statically-clean mutant escaped dynamically "
            "(the static-auditability claim is falsified)"
        )
    if crosscheck["statically_flagged"] < 1:
        problems.append(
            "crosscheck: no code-splice mutant was statically flagged"
        )
    return problems


def _summarise(doc: dict) -> str:
    lines = ["capability audit", "----------------"]
    for name, result in sorted(doc["images"].items()):
        obligations = sum(result["obligations"].values())
        proven = sum(result["proven"].values())
        lines.append(
            f"  {name}: {result['instructions']} instrs, "
            f"{len(result['violations'])} violations, "
            f"{proven} proven, {obligations} obligations"
        )
    lines.append(
        f"  linkage: {len(doc['linkage']['exports'])} exports, "
        f"{len(doc['linkage']['imports'])} imports, "
        f"{len(doc['policy']['violations'])} policy violations"
    )
    crosscheck = doc["crosscheck"]
    lines.append(
        f"  crosscheck: {crosscheck['statically_flagged']}/"
        f"{len(crosscheck['variants'])} splice mutants statically flagged, "
        f"consistent={crosscheck['consistent']}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--policy",
        default="AUDIT_policy.json",
        help="declarative policy file (default: %(default)s)",
    )
    parser.add_argument(
        "--output",
        help="write the audit document to this path",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel image-verification workers (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    doc = build_audit(args.policy, jobs=max(1, args.jobs))
    print(_summarise(doc))

    problems = enforce_gates(doc)
    for problem in problems:
        print(problem, file=sys.stderr)

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(render(doc))
        print(f"wrote {args.output}")

    if problems:
        print("capability audit failed", file=sys.stderr)
        return 1
    print("capability audit holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
