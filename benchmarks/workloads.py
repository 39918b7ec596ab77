"""Benchmark workloads and the check of `verify` reports against the stored reference.

Each workload is a fixed list of bundled model descriptors run by `verify`
in one fresh process.  NOTES.md records why each workload exists.
"""
from __future__ import annotations

import json
import math
import os

# (model name, parameters); the descriptors never depend on the seed
WORKLOADS: dict[str, tuple[tuple[str, dict], ...]] = {
    "corpus": (
        ("pinning", {"n": 6}),
        ("heisenberg-ferro", {"n": 2}),
        ("heisenberg-ferro", {"n": 8}),
        ("aklt", {"n": 4}),
        ("aklt", {"n": 6, "periodic": True}),
        ("toric-code", {"lx": 2, "ly": 2}),
        ("parent-random", {"n": 6, "d": 3, "bond": 2, "seed": 2}),
        ("parent-random", {"n": 8, "d": 2, "bond": 1, "seed": 4}),
        ("parent-random", {"n": 8, "d": 2, "bond": 2, "seed": 7}),
    ),
    "aklt-iterative": (
        ("aklt", {"n": 10}),
        ("aklt", {"n": 10, "periodic": True}),
    ),
    "heisenberg-dense": (
        ("heisenberg-ferro", {"n": 11}),
    ),
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Records whose measured value comes from states drawn with the run seed
# (convergence start, pyramid states, norm-energy samples, product start).
SEEDED_RECORDS = frozenset({"dl-convergence", "convergence-monotone", "pyramid-identity",
                            "norm-energy", "rank-growth"})
# Measured on ground_basis[0], which is an arbitrary vector of a degenerate
# ground space: the solver, not the model, decides which one.
BASIS_RECORDS = frozenset({"entropy-range"})

# Admits solver swaps that agree to about 1e-9; the absolute part matches the
# program's own eigenpair residual tolerance (1e-8).
REL_TOL = 1e-7
ABS_TOL = 1e-8


def run_config(name: str, parameters: dict, seed: int, out_dir: str) -> dict:
    """The `verify` configuration document for one model; the seed is its only input."""
    return {
        "schema_version": 1,
        "model": {"name": name, "parameters": parameters},
        "command": "verify",
        "parameters": {"seed": seed},
        "output": {"dir": out_dir, "format": "csv"},
    }


def reference_entry(report: dict) -> dict:
    """What the reference keeps of one report: every record's name and status,
    and the measured value where it is a property of the model alone."""
    degenerate = _degeneracy(report) > 1
    checks = []
    for check in report["checks"]:
        entry = {"name": check["name"], "status": check["status"]}
        if not _measured_varies(check["name"], degenerate):
            entry["measured"] = check["measured"]
        checks.append(entry)
    return {"model": report["meta"]["model"], "checks": checks}


def _degeneracy(report: dict) -> float:
    for check in report["checks"]:
        if check["name"] == "ground-degeneracy":
            return check["measured"]
    return 1.0


def _measured_varies(name: str, degenerate: bool) -> bool:
    return name in SEEDED_RECORDS or (degenerate and name in BASIS_RECORDS)


def report_mismatches(report: dict, reference: dict) -> list[str]:
    """Differences between a report and its reference entry; empty when it matches."""
    got = reference_entry(report)
    if got["model"] != reference["model"]:
        return [f"model {got['model']!r} != {reference['model']!r}"]
    names = [c["name"] for c in got["checks"]]
    want_names = [c["name"] for c in reference["checks"]]
    if names != want_names:
        return [f"{reference['model']}: records {names} != {want_names}"]
    problems = []
    for check, want in zip(got["checks"], reference["checks"]):
        label = f"{reference['model']} {check['name']}"
        if check["status"] != want["status"]:
            problems.append(f"{label}: status {check['status']} != {want['status']}")
        if ("measured" in check) != ("measured" in want):
            problems.append(f"{label}: measured value kept on one side only")
        elif "measured" in check and not _close(check["measured"], want["measured"]):
            problems.append(f"{label}: measured {check['measured']!r} != {want['measured']!r}")
    return problems


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)
