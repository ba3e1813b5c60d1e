"""Correctness gates for every timed operation.

Each gate returns a list of problems; an empty list means the output is
correct.  The gates read only the program's output and the inputs the
benchmark generated, never the package itself.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

STRATEGIES_ALL = ["explicit", "operational", "creation", "recurrence", "genfun", "hypergeom"]


def _terms_dict(terms: list[dict], drop: str | None = None) -> dict:
    """{(z, w): Fraction} of a JSON term list; terms using `drop` are skipped."""
    out = {}
    for term in terms:
        exps = term["exps"]
        if drop and exps.get(drop):
            continue
        if set(exps) - {"z", "w", drop}:
            raise ValueError(f"unexpected variables in {exps}")
        out[(exps.get("z", 0), exps.get("w", 0))] = Fraction(int(term["num"]), int(term["den"]))
    return out


def audit_problems(stdout: bytes, rc, expected_reports: int, expected_digest: str) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != expected_digest:
        problems.append(f"stdout sha256 {digest} != stored {expected_digest}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    if doc["summary"]["effective_fail"] != 0:
        problems.append(f"effective_fail = {doc['summary']['effective_fail']}")
    if len(doc["reports"]) != expected_reports:
        problems.append(f"{len(doc['reports'])} reports, expected {expected_reports}")
    if doc["heat"]["failures"]:
        problems.append(f"heat failures: {doc['heat']['failures'][:3]}")
    return problems


def compute_problems(stdout: str, rc, n: int, m: int) -> list[str]:
    """All strategies agree, and the leading term is z^n w^m with coefficient 1."""
    if rc != 0:
        return [f"exit code {rc}"]
    results = json.loads(stdout)["results"]
    names = [result["strategy"] for result in results]
    if names != STRATEGIES_ALL:
        return [f"strategies {names}"]
    problems = []
    first = results[0]["terms"]
    for result in results[1:]:
        if result["terms"] != first:
            problems.append(f"{result['strategy']} differs from explicit")
    leading = {"exps": {k: v for k, v in (("z", n), ("w", m)) if v}, "num": "1", "den": "1"}
    if not first or first[0] != leading:
        problems.append(f"leading term {first[:1]} is not z^{n} w^{m}")
    return problems


def heat_problems(stdout: str, rc, datum: dict) -> list[str]:
    """The datum parsed as generated, the residual is zero, and u(t=0) is the datum."""
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(stdout)
    problems = []
    if _terms_dict(doc["initial"]["terms"]) != datum:
        problems.append("initial datum differs from the generated one")
    if doc["residual"]["terms"]:
        problems.append(f"residual has {len(doc['residual']['terms'])} terms")
    if _terms_dict(doc["solution"]["terms"], drop="t") != datum:
        problems.append("solution at t = 0 differs from the datum")
    return problems
