"""Verdict checker: compares parsed reports with the benchmark's expectations.

Report bytes cannot be compared across processes (``config.fn`` embeds a
function address), so each report is parsed and its verdicts are checked:

* ``verify``: every suite item must pass, except the items that
  ``expected.json`` lists as ``expected_failures`` (the negative control's
  corrupted relation), which must be present and fail.  A report with fewer
  items than recorded has dropped checks; each one counts as wrong.
* ``spectrum``: one verdict per configuration.  The report must pass its own
  oracle checks, and its eigenvalues must match, within ``EIG_TOL``, the
  Haldane-Shastry matrix built here for cyclic m = 1 and the spectrum
  recorded in ``expected.json`` otherwise.

Items listed as ``known_false_failures`` are still wrong verdicts; they are
counted separately so a run can tell a recorded defect from a new one.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np

EIG_TOL = 1e-8
ORACLE_TOL = 1e-8
COMMUTANT_TOL = 1e-10


def verdict_key(item: dict) -> str:
    return item["relation"] + " " + json.dumps(item["params"], sort_keys=True)


@lru_cache(maxsize=None)
def haldane_shastry_eigenvalues(N: int, n: int) -> tuple:
    """Spectrum of -sum_{k<l} P_kl / (2 sin^2(pi (k-l) / N)) on (C^n)^N."""
    dim = n**N
    idx = np.arange(dim)
    place = [n ** (N - 1 - k) for k in range(N)]
    digit = [(idx // p) % n for p in place]
    H = np.zeros((dim, dim))
    for k in range(N):
        for l in range(k + 1, N):
            swapped = idx + (digit[l] - digit[k]) * place[k] + (digit[k] - digit[l]) * place[l]
            H[swapped, idx] -= 1.0 / (2.0 * math.sin(math.pi * (k - l) / N) ** 2)
    return tuple(np.linalg.eigvalsh(H))


def check_run(run: dict, expected: dict) -> dict:
    """Verdict summary of one CLI invocation recorded by the worker.

    Returns ``checks`` (verdicts produced), ``attempted``, ``wrong`` (one
    message per wrong verdict), ``known`` (how many of those are recorded
    defects) and ``errors`` (the invocation raised, exited 2, or its exit
    code disagrees with its report).
    """
    label = run["label"]
    exp = expected.get(label, {})
    out = {"checks": 0, "attempted": exp.get("checks", 1), "wrong": [], "known": 0,
           "errors": []}
    if run["raised"] or run["rc"] not in (0, 1):
        out["errors"].append(f"{label}: exit {run['rc']} {run['raised'] or run['stderr']}")
        return out
    try:
        report = json.loads(run["report"])
    except json.JSONDecodeError as exc:
        out["errors"].append(f"{label}: unparseable report ({exc})")
        return out
    if run["rc"] != (0 if report.get("pass") else 1):
        out["errors"].append(f"{label}: exit {run['rc']} but report pass={report.get('pass')}")
    if report.get("command") == "verify":
        _check_verify(report, exp, out, label)
    else:
        _check_spectrum(report, exp, out, label)
    return out


def _check_verify(report: dict, exp: dict, out: dict, label: str):
    items = report["suite"]
    out["checks"] = len(items)
    out["attempted"] = max(len(items), exp.get("checks", 0))
    if report["pass"] != all(i["pass"] for i in items):
        out["errors"].append(f"{label}: report pass flag disagrees with its items")
    should_fail = {verdict_key(i) for i in exp.get("expected_failures", [])}
    known = {verdict_key(i) for i in exp.get("known_false_failures", [])}
    seen = set()
    for item in items:
        key = verdict_key(item)
        seen.add(key)
        if item["pass"] == (key in should_fail):
            out["wrong"].append(f"{label}: {key} {'holds' if item['pass'] else 'fails'}")
            out["known"] += key in known
    for key in sorted(should_fail - seen):
        out["wrong"].append(f"{label}: expected failure missing: {key}")
    missing = exp.get("checks", 0) - len(items)
    out["wrong"] += [f"{label}: dropped check"] * max(missing, 0)


def _check_spectrum(report: dict, exp: dict, out: dict, label: str):
    out["checks"] = 1
    p = report["params"]
    checks = report["checks"]
    reasons = []
    if not report["pass"]:
        reasons.append("report fails")
    if report["hermiticity_residual"] > COMMUTANT_TOL:
        reasons.append("not Hermitian")
    for name in ("oracle_max_deviation", "charpoly_residual"):
        if name in checks and not checks[name] < ORACLE_TOL:
            reasons.append(f"{name} = {checks[name]}")
    for name, value in checks.get("commutant", {}).items():
        if not value < COMMUTANT_TOL:
            reasons.append(f"{name} commutant = {value}")
    if p["family"] == "cyclic" and p["m"] == 1:
        reference = haldane_shastry_eigenvalues(p["N"], p["n"])
    else:
        reference = exp.get("eigenvalues")
    vals = report["eigenvalues"]
    if reference is None:
        out["errors"].append(f"{label}: no reference spectrum recorded")
    elif len(vals) != len(reference):
        reasons.append(f"{len(vals)} eigenvalues, expected {len(reference)}")
    else:
        dev = float(np.max(np.abs(np.sort(vals) - np.sort(reference))))
        if not dev <= EIG_TOL:
            reasons.append(f"spectrum deviates by {dev:.3g}")
    if reasons:
        out["wrong"].append(f"{label}: " + "; ".join(reasons))
