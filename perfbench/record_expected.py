#!/usr/bin/env python3
"""Write ``expected.json``, the checker's expectations, from one pass of each workload.

    python3 perfbench/record_expected.py

Records, per invocation label:

* ``verify``: the number of checks, which a later report may not fall below;
  for the negative control, its failing items (exactly one is allowed); for
  the default grid, the failing items that are the engine's documented
  defect: at zero couplings ``reduction_check`` asserts that the wreath and
  one-copy Dunkl operators differ, although both are the bare D_i.
* ``spectrum``: the eigenvalues of every chain that is not cyclic m = 1
  (those are checked against the Haldane-Shastry matrix instead), after the
  report's own oracle checks passed.
"""

from __future__ import annotations

import json

from checker import check_run
from run import BENCH, spawn
from workloads import CONTROL, WORKLOADS, invocations

DEFECT_RELATION = "wreath Dunkl differs from one-copy Dunkl at m>1"


def record_verify(label: str, report: dict) -> dict:
    failing = [{"relation": i["relation"], "params": i["params"]}
               for i in report["suite"] if not i["pass"]]
    entry = {"checks": len(report["suite"])}
    if label == CONTROL:
        if len(failing) != 1:
            raise SystemExit(f"negative control fails {len(failing)} checks, not 1")
        entry["expected_failures"] = failing
        return entry
    known = [f for f in failing if f["relation"] == DEFECT_RELATION
             and all(f["params"][c] == "0" for c in ("lambda", "mu", "rho"))]
    if len(known) != len(failing):
        raise SystemExit(f"{label}: failures beyond the documented defect")
    if known:
        entry["known_false_failures"] = known
    return entry


def main():
    expected = {}
    for workload in WORKLOADS:
        for run in spawn(invocations(workload, 0))["runs"]:
            report = json.loads(run["report"])
            label = run["label"]
            if report["command"] == "verify":
                expected[label] = record_verify(label, report)
                continue
            p = report["params"]
            if p["family"] == "cyclic" and p["m"] == 1:
                continue
            expected[label] = {"eigenvalues": report["eigenvalues"]}
            verdict = check_run(run, expected)
            if verdict["wrong"] or verdict["errors"]:
                raise SystemExit(f"{label}: {verdict}")
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
