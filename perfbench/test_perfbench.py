"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

They use small invocations that finish in a few seconds, not the workloads.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import pytest

from checker import check_run
from run import ROOT, SRC, spawn
from tracer import Tracer, binding_snapshot, changed_bindings
from workloads import CONTROL

HS_POINT = "spectrum --family cyclic --N 3 --m 1 --n 2"
RECORDED_POINT = "spectrum --family cyclic --N 3 --m 2 --n 2"
SMALL = [CONTROL, HS_POINT, RECORDED_POINT]


def small_invocations():
    return [(label, label.split() + ["--seed", "0"]) for label in SMALL]


@pytest.fixture(scope="module")
def expected():
    return json.loads((ROOT / "perfbench" / "expected.json").read_text())


@pytest.fixture(scope="module")
def runs():
    return {r["label"]: r for r in spawn(small_invocations())["runs"]}


def test_declared_per_layer_metrics_exist():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    produced = set(Tracer().metrics()) | {"trace.overhead"}
    assert {m["name"] for m in declared} <= produced


def test_traced_run_restores_every_binding():
    sys.path.insert(0, str(SRC))
    import wreathdunkl.cli as cli
    from wreathdunkl import dunkl, opalg, spinrep

    before = binding_snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert dunkl.op_compose is not before[("wreathdunkl.opalg", "op_compose")]
        assert spinrep.op_compose is opalg.op_compose
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(HS_POINT.split())
    finally:
        tracer.restore()
    assert changed_bindings(before, binding_snapshot()) == []
    assert tracer.counts["cli.cmd_spectrum.calls"] == 1
    assert tracer.counts["spinrep.diagonalize_hermitian.calls"] == 1


def test_two_traced_runs_give_identical_counts(tmp_path):
    def counts(i):
        result = spawn(small_invocations(), True, tmp_path / f"trace{i}.json")
        assert result["unrestored"] == []
        return {k: v for k, v in result["trace"].items()
                if not (k.endswith(".s") or k.endswith("_s"))}

    first, second = counts(1), counts(2)
    assert first["opalg.op_compose.calls"] > 0
    assert first["polyalg.divide_exact.calls"] > 0
    assert first == second


def test_checker_accepts_the_real_reports(runs, expected):
    for run in runs.values():
        verdict = check_run(run, expected)
        assert verdict["wrong"] == [] and verdict["errors"] == [], verdict


def doctored(run, edit):
    run = copy.deepcopy(run)
    report = json.loads(run["report"])
    edit(report)
    run["report"] = json.dumps(report)
    return run


def test_checker_flags_a_flipped_verdict(runs, expected):
    def flip(report):
        item = next(i for i in report["suite"] if i["pass"])
        item["pass"] = False

    verdict = check_run(doctored(runs[CONTROL], flip), expected)
    assert len(verdict["wrong"]) == 1 and verdict["known"] == 0


def test_checker_flags_a_control_that_passes(runs, expected):
    def heal(report):
        for item in report["suite"]:
            item["pass"] = True

    verdict = check_run(doctored(runs[CONTROL], heal), expected)
    assert len(verdict["wrong"]) == 1


def test_checker_flags_a_dropped_check(runs, expected):
    verdict = check_run(doctored(runs[CONTROL], lambda r: r["suite"].pop(0)), expected)
    assert verdict["wrong"] == [f"{CONTROL}: dropped check"]


@pytest.mark.parametrize("label", [HS_POINT, RECORDED_POINT])
def test_checker_flags_a_moved_eigenvalue(runs, expected, label):
    def move(report):
        report["eigenvalues"][0] += 1e-6

    verdict = check_run(doctored(runs[label], move), expected)
    assert len(verdict["wrong"]) == 1 and "deviates" in verdict["wrong"][0]


def test_checker_counts_an_exit_2_as_an_error(runs, expected):
    run = dict(runs[HS_POINT], rc=2, report="")
    assert check_run(run, expected)["errors"]
