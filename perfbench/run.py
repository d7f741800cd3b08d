#!/usr/bin/env python3
"""Layered benchmark of the wreathdunkl CLI.

    python3 perfbench/run.py --workload verify [--seed 0] [--seconds 55] [--trace 0]

Run from a checkout of the repository; the engine is imported from its
``src`` directory, nothing is installed.  Each pass of a workload is one
fresh interpreter (``worker.py``) that imports ``wreathdunkl.cli`` and calls
``cli.main`` for every invocation the workload lists (``workloads.py``),
with ``--seed`` appended.  Passes repeat while the next one is expected to
end within ``--seconds``; there is always at least one.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``: mean time of a pass's invocations, run in order after set-up.
  A mean, not a median: on a shared machine the speed switches between
  regimes that last seconds, and a median of a few passes jumps between
  them where the mean averages over them;
* ``setup_s``: median time from starting an interpreter to
  ``wreathdunkl.cli`` imported, over set-up-only interpreters started
  before and after the passes, and every pass;
* ``peak_rss_mb``: median peak resident memory of a pass's process;
* ``checks``: verdicts produced by one pass.

With ``--trace 1`` it makes one untraced and one traced pass and reports the
per-layer metrics of BENCHMARK.json from the traced one (see ``tracer.py``);
``trace.overhead`` is traced over untraced ``wall_s``.  Spans are written to
``.perfbench_out/`` in the checkout.

Every report is checked by ``checker.py``.  Above the last line the run
prints an environment stamp and a table of every metric by name and unit,
including ``wrong_verdicts`` and ``failed_frac``; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``failed`` counts wrong verdicts plus invocations that raised or exited 2;
``correct`` is false when any wrong verdict is not a recorded defect of the
engine (``known_false_failures`` in ``expected.json``) or an invocation
failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import check_run
from workloads import WORKLOADS, invocations

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SPAWNS = 3  # before the passes, and again after them
PASS_TIMEOUT_S = 170
# One BLAS thread (never more than nproc): the machine may be shared, and a
# fixed count keeps eigh timings comparable between runs.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set orders, so traced counts repeat
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def spawn(invs, trace: bool = False, trace_file: Path | None = None) -> dict:
    """Run one worker to completion and return its result."""
    spec = {"invocations": invs, "trace": trace, "src": str(SRC),
            "trace_file": str(trace_file) if trace_file else None}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
            capture_output=True, text=True, env=worker_env(), cwd=ROOT,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["setup_done"] - t0
    result["elapsed"] = time.monotonic() - t0
    return result


def judge(p: dict, expected: dict) -> dict:
    """Sum the checker's verdicts over the invocations of one pass."""
    v = {"checks": 0, "attempted": 0, "wrong": [], "known": 0, "errors": []}
    for run in p["runs"]:
        r = check_run(run, expected)
        for key in v:
            v[key] += r[key]
    v["failed"] = len(v["wrong"]) + len(v["errors"])
    v["correct"] = len(v["wrong"]) == v["known"] and not v["errors"]
    return v


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def env_stamp(worker: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": worker["numpy"],
        "scipy": version("scipy"),
        "kernel_backend": worker["kernel_backend"],
        "compiled_kernels_built": worker["compiled_kernels_built"],
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Passes of one workload, and the set-up times measured around them."""
    invs = invocations(workload, seed)
    setups = [spawn([])["setup_s"] for _ in range(SETUP_SPAWNS)]
    if trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        passes = [spawn(invs), spawn(invs, True, trace_file)]
    else:
        passes = []
        start = time.monotonic()
        while True:
            passes.append(spawn(invs))
            typical = statistics.median(p["elapsed"] for p in passes)
            if time.monotonic() - start + typical > seconds:
                break
    setups += [spawn([])["setup_s"] for _ in range(SETUP_SPAWNS)]
    return setups, passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wreathdunkl" / "cli.py").is_file():
        print(f"error: no engine source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((BENCH / "expected.json").read_text())
    try:
        setups, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdicts = [judge(p, expected) for p in passes]
    v = verdicts[-1]
    correct = all(x["correct"] for x in verdicts)
    if len({x["checks"] for x in verdicts}) != 1:
        correct = False
        print("passes produced different numbers of verdicts")

    if args.trace:
        plain, traced = passes
        values = dict(traced["trace"])
        values["trace.overhead"] = traced["wall_s"] / plain["wall_s"]
        if traced["unrestored"]:
            correct = False
            print("bindings not restored after tracing:", traced["unrestored"])
        declared_metrics = declared["per_layer"]
    else:
        values = {
            "wall_s": statistics.fmean(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "checks": v["checks"],
        }
        declared_metrics = declared["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared_metrics
    }

    print("env", json.dumps(env_stamp(passes[-1]["env"]), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} passes {len(passes)}"
          f" trace {args.trace}")
    shown = dict(metrics)
    shown["wrong_verdicts"] = {"value": len(v["wrong"]), "unit": "count"}
    shown["failed_frac"] = {"value": v["failed"] / v["attempted"], "unit": "ratio"}
    for name, m in shown.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {v['known']} of {len(v['wrong'])} wrong verdicts are recorded defects")
    for msg in (v["errors"] + v["wrong"])[:20]:
        print("  ", msg)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(x["attempted"] for x in verdicts),
        "failed": sum(x["failed"] for x in verdicts),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
