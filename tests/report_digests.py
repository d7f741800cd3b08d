"""The sha256 of every report a fixed list of CLI argvs writes, to check
that a change leaves the reports byte-identical.

    python tests/report_digests.py CHECKOUT [--seed 3] [--slow]

Imports ``wreathdunkl.cli`` from ``CHECKOUT/src`` in a fresh interpreter
and runs ``cli.main`` on each argv in order, with ``--seed`` appended.  It
prints one line per argv: the sha256 of its standard output, its exit code
and the argv.  Run it on two checkouts and diff the output.  The argvs are
the ``verify`` and ``spectrum`` workload argvs of ``perfbench/workloads.py``
in this repository, the three ``--corrupt`` controls, ``--kmax 3`` and
larger ``verify`` cases, spin ``verify`` cases of both families, and the
exports of every kind of object; ``--slow`` adds the export and the spin
``verify`` that take seconds.  The file name keeps pytest from
collecting it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CONTROLS = [f"verify --family cyclic --N 3 --m 2 --lambda 1/2 --corrupt {target}"
            for target in ("drels", "recursion", "braid")]

VERIFY = [
    "verify --kmax 3",
    "verify --family cyclic --N 3 --m 2 --lambda 1/2 --kmax 3",
    "verify --family dihedral --N 2 --m 3 --lambda 1/2 --mu 1 --rho 1/2 --kmax 3",
    "verify --family dihedral --N 3 --m 2 --lambda 1/2 --mu 1 --rho 1/2",
    "verify --family dihedral --N 2 --m 3 --lambda 2 --mu -1 --rho 0",
    "verify --family cyclic --N 4 --m 2 --lambda 1/2",
    "verify --family cyclic --N 4 --m 2 --lambda 1/2 --n 3",
    "verify --family dihedral --N 3 --m 2 --lambda 1/2 --mu 1 --rho 1/2 --n 2",
    "verify --family cyclic --N 2 --m 1 --lambda 3",
    "verify --family dihedral --N 2 --m 1 --lambda 1 --mu 1/3 --rho 2",
]

DIHEDRAL = "--family dihedral --N 2 --m 3 --lambda 1/2 --mu 1 --rho 1/2"
EXPORTS = [
    f"export --object {name} {DIHEDRAL}" for name in ("d1", "H", "J2", "I3", "Z1", "Y2", "Hbar")
] + [
    "export --object d1 --family dihedral --N 2 --m 3 --mu 1 --rho -1",
    "export --object H --family cyclic --N 3 --m 2 --lambda 1/2",
    "export --object Hbar_spin --N 3 --m 2 --n 2",
    "export --object Lambda --N 3 --m 2 --n 2",
    "export --object Lambda_b --N 2 --m 3 --n 2",
]
SLOW = [
    "export --object Lambda_b --N 3 --m 3 --n 3",
    "verify --family cyclic --N 4 --m 3 --lambda 1/2 --n 2",
]

RUNNER = """
import contextlib, hashlib, io, json, sys
spec = json.load(sys.stdin)
sys.path.insert(0, spec["src"])
import wreathdunkl.cli as cli
for argv in spec["argvs"]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv.split())
        except SystemExit as exc:
            rc = exc.code
    print(hashlib.sha256(out.getvalue().encode()).hexdigest(), rc, argv, flush=True)
"""


def _workload_argvs() -> list:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return [argv for name in ("verify", "spectrum") for argv in WORKLOADS[name]["argvs"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--slow", action="store_true")
    args = ap.parse_args()
    argvs = _workload_argvs() + CONTROLS + VERIFY + EXPORTS + (SLOW if args.slow else [])
    spec = {
        "src": str(Path(args.checkout).resolve() / "src"),
        "argvs": [f"{argv} --seed {args.seed}" for argv in argvs],
    }
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    done = subprocess.run([sys.executable, "-c", RUNNER], input=json.dumps(spec),
                          text=True, env=env, check=False)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
