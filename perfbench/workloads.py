"""The benchmark's workloads: each is a list of ``wreathdunkl`` CLI argvs.

Every argv is run in order by one fresh interpreter (see ``worker.py``);
``--seed`` is appended to each.  The invocation label used by the checker
and by ``expected.json`` is the argv without the seed, joined by spaces.
"""

from __future__ import annotations

CONTROL = "verify --family cyclic --N 3 --m 2 --lambda 1/2 --corrupt drels"

# Why each workload was chosen: the layer it stresses and the one it spares,
# so that an optimisation of one layer has a workload that exercises it and
# one on which the prediction is no change.  Each pass is long (tens of
# seconds) because the machine's speed drifts; see run.py.
WORKLOADS = {
    "verify": {
        "why": (
            "default verify grid, its corrupted-relation control and two --n "
            "spin verifies: trial division and op_compose dominate the grid, "
            "exact SpinMatrix products and projectors the spin runs"
        ),
        "argvs": [
            "verify",
            CONTROL,
            "verify --family cyclic --N 3 --m 2 --lambda 1/2 --n 4",
            "verify --family dihedral --N 2 --m 2 --lambda 1 --mu 1 --rho 1/2 --n 3",
        ],
    },
    "spectrum": {
        "why": (
            "nine small chains, where static-Hamiltonian extraction dominates, "
            "and Haldane-Shastry chains of dimension 1296 and 1000, where spin "
            "assembly, eigh and memory dominate; no Dunkl relation suites"
        ),
        "argvs": [
            f"spectrum --family {family} --N {N} --m {m} --n 2"
            for family, points in (
                ("cyclic", ((2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (3, 3))),
                ("dihedral-odd", ((2, 1), (3, 1), (2, 3))),
            )
            for N, m in points
        ] + [
            "spectrum --family cyclic --N 4 --m 1 --n 6",
            "spectrum --family cyclic --N 3 --m 1 --n 10",
        ],
    },
}


def invocations(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs of one pass of ``workload`` at ``seed``."""
    return [
        (label, label.split() + ["--seed", str(seed)])
        for label in WORKLOADS[workload]["argvs"]
    ]
