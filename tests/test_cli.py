"""Command-line contract: exit codes, report schema, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from helpers import (
    dense_spin_sum,
    evaluated_chain,
    extracted_chain,
    scalar_from_json,
    spin_image_by_definition,
)

from wreathdunkl import cli, polyalg
from wreathdunkl.cli import main
from wreathdunkl.static import LATTICE_LABELS


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_verify_single_case_passes(tmp_path):
    code, data = run(
        ["verify", "--family", "cyclic", "--N", "2", "--m", "3", "--lambda", "1/2"],
        tmp_path,
    )
    assert code == 0
    assert data["pass"] is True
    assert data["version"]
    assert data["seed"] == 0
    assert all({"relation", "params", "pass"} <= set(c) for c in data["suite"])


def test_verify_dihedral_passes(tmp_path):
    code, data = run(
        [
            "verify", "--family", "dihedral", "--N", "2", "--m", "2",
            "--lambda", "1", "--mu", "1", "--rho", "0",
        ],
        tmp_path,
    )
    assert code == 0 and data["pass"]


def test_verify_corrupt_fails_with_witness(tmp_path):
    code, data = run(
        [
            "verify", "--family", "cyclic", "--N", "2", "--m", "3",
            "--lambda", "1/2", "--corrupt", "drels",
        ],
        tmp_path,
    )
    assert code == 1
    bad = [c for c in data["suite"] if not c["pass"]]
    assert bad and bad[0]["witness"] is not None


def test_verify_bad_config_exits_2(tmp_path):
    assert main(["verify", "--family", "cyclic", "--N", "2", "--m", "3",
                 "--lambda", "nonsense"]) == 2
    assert main(["verify", "--family", "cyclic", "--N", "2", "--m", "3",
                 "--corrupt", "everything"]) == 2


def test_lattice_labeled_rows(tmp_path):
    code, data = run(
        ["lattice", "--family", "dihedral-odd", "--N", "2", "--m", "3", "--label", "L2Nm"],
        tmp_path,
    )
    assert code == 0
    assert data["lattice"]["residual_max"] == "0"
    assert data["lattice"]["L"] == 12


def test_lattice_cyclic(tmp_path):
    code, data = run(["lattice", "--family", "cyclic", "--N", "5", "--m", "3"], tmp_path)
    assert code == 0
    assert data["lattice"]["residual_max"] == "0"
    assert len(data["lattice"]["positions"]) == 5


@pytest.mark.parametrize("m", [2, 4, 6])
def test_lattice_dihedral_even_two_sites(m, tmp_path):
    """The exact even-m row: L = 4m, mu^2 = 4, residuals exactly zero; its
    chain is the numeric L = 4m chain at mu^2 = 4, and exact, so the
    characteristic polynomial certifies its levels, where the numeric
    chain falls to the Jacobi oracle."""
    code, data = run(["lattice", "--family", "dihedral-even", "--N", "2", "--m", str(m)],
                     tmp_path)
    assert code == 0 and data["pass"]
    assert data["lattice"]["residual_max"] == "0"
    assert (data["lattice"]["L"], data["lattice"]["couplings"]) == (4 * m, {"mu2": "4"})
    code, exact = run(["spectrum", "--family", "dihedral-even", "--N", "2", "--m", str(m)],
                      tmp_path, "exact.json")
    assert code == 0 and exact["pass"]
    assert sum(level["multiplicity"] for level in exact["checks"]["exact_levels"]) == 4
    assert "oracle_max_deviation" not in exact["checks"]
    code, numeric = run(["spectrum", "--family", "dihedral-even", "--N", "2", "--m", str(m),
                         "--L", str(4 * m), "--mu2", "4"], tmp_path, "numeric.json")
    assert code == 0 and "exact_levels" not in numeric["checks"]
    assert numeric["checks"]["oracle_max_deviation"] < 1e-8
    assert np.allclose(exact["eigenvalues"], numeric["eigenvalues"], atol=1e-9)


@pytest.mark.parametrize("argv", [
    ["lattice", "--family", "dihedral-even", "--N", "3", "--m", "2"],
    ["spectrum", "--family", "dihedral-even", "--N", "3", "--m", "2"],
    ["spectrum", "--family", "dihedral-even", "--N", "2", "--m", "2", "--mu2", "1/4"],
])
def test_dihedral_even_without_a_numeric_lattice_needs_two_sites(argv, tmp_path):
    assert run(argv, tmp_path) == (2, None)


def test_lattice_scan_reports(tmp_path):
    code, data = run(
        ["lattice", "--family", "dihedral-even", "--N", "2", "--m", "2", "--scan", "--Lmax", "12"],
        tmp_path,
    )
    assert code == 0
    assert data["scan"]
    assert data["min_residual"] == data["scan"][0]["residual"]


def test_lattice_scan_orders_exact_rows_by_candidate(tmp_path):
    """Rows whose residual is round-off (below 1e-12) are tied and come in
    (L, offset, couplings) order, whatever their float residuals."""
    code, data = run(
        ["lattice", "--family", "dihedral-odd", "--N", "2", "--m", "3", "--scan",
         "--Lmax", "30"],
        tmp_path,
    )
    assert code == 0
    exact = [r for r in data["scan"] if r["residual"] < 1e-12]
    assert data["scan"][: len(exact)] == exact
    rows = [(r["L"], r["offset"], r["couplings"]["beta2"], r["couplings"]["gamma2"])
            for r in exact]
    assert rows == [
        (4, "1/2", "1/4", "1/4"),
        (5, "0", "1/4", "9/4"),
        (5, "1/2", "9/4", "1/4"),
        (12, "1/2", "1/4", "1/4"),
        (15, "0", "1/4", "9/4"),
        (15, "1/2", "9/4", "1/4"),
        (18, "0", "9/4", "9/4"),
    ]


def test_spectrum_cyclic(tmp_path):
    code, data = run(
        ["spectrum", "--family", "cyclic", "--N", "3", "--m", "1", "--n", "2"],
        tmp_path,
    )
    assert code == 0
    assert data["hermiticity_residual"] < 1e-12
    assert data["checks"]["exact_levels"] == [
        {"value": "-2", "multiplicity": 4}, {"value": "0", "multiplicity": 4}
    ]
    assert "oracle_max_deviation" not in data["checks"]
    assert all(v < 1e-10 for v in data["checks"]["commutant"].values())
    assert len(data["eigenvalues"]) == 8
    assert sum(d["multiplicity"] for d in data["degeneracies"]) == 8


@pytest.mark.parametrize("argv", [
    ["--family", "cyclic", "--N", "1", "--m", "2", "--n", "3"],
    ["--family", "cyclic", "--N", "3", "--m", "2", "--n", "1"],
    ["--family", "cyclic", "--N", "2", "--m", "5", "--n", "4"],
    ["--family", "dihedral-even", "--N", "2", "--m", "4", "--n", "3"],
    *[["--family", "dihedral-odd", "--N", "2", "--m", "3", "--n", "2", "--label", label]
      for label in LATTICE_LABELS],
    ["--family", "dihedral-odd", "--N", "4", "--m", "3", "--n", "2"],
])
def test_exact_chains_report_certified_levels(argv, tmp_path):
    """Exact chains of dim 16 or less across the families, one site, one
    spin state, every dihedral-odd lattice and dim 16 in the order-48
    field: each level is certified, with multiplicities summing to dim."""
    code, data = run(["spectrum", *argv], tmp_path)
    assert code == 0 and data["pass"]
    levels = data["checks"]["exact_levels"]
    assert sum(level["multiplicity"] for level in levels) == len(data["eigenvalues"])


@pytest.mark.parametrize("argv", [
    ["--family", "cyclic", "--N", "3", "--m", "1"],
    ["--family", "dihedral-odd", "--N", "2", "--m", "3"],
])
def test_a_wrong_characteristic_polynomial_fails_the_chain(argv, tmp_path, monkeypatch):
    """With 1000 added to c_0 of the exact polynomial no level is
    certified, and the chain fails."""
    real = cli.char_poly_exact

    def shifted(*args):
        coeffs = real(*args)
        return [coeffs[0] + 1000, *coeffs[1:]]

    monkeypatch.setattr(cli, "char_poly_exact", shifted)
    code, data = run(["spectrum", *argv], tmp_path)
    assert code == 1 and data["pass"] is False
    assert data["checks"]["exact_levels"] is None


def test_spectrum_dihedral_reports_commutants(tmp_path):
    code, data = run(
        ["spectrum", "--family", "dihedral-odd", "--N", "2", "--m", "3", "--n", "2",
         "--label", "L2Nm", "--x-display"],
        tmp_path,
    )
    assert code == 0
    assert "commutant_report" in data["checks"]
    assert data["coupling_display"]


@pytest.mark.parametrize("m", ["1", "3"])
def test_spectrum_one_site_dihedral_has_no_exchange(tmp_path, m):
    code, data = run(
        ["spectrum", "--family", "dihedral-odd", "--N", "1", "--m", m, "--n", "2"],
        tmp_path,
    )
    assert code == 0
    assert set(data["checks"]["commutant_report"]) == {"global_rotation", "reflection_K1"}


def test_spectrum_of_a_chain_without_terms(tmp_path):
    """One cyclic site has no exchange: every basis state is its own block."""
    code, data = run(
        ["spectrum", "--family", "cyclic", "--N", "1", "--m", "1", "--n", "2"], tmp_path
    )
    assert code == 0 and data["pass"]
    assert data["eigenvalues"] == [0.0, 0.0] and data["hermiticity_residual"] == 0.0
    assert data["checks"]["commutant"] == {"twisted_translation": 0.0, "global_rotation": 0.0}


def test_spectrum_memory_stays_below_a_dense_chain():
    """Python-tracked peak of a dim-1024 spectrum run: below 8 MiB, half of
    one dense 1024 x 1024 complex matrix, so no such array is formed."""
    import tracemalloc

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["spectrum", "--family", "cyclic", "--N", "10", "--m", "1", "--n", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20


def test_spectrum_haldane_shastry_beyond_extraction(tmp_path):
    """Cyclic m = 1 at N = 8 is the Haldane-Shastry chain
    -sum_{k<l} P_kl / (2 sin^2(pi (k - l) / N)) on (C^2)^8."""
    N, n = 8, 2
    code, data = run(
        ["spectrum", "--family", "cyclic", "--N", str(N), "--m", "1", "--n", str(n)],
        tmp_path,
    )
    assert code == 0
    idx = np.arange(n**N)
    place = [n ** (N - 1 - k) for k in range(N)]
    digit = [(idx // p) % n for p in place]
    H = np.zeros((n**N, n**N))
    for k in range(N):
        for l in range(k + 1, N):
            swapped = idx + (digit[l] - digit[k]) * (place[k] - place[l])
            H[swapped, idx] -= 1.0 / (2.0 * math.sin(math.pi * (k - l) / N) ** 2)
    assert np.max(np.abs(np.array(data["eigenvalues"]) - np.linalg.eigvalsh(H))) < 1e-10
    assert all(v < 1e-10 for v in data["checks"]["commutant"].values())


def test_spectrum_dihedral_beyond_extraction(tmp_path):
    """Six sites of the m = 1 dihedral chain (dim 64, the largest the Jacobi
    oracle checks), out of reach of symbolic extraction."""
    code, data = run(
        ["spectrum", "--family", "dihedral-odd", "--N", "6", "--m", "1", "--n", "2"],
        tmp_path,
    )
    assert code == 0 and data["pass"]
    assert data["checks"]["oracle_max_deviation"] < 1e-8


def test_no_chain_is_built_by_extraction(tmp_path, monkeypatch):
    """Chains and the static Hamiltonian come from the image table: with the
    dynamical Hamiltonian disabled, every chain family and both static
    exports still run, and the export of H shows the patch takes effect."""
    import wreathdunkl.cli as cli
    import wreathdunkl.dunkl as dunkl
    import wreathdunkl.static as static

    def refuse(*args, **kwargs):
        raise AssertionError("the dynamical Hamiltonian was built")

    assert not hasattr(static, "build_hamiltonian")
    monkeypatch.setattr(dunkl, "build_hamiltonian", refuse)
    monkeypatch.setattr(cli, "build_hamiltonian", refuse)
    for argv in (
        ["spectrum", "--family", "cyclic", "--N", "3", "--m", "2"],
        ["spectrum", "--family", "dihedral-odd", "--N", "2", "--m", "3"],
        ["spectrum", "--family", "dihedral-even", "--N", "2", "--m", "2", "--L", "8",
         "--mu2", "4"],
        ["export", "--object", "Hbar", "--family", "dihedral", "--N", "2", "--m", "3",
         "--lambda", "1", "--mu", "1", "--rho", "1/2"],
        ["export", "--object", "Hbar_spin", "--N", "3", "--m", "2", "--n", "2"],
    ):
        assert run(argv, tmp_path)[0] == 0, argv
    assert main(["export", "--object", "H", "--family", "cyclic"]) == 3


# the spectrum workload of perfbench/workloads.py, and an export of a chain
CHAIN_ARGVS = [
    f"spectrum --family {family} --N {N} --m {m} --n {n}"
    for family, N, m, n in [("cyclic", 2, 1, 2), ("cyclic", 3, 1, 2), ("cyclic", 4, 1, 2),
                            ("cyclic", 3, 2, 2), ("cyclic", 4, 2, 2), ("cyclic", 3, 3, 2),
                            ("dihedral-odd", 2, 1, 2), ("dihedral-odd", 3, 1, 2),
                            ("dihedral-odd", 2, 3, 2), ("cyclic", 4, 1, 6), ("cyclic", 3, 1, 10)]
] + ["spectrum --family dihedral-even --N 2 --m 4", "export --object Hbar_spin --N 3 --m 2 --n 2"]


@pytest.mark.parametrize("argv", CHAIN_ARGVS)
def test_chain_never_builds_the_static_hamiltonian(argv, tmp_path, monkeypatch):
    """Each chain is summed from image values at the sites.  With the
    symbolic static Hamiltonian, the image operator and every rational
    coefficient refused, the argv exits 0 with the report bytes of the
    symbolic route: the static Hamiltonian's coefficients at the sites."""
    import dataclasses

    from wreathdunkl import dunkl, static

    def symbolic(lat):
        hbar = static.build_static_hamiltonian(
            static._static_params(lat.family, lat.N, lat.m, lat.couplings))
        return dataclasses.replace(chain(lat), terms=evaluated_chain(hbar, lat))

    def refuse(*args, **kwargs):
        raise AssertionError("the chain went through the symbolic static Hamiltonian")

    chain, out = static.build_frozen_hamiltonian, tmp_path / "out.json"
    argv = argv.split() + ["--seed", "3", "--output", str(out)]
    reports = []
    for patches in ([(cli, "build_frozen_hamiltonian", symbolic)],
                    [(static, "build_static_hamiltonian", refuse), (dunkl, "image_operator", refuse),
                     (static, "image_operator", refuse), (polyalg.RationalCoefficient, "__init__", refuse)]):
        with monkeypatch.context() as patched:
            for target, name, value in patches:
                patched.setattr(target, name, value)
            assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--family", "cyclic", "--N", "3", "--m", "2"],
        ["spectrum", "--family", "dihedral-odd", "--N", "2", "--m", "3"],
        ["spectrum", "--family", "dihedral-even", "--N", "2", "--m", "2", "--L", "8",
         "--mu2", "4"],
        ["lattice", "--family", "dihedral-odd", "--N", "2", "--m", "3"],
    ],
    ids=["cyclic", "dihedral-odd", "dihedral-even", "lattice"],
)
def test_residuals_are_computed_once_per_run(tmp_path, monkeypatch, argv):
    from wreathdunkl.static import LatticeConfig

    calls = []
    residuals = LatticeConfig.residuals

    def counted(self):
        calls.append(self.label)
        return residuals(self)

    monkeypatch.setattr(LatticeConfig, "residuals", counted)
    assert run(argv, tmp_path)[0] == 0
    assert len(calls) == 1


def test_spectrum_cap(tmp_path):
    assert main(["spectrum", "--family", "cyclic", "--N", "13", "--m", "1", "--n", "2"]) == 2


def test_export_objects(tmp_path):
    code, data = run(
        ["export", "--object", "d1", "--family", "cyclic", "--N", "2", "--m", "2",
         "--lambda", "1"],
        tmp_path,
    )
    assert code == 0
    # merged normal form: one Euler term plus two group terms
    assert len(data["operator"]) == 3
    code, data = run(["export", "--object", "Lambda", "--N", "2", "--m", "2", "--n", "2"], tmp_path)
    assert code == 0
    assert len(data["operator"]) == 4  # one per balanced-group element
    code, data = run(["export", "--object", "qk_lattice", "--N", "5", "--m", "3"], tmp_path)
    assert code == 0
    pos = data["lattice"]["positions"]
    assert len(pos) == 5 and all(p["order"] == 15 for p in pos)
    assert main(["export", "--object", "whatever"]) == 2


@pytest.mark.parametrize("N,m", [(3, 2), (2, 3)])
def test_export_hbar_spin_equals_extracted_chain(tmp_path, N, m):
    """The exported chain, from the image table, equals the dense exact
    assembly, from the definition of the spin images, of the terms that
    extraction from the Dunkl operators gives."""
    from wreathdunkl.spinrep import SpinRepData
    from wreathdunkl.static import build_lattice

    code, data = run(
        ["export", "--object", "Hbar_spin", "--N", str(N), "--m", str(m), "--n", "2"],
        tmp_path,
    )
    assert code == 0
    extracted = extracted_chain(build_lattice("cyclic", N, m))
    dense = dense_spin_sum(SpinRepData(2, m, N), extracted)
    assert data["matrix"] == [[v.to_json() for v in row] for row in dense]


@pytest.mark.parametrize("N,m", [(2, 2), (2, 3), (3, 3)])
def test_exported_spin_matrices_equal_dense_definitions(tmp_path, N, m):
    """Hbar_spin, Lambda and Lambda_b, written densely from the sparse spin
    sums, equal dense matrices built from the definition of the spin
    images: c rho(g) summed over the chain's terms, and p_g rho(g) for each
    projector weight."""
    from wreathdunkl.dunkl import ModelParams
    from wreathdunkl.groups import WreathElement
    from wreathdunkl.polyalg import RationalCoefficient
    from wreathdunkl.spinrep import SpinRepData, build_projector
    from wreathdunkl.static import build_frozen_hamiltonian, build_lattice

    rep = SpinRepData(2, m, N)
    size = ["--N", str(N), "--m", str(m), "--n", "2"]
    code, data = run(["export", "--object", "Hbar_spin", *size], tmp_path)
    assert code == 0
    terms = build_frozen_hamiltonian(build_lattice("cyclic", N, m)).terms
    assert data["matrix"] == [[v.to_json() for v in row] for row in dense_spin_sum(rep, terms)]
    projectors = [("Lambda", "cyclic", "exchange"), ("Lambda_b", "dihedral", "boundary")]
    for name, family, which in projectors:
        code, data = run(["export", "--object", name, *size], tmp_path)
        assert code == 0
        weights = build_projector(ModelParams(family, N, m), which)
        order = sorted(weights, key=WreathElement.sort_key)
        assert [t["group"] for t in data["operator"]] == [g.to_json() for g in order]
        for term, g in zip(data["operator"], order):
            block = [
                [RationalCoefficient.from_scalar(N, v * weights[g], m).to_json() for v in row]
                for row in spin_image_by_definition(rep, g)
            ]
            assert term["matrix"] == block


def test_export_hbar_spin_six_sites(tmp_path):
    """At N = 6, m = 1 the exported chain is the Haldane-Shastry matrix
    -sum_{k<l} P_kl / (2 sin^2(pi (k - l) / N)) on (C^2)^6."""
    N = 6
    code, data = run(["export", "--object", "Hbar_spin", "--N", str(N), "--m", "1",
                      "--n", "2"], tmp_path)
    assert code == 0
    M = np.array([[scalar_from_json(c).to_complex() for c in row]
                  for row in data["matrix"]])
    dim = 2**N
    idx = np.arange(dim)
    place = [2 ** (N - 1 - k) for k in range(N)]
    digit = [(idx // p) % 2 for p in place]
    H = np.zeros((dim, dim))
    for k in range(N):
        for l in range(k + 1, N):
            swapped = idx + (digit[l] - digit[k]) * place[k] + (digit[k] - digit[l]) * place[l]
            H[swapped, idx] -= 1.0 / (2.0 * math.sin(math.pi * (k - l) / N) ** 2)
    assert np.max(np.abs(M - H)) < 1e-12


def test_oracle_bound_scales_with_the_couplings(tmp_path):
    """At couplings of 1e100 the Jacobi oracle deviates from eigh by far
    more than 1e-8, but by 1e-12 of the spectrum's size or less; the bound
    is relative to max(1, max |H|), so the chain passes."""
    code, data = run(["spectrum", "--family", "dihedral-even", "--L", "8",
                      "--mu2", "1e200"], tmp_path)
    assert code == 0 and data["pass"]
    deviation = data["checks"]["oracle_max_deviation"]
    assert 1e-8 < deviation < 1e-12 * max(abs(v) for v in data["eigenvalues"])


def test_reports_are_deterministic(tmp_path):
    _, a = run(["verify", "--family", "cyclic", "--N", "2", "--m", "2",
                "--lambda", "1", "--seed", "7"], tmp_path, "a.json")
    _, b = run(["verify", "--family", "cyclic", "--N", "2", "--m", "2",
                "--lambda", "1", "--seed", "7"], tmp_path, "b.json")
    a["config"].pop("output"), b["config"].pop("output")
    assert a == b


@pytest.mark.parametrize("corrupt", [[], ["--corrupt", "drels"]])
def test_result_table_leaves_reports_byte_identical(corrupt, tmp_path, monkeypatch):
    """A verify case computes the same report bytes with its result table
    as with every operation computed afresh."""
    argv = ["verify", "--family", "dihedral", "--N", "2", "--m", "3",
            "--lambda", "1/2", "--mu", "1", "--rho", "1/2", *corrupt,
            "--output", str(tmp_path / "out.json")]
    codes, reports = [], []
    for scoped in (False, True):
        if not scoped:
            monkeypatch.setattr(cli, "result_table", contextlib.nullcontext)
        else:
            monkeypatch.undo()
        codes.append(main(argv))
        reports.append((tmp_path / "out.json").read_bytes())
    assert codes == ([1, 1] if corrupt else [0, 0])
    assert reports[0] == reports[1]


def test_reports_are_byte_identical_across_processes():
    """Same argv in two interpreters, different hash seeds: same bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = ["verify", "--family", "cyclic", "--N", "2", "--m", "2",
            "--lambda", "1", "--seed", "7"]
    outputs = []
    for hashseed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed}
        proc = subprocess.run(
            [sys.executable, "-m", "wreathdunkl.cli", *argv],
            env=env, capture_output=True, check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert b'"fn"' not in outputs[0]


def test_verify_zero_coupling_grid_point_passes(tmp_path):
    code, data = run(
        ["verify", "--family", "cyclic", "--N", "2", "--m", "2", "--lambda", "0"],
        tmp_path,
    )
    assert code == 0 and data["pass"]
    names = {c["relation"] for c in data["suite"] if c["relation"].startswith("wreath Dunkl")}
    assert names == {"wreath Dunkl = one-copy Dunkl at m>1 (no coupling sees the rotations)"}


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "--object", "d1"],
        ["verify", "--family", "cyclic", "--N", "1", "--m", "2"],
        ["spectrum", "--mu2", "1" + "0" * 400],
    ],
)
def test_bad_config_is_one_line_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert len(err.strip().splitlines()) == 1


def test_unexpected_exception_is_one_line_exit_3(monkeypatch, capsys):
    import wreathdunkl.cli as cli

    def boom(args):
        raise KeyError("missing\nkey")

    monkeypatch.setattr(cli, "cmd_export", boom)
    assert main(["export", "--object", "qk_lattice"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError:")
    assert len(err.strip().splitlines()) == 1


SIZES = st.sampled_from(["-1", "0", "1", "2"])
# a square too large for the float square root, and one with no float value
BIG_SQUARE = "10000000000000000600000000000000009/10000000000000000200000000000000001"
NO_FLOAT = "1" + "0" * 400
MU2S = ["1/4", "4", "9/4", "0", "2", "-1", "x", "1e200", BIG_SQUARE, NO_FLOAT]
RATIONALS = st.sampled_from(["0", "1", "1/2", "-1", "x", "1/0", "0.5"])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["verify", "lattice", "spectrum", "export"]))
    if command == "verify":
        argv = ["verify", "--family", draw(st.sampled_from(["cyclic", "dihedral"]))]
        argv += ["--kmax", draw(SIZES)]
        corrupt = draw(st.sampled_from([None, "drels", "recursion", "braid", "bogus"]))
        argv += ["--corrupt", corrupt] if corrupt else []
    elif command == "export":
        family = draw(st.sampled_from([None, "cyclic", "dihedral"]))
        argv = ["export"] + (["--family", family] if family else [])
        argv += ["--object", draw(st.sampled_from([
            "d1", "d3", "DD0", "Z2", "Y1", "I0", "J2", "H", "H_xdisplay", "Hbar",
            "Lambda", "Lambda_b", "Hbar_spin", "qk_lattice", "bogus",
        ]))]
    else:
        families = [None, "cyclic", "dihedral-odd", "dihedral-even"]
        family = draw(st.sampled_from(families))
        argv = [command] + (["--family", family] if family else [])
        if command == "lattice":
            argv += ["--scan", "--Lmax", draw(SIZES)] if draw(st.booleans()) else []
        else:
            # L = 1, 2, 3, 4 and 6 put one of two sites on an image (exit 2)
            argv += ["--L", str(draw(st.integers(-1, 12)))]
            argv += ["--mu2", draw(st.sampled_from(MU2S))]
    for flag in ("--N", "--m", "--n"):
        if draw(st.booleans()):
            argv += [flag, draw(SIZES)]
    for flag in ("--lambda", "--mu", "--rho"):
        if draw(st.booleans()):
            argv += [flag, draw(RATIONALS)]
    return argv


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.booleans())
@example(["verify", "--family", "dihedral", "--kmax", "1"], False)
@example(["spectrum", "--family", "dihedral-even", "--L", "8", "--mu2", "-1"], False)
@example(["spectrum", "--family", "dihedral-even", "--L", "2"], False)
@example(["export", "--family", "cyclic", "--object", "Z0"], False)
@example(["spectrum", "--family", "dihedral-odd", "--N", "1", "--m", "1", "--n", "2"], False)
@example(["spectrum", "--mu2", BIG_SQUARE], False)
@example(["spectrum", "--mu2", NO_FLOAT], False)
@example(["spectrum", "--family", "dihedral-even", "--L", "8", "--mu2", "1e200"], False)
@example(["verify", "--family", "dihedral", "--m", "3"], True)
@example(["verify", "--family", "cyclic", "--N", "9", "--m", "2"], False)
@example(["verify", "--family", "dihedral", "--N", "7", "--m", "2"], False)
@example(["export", "--object", "Lambda", "--N", "8", "--m", "2", "--n", "2"], False)
@example(["lattice", "--family", "dihedral-even", "--N", "2", "--m", "4"], False)
@example(["lattice", "--family", "dihedral-even", "--N", "3"], False)
@example(["spectrum", "--family", "dihedral-even", "--N", "2", "--m", "6"], False)
@example(["spectrum", "--family", "dihedral-even", "--N", "3"], False)
@example(["spectrum", "--family", "dihedral-even", "--mu2", "4"], False)
@example(["spectrum", "--family", "dihedral-odd", "--N", "4", "--m", "1"], False)
@example(["spectrum", "--N", "4", "--n", "2"], False)
@example(["spectrum", "--N", "3", "--n", "3"], False)
@example(["spectrum", "--N", "1", "--n", "3"], False)
@example(["verify", "--family", "cyclic", "--N", "1500", "--m", "2"], False)
@example(["verify", "--family", "dihedral", "--N", "2000", "--m", "2"], False)
@example(["spectrum", "--N", "15000", "--n", "2"], False)
@example(["export", "--object", "Lambda", "--N", "2000", "--m", "2", "--n", "2"], False)
@example(["verify", "--family", "cyclic", "--N", "10000000", "--m", "2"], False)
@example(["export", "--object", "Hbar_spin", "--N", "13", "--n", "2"], False)
@example(["export", "--object", "Lambda_b", "--N", "20", "--m", "1", "--n", "1"], False)
@example(["export", "--object", "Lambda_b", "--N", "200", "--m", "3", "--n", "1"], False)
def test_no_argv_reaches_a_traceback(argv, fault):
    """Every argv ends in exit 0, 1 or 2; argparse's usage errors are 2.
    With ``fault``, an internal error raised inside a verify case, after
    the case has filled its result table, exits 3 in one line.  No table
    is left behind either way."""
    real = cli.hamiltonian_check

    def broken(params):
        real(params)
        raise ArithmeticError("injected\nfault")

    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(err))
        if fault:
            stack.enter_context(mock.patch.object(cli, "hamiltonian_check", broken))
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert polyalg._LIVE == [None]
    if fault and argv[0] == "verify":
        # a verify argv is either refused or reaches the broken case
        message = "internal error: ArithmeticError: injected fault\n"
        assert code == 2 or (code, err.getvalue()) == (3, message), (argv, code)
    else:
        assert code in (0, 1, 2), (argv, err.getvalue())


@pytest.mark.parametrize("argv", [
    "verify --family cyclic --N 1500 --m 2",
    "verify --family dihedral --N 2000 --m 2",
    "verify --family cyclic --N 10000000 --m 2",
    "spectrum --N 15000 --n 2",
    "export --object Lambda --N 2000 --m 2 --n 2",
    "export --object Hbar_spin --N 13 --n 2",
    "export --object Lambda_b --N 7 --m 2 --n 4",
    "export --object Lambda_b --N 20 --m 1 --n 1",
    "export --object Lambda_b --N 200 --m 3 --n 1",
])
def test_oversized_inputs_are_refused_at_once(argv):
    """Groups and projector supports past the enumeration cap and dense
    spin matrices past 4096 rows are configuration errors, decided without
    forming the group order, the support size or n^N, and reported in one
    short line."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv.split())
    assert time.perf_counter() - start < 5
    assert code == 2
    assert err.getvalue().startswith("configuration error: ")
    assert err.getvalue().count("\n") == 1 and len(err.getvalue()) < 120
