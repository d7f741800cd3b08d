"""Command-line front end: verification suites, lattices, spectra, exports.

Exit codes form a stable contract:

* 0: every check passes;
* 1: a mathematical identity fails;
* 2: the configuration is bad.  The arguments are validated before any work
  starts, and the message is one line starting ``configuration error:``;
  argparse's own usage errors also exit 2;
* 3: an internal error, an exception the engine did not expect.  The
  message is one line, ``internal error: <type>: <message>``.

No argv prints a traceback.  Reports are JSON with the seed, the
configuration and the engine version embedded, so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache

import numpy as np

from . import __version__
from .cyclotomic import CycloScalar
from .dunkl import (
    ModelParams,
    boundary_element,
    build_charge,
    build_dunkl,
    build_hamiltonian,
    build_reflection_dunkl,
    build_symmetric_dunkl,
    charge_commutation_check,
    check_hecke_relations,
    check_recursion,
    exchange_element,
    hamiltonian_check,
    hamiltonian_x_display,
    reduction_check,
    rotation_average_check,
)
from .groups import (
    ENUMERATION_CAP,
    SPIN_GROUP_CAP,
    SPIN_IMAGE_CAP,
    GroupSpec,
    WreathElement,
    compose,
    corrupted_compose,
    enumerate_subgroup,
    relation_suite,
)
from .polyalg import RationalCoefficient, result_table
from .reports import CheckSuite
from .spinrep import (
    SpinRepData,
    brute_force_eigvals,
    build_projector,
    char_poly_exact,
    commutant_residual,
    diagonalize_hermitian,
    exact_levels,
    frozen_spin_matrix,
    global_rotation_element,
    projector_check,
    spin_representation_check,
    spin_sum,
    twisted_translation_element,
    verify_agreement,
)
from .static import (
    LATTICE_LABELS,
    build_frozen_hamiltonian,
    build_lattice,
    build_static_hamiltonian,
    equidistant_lattice,
    freezing_identity_check,
    rational_sqrt,
    scan_equidistant,
    static_display_check,
)


# The largest spin space written or diagonalized as a dense matrix.
DENSE_CAP = 4096


class ConfigError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _write_report(report: dict, path: str | None):
    text = json.dumps(report, indent=2, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(args, fields: dict) -> dict:
    """A report: the command, engine version, seed and parsed options, then ``fields``."""
    return {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": vars(args),
        **fields,
    }


def _params_from_args(args) -> ModelParams:
    return ModelParams(
        args.family,
        args.N,
        args.m,
        _fraction(args.lam),
        _fraction(args.mu),
        _fraction(args.rho),
    )


# -- verify ---------------------------------------------------------------------


def _group_suite(spec: GroupSpec, corrupt: str | None) -> CheckSuite:
    suite = relation_suite(spec, corrupted_compose if corrupt == "braid" else compose)
    els = enumerate_subgroup(spec)
    suite.add(
        "enumerated order equals the family cardinality",
        {"family": spec.family, "N": spec.size, "m": spec.order, "p": spec.p},
        len(els) == spec.cardinality(),
    )
    return suite


def _verify_case(
    params: ModelParams, n: int | None, kmax: int, corrupt: str | None
) -> CheckSuite:
    """Every suite of one parameter point.

    The suites act on and multiply the same Dunkl coefficients again and
    again, so the case runs inside one ``polyalg.result_table`` scope: an
    ``act``, ``euler``, or ``+`` or ``*`` of two coefficients already made
    in this case on the same operand values (keyed exactly, by nvars,
    order, numerator terms and denominator factors) returns the stored
    result.  The table is dropped when the case ends or raises.  The
    coupling coefficients of the Dunkl identities (see ``dunkl``) are kept
    per (family, N, m) across cases, so the cases of one (family, N, m)
    share them, and each case evaluates them at its own couplings.
    """
    suite = CheckSuite(f"verify[{params.family} N={params.size} m={params.order}]")
    with result_table():
        suite.extend(_group_suite(params.group_spec, corrupt))
        suite.extend(check_hecke_relations(params, corrupt=corrupt))
        suite.extend(check_recursion(params, corrupt=corrupt == "recursion"))
        suite.extend(rotation_average_check(params))
        suite.extend(reduction_check(params))
        suite.extend(hamiltonian_check(params))
        suite.extend(charge_commutation_check(params, kmax=kmax))
        if params.family == "cyclic":
            suite.extend(freezing_identity_check(params))
        suite.extend(static_display_check(params))
        if n:
            rep = SpinRepData(n, params.order, params.size)
            suite.extend(spin_representation_check(rep))
            suite.extend(projector_check(params, rep))
            ks = (1, 2) if params.family == "cyclic" else (2,)
            for k in ks:
                suite.extend(verify_agreement(params, rep, k))
    return suite


DEFAULT_GRID = {
    "cyclic": {
        "cases": [(2, 2), (2, 3), (3, 2)],
        "couplings": [("0", "0", "0"), ("1", "0", "0"), ("1/2", "0", "0")],
    },
    "dihedral": {
        "cases": [(2, 2), (2, 3)],
        "couplings": [
            ("0", "0", "0"),
            ("1", "1", "0"),
            ("1/2", "1", "1/2"),
        ],
    },
}


def cmd_verify(args) -> int:
    corrupt = args.corrupt
    suite = CheckSuite("verify")
    if args.family:
        params = _params_from_args(args)
        suite.extend(_verify_case(params, args.n, args.kmax, corrupt))
    else:
        for family, grid in DEFAULT_GRID.items():
            for (N, m) in grid["cases"]:
                for (lam, mu, rho) in grid["couplings"]:
                    params = ModelParams(
                        family, N, m, _fraction(lam), _fraction(mu), _fraction(rho)
                    )
                    suite.extend(_verify_case(params, None, args.kmax, corrupt))
        rep = SpinRepData(2, 2, 2)
        cyc = ModelParams("cyclic", 2, 2, Fraction(1, 2))
        dih = ModelParams("dihedral", 2, 2, Fraction(1), Fraction(1), Fraction(1, 2))
        suite.extend(spin_representation_check(rep))
        suite.extend(projector_check(cyc, rep))
        suite.extend(projector_check(dih, rep))
        for k in (1, 2, 3):
            suite.extend(verify_agreement(cyc, rep, k))
        suite.extend(verify_agreement(dih, rep, 2))
    report = _report(
        args, {"pass": suite.passed, "suite": [i.to_json() for i in suite.items]}
    )
    _write_report(report, args.output)
    return 0 if suite.passed else 1


# -- lattice ---------------------------------------------------------------------


def cmd_lattice(args) -> int:
    if args.scan:
        lmax = args.Lmax or 40
        lo = max(2, args.m)
        records = scan_equidistant(args.family, args.N, args.m, range(lo, lmax + 1))
        report = _report(args, {
            "scan": records[:50],
            "min_residual": records[0]["residual"] if records else None,
            "pass": True,
        })
        _write_report(report, args.output)
        return 0
    lat = build_lattice(args.family, args.N, args.m, args.label or "auto")
    passed = lat.residual_max == "0"
    _write_report(_report(args, {"lattice": lat.to_json(), "pass": passed}), args.output)
    return 0 if passed else 1


# -- spectrum ---------------------------------------------------------------------


def _lattice_for(args):
    if args.family != "dihedral-even" or not args.L:
        return build_lattice(args.family, args.N, args.m, args.label or "auto")
    lat = equidistant_lattice(
        "dihedral-even", args.N, args.m, args.L,
        couplings={"mu2": _fraction(args.mu2 or "1/4")},
    )
    try:
        lat.residual_max  # computed once and kept; raises on a coincidence
    except ZeroDivisionError as exc:
        raise ConfigError(f"--L {args.L} puts a site on an image: {exc}") from exc
    return lat


def cmd_spectrum(args) -> int:
    frozen = build_frozen_hamiltonian(_lattice_for(args))
    rep = SpinRepData(args.n, args.m, args.N)
    H = frozen_spin_matrix(rep, frozen.terms)
    vals, degs, herm = diagonalize_hermitian(H)
    report = _report(args, {
        "params": {"family": args.family, "N": args.N, "m": args.m, "n": args.n},
        "lattice": frozen.lattice.to_json(),
        "hermiticity_residual": herm,
        "eigenvalues": [float(v) for v in vals],
        "degeneracies": [{"value": v, "multiplicity": k} for v, k in degs],
        "warning": frozen.warning,
    })
    # One eigenvalue oracle per chain, within 1e-8 of max(1, max |H|): exact
    # levels on exact lattices to dim 16, Jacobi on the rest to dim 64 (numeric
    # --L lattices, and exact ones whose dense exact reduction is slow).
    tol = 1e-8 * max(1.0, float(np.max(np.abs(H.values), initial=0.0)))
    checks, passed = {}, True
    if frozen.lattice.exact and H.dim <= 16:
        levels = exact_levels(char_poly_exact(H.dim, *spin_sum(rep, frozen.terms)), vals, tol)
        checks["exact_levels"] = levels and [{"value": str(r), "multiplicity": k}
                                             for r, k in levels]
        passed = levels is not None
    elif H.dim <= 64:
        deviation = float(np.max(np.abs(vals - brute_force_eigvals(H.dense()))))
        checks["oracle_max_deviation"], passed = deviation, deviation < tol
    if args.family == "cyclic":
        symmetries = {
            "twisted_translation": twisted_translation_element(args.N, args.m),
            "global_rotation": global_rotation_element(args.N, args.m),
        }
        key = "commutant"
    else:
        symmetries = _dihedral_symmetry_candidates(args.N, args.m)
        key = "commutant_report"
    checks[key] = {name: commutant_residual(H, rep, g) for name, g in symmetries.items()}
    report["checks"] = checks
    if args.x_display:
        report["coupling_display"] = _sin2_display(frozen)
    if args.family == "cyclic":
        passed = passed and all(v < 1e-10 for v in checks["commutant"].values())
    report["pass"] = passed
    _write_report(report, args.output)
    return 0 if passed else 1


def _dihedral_symmetry_candidates(N: int, m: int) -> dict:
    out = {"global_rotation": global_rotation_element(N, m)}
    if N >= 2:
        out["exchange_P12"] = exchange_element(N, m, 1, 2, 0)
    out["reflection_K1"] = boundary_element(N, m, 1, 0)
    return out


def _sin2_display(frozen) -> list:
    """Couplings in inverse-square-sine form (rendering only)."""
    out = []
    for c, g in frozen.terms:
        value = c.to_complex() if hasattr(c, "to_complex") else complex(c)
        entry = {"group": g.to_json(), "coupling": [value.real, value.imag]}
        entry["minus_quarter_inv_sin2"] = -4.0 * value.real
        out.append(entry)
    return out


# -- export ---------------------------------------------------------------------


# indexed objects: prefix -> whether the index is a site (else a charge order)
INDEXED_OBJECTS = {"DD": True, "d": True, "Z": True, "Y": True, "I": False, "J": False}
MODEL_OBJECTS = ("H", "H_xdisplay", "Hbar")
OTHER_OBJECTS = ("Lambda", "Lambda_b", "Hbar_spin", "qk_lattice")


def _export_object(name: str):
    """(kind, index) of an export object name: ("d", 2) for d2, (name, None)
    for unindexed names."""
    for prefix in INDEXED_OBJECTS:
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return prefix, int(name[len(prefix):])
    return name, None


def _dense_json(rep: SpinRepData, terms, write=CycloScalar.to_json) -> list:
    """The spin matrix sum c rho(g) over ``terms`` (``spin_sum``), written
    out densely: ``write`` of each entry, exact zeros included."""
    order, S = spin_sum(rep, terms)
    zero = CycloScalar.zero(order)
    return [[write(S.get((r, t), zero)) for t in range(rep.dim)] for r in range(rep.dim)]


def _projector_json(weights: dict, rep: SpinRepData) -> list:
    """The terms g (x) p_g rho(g) of a projector in ``MixedOperator.to_json``
    layout, each spin block p_g rho(g) written out densely.  The blocks
    hold few distinct values, so each is converted once and its record
    shared by every entry that holds it."""
    written = {}

    def write(v):
        out = written.get(v)
        if out is None:
            out = written[v] = RationalCoefficient.from_scalar(rep.N, v, rep.m).to_json()
        return out

    return [
        {
            "euler": [0] * rep.N,
            "group": g.to_json(),
            "matrix": _dense_json(rep, [(CycloScalar.rational(weights[g], rep.m), g)], write),
        }
        for g in sorted(weights, key=WreathElement.sort_key)
    ]


def cmd_export(args) -> int:
    name = args.object
    kind, index = _export_object(name)
    params = _params_from_args(args) if args.family else None
    if kind in ("d", "DD"):
        payload = {"operator": build_dunkl(params, index).to_json()}
    elif kind == "Z":
        payload = {"operator": build_symmetric_dunkl(params, index).to_json()}
    elif kind == "Y":
        payload = {"operator": build_reflection_dunkl(params, index).to_json()}
    elif kind in ("I", "J"):
        payload = {"operator": build_charge(params, index).to_json()}
    elif name == "H":
        payload = {"operator": build_hamiltonian(params).to_json()}
    elif name == "H_xdisplay":
        payload = {"display": hamiltonian_x_display(params)}
    elif name == "Hbar":
        payload = {"operator": build_static_hamiltonian(params).to_json()}
    elif name in ("Lambda", "Lambda_b"):
        rep = SpinRepData(args.n, args.m, args.N)
        which = "exchange" if name == "Lambda" else "boundary"
        fam = "cyclic" if name == "Lambda" else "dihedral"
        p = params or ModelParams(fam, args.N, args.m)
        payload = {"operator": _projector_json(build_projector(p, which), rep)}
    elif name == "Hbar_spin":
        rep = SpinRepData(args.n, args.m, args.N)
        frozen = build_frozen_hamiltonian(build_lattice("cyclic", args.N, args.m))
        payload = {"lattice": frozen.lattice.to_json(), "matrix": _dense_json(rep, frozen.terms)}
    else:
        lat = build_lattice("cyclic", args.N, args.m)
        payload = {"lattice": lat.to_json()}
    _write_report(_report(args, {"object": name, **payload}), args.output)
    return 0


# -- validation ------------------------------------------------------------------


def _validate(args):
    """Raise ConfigError for any argv the commands cannot run on."""
    for name in ("N", "m", "n", "kmax", "L", "Lmax"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ConfigError(f"--{name} must be at least 1, got {value}")
    for name in ("lam", "mu", "rho", "mu2"):
        if getattr(args, name, None) is not None:
            _fraction(getattr(args, name))
    if args.family == "dihedral-odd" and args.m % 2 == 0:
        raise ConfigError("the dihedral-odd family needs odd --m")
    if args.family == "dihedral-even" and args.m % 2:
        raise ConfigError("the dihedral-even family needs even --m")
    if args.command == "verify":
        if args.corrupt not in (None, "drels", "recursion", "braid"):
            raise ConfigError(f"unknown corruption target {args.corrupt!r}")
        if args.family and args.N < 2:
            raise ConfigError("verify needs --N 2 or more: its checks pair two sites")
    elif args.command == "lattice":
        if args.family is None:
            raise ConfigError("lattice needs --family")
        if args.family == "dihedral-even" and not args.scan and args.N != 2:
            raise ConfigError(
                "the exact even-m dihedral lattice has two sites; search "
                "other N with --scan"
            )
    elif args.command == "spectrum":
        _check_dense(args)
        if args.family == "dihedral-even" and not args.L:
            if args.N != 2:
                raise ConfigError("dihedral-even chains need --L (numeric lattice) "
                                  "except at the exact N = 2 lattice")
            if args.mu2 is not None:
                raise ConfigError("--mu2 sets the coupling of a numeric lattice; "
                                  "give --L (the exact N = 2 lattice has mu2 = 4)")
        if args.mu2 is not None:
            mu2 = _fraction(args.mu2)
            try:
                float(mu2)  # the numeric lattice works in floats
            except OverflowError as exc:
                raise ConfigError("--mu2 has no finite float value") from exc
            try:
                rational_sqrt(mu2)
            except ValueError as exc:
                raise ConfigError(f"--mu2: {exc}") from exc
    elif args.command == "export":
        _validate_export(args)
    for name, cap, over in _enumerated_groups(args):
        if over:
            raise ConfigError(f"{name} at N = {args.N}, m = {args.m} has "
                              f"more than {cap} elements, the enumeration cap")
    if args.command == "verify" and args.family and args.n:
        # W(m, N) is within SPIN_GROUP_CAP here, so N is small
        entries = GroupSpec("W(m,N)", args.N, args.m).cardinality() * args.n**args.N
        if entries > SPIN_IMAGE_CAP:
            raise ConfigError(f"the spin images of W(m,N) at N = {args.N}, m = {args.m}, "
                              f"n = {args.n} have more than {SPIN_IMAGE_CAP} entries")


def _check_dense(args):
    """Refuse n^N > DENSE_CAP; n >= 2 passes it within bit_length() factors."""
    if args.n ** min(args.N, DENSE_CAP.bit_length()) > DENSE_CAP:
        raise ConfigError(f"spin space dimension {args.n}^{args.N} exceeds the dense cap {DENSE_CAP}")


def _validate_export(args):
    name = args.object
    kind, index = _export_object(name)
    if kind not in INDEXED_OBJECTS and kind not in MODEL_OBJECTS + OTHER_OBJECTS:
        raise ConfigError(f"unknown export object {name!r}")
    if index is not None and (index < 1 or INDEXED_OBJECTS[kind] and index > args.N):
        raise ConfigError(f"export --object {name}: index out of range")
    if (index is not None or kind in MODEL_OBJECTS) and args.family is None:
        raise ConfigError(f"export --object {name} needs --family")
    if kind in ("Lambda", "Lambda_b", "Hbar_spin"):
        if not args.n:
            raise ConfigError(f"{name} needs --n (local spin dimension)")
        _check_dense(args)


def _enumerated_groups(args) -> list:
    """(name, cap, whether it has more than cap elements) for every set the
    command enumerates element by element: the model's group in a verify
    case, W(m, N) in the spin checks, G(m, m, N) in the exchange projector,
    and the boundary projector's support, the products over sites of
    Q_j^{2s} and Q_j^{2s} K_j.  No size is formed past its cap: the support
    has k^N elements, k = 2m / gcd(m, 2) >= 2, which passes the cap within
    bit_length() factors."""
    N, m = args.N, args.m

    def group(family, cap, p=1):
        return family, cap, GroupSpec(family, N, m, p=p).exceeds(cap)

    if args.command == "export" and args.object == "Lambda":
        return [group("G(m,p,N)", SPIN_GROUP_CAP, m)]
    if args.command == "export" and args.object == "Lambda_b":
        k = 2 * m // math.gcd(m, 2)
        over = k ** min(N, SPIN_GROUP_CAP.bit_length()) > SPIN_GROUP_CAP
        return [("the Lambda_b support", SPIN_GROUP_CAP, over)]
    if args.command != "verify" or not args.family:
        return []
    model = group("W(m,N)" if args.family == "dihedral" else "G(m,1,N)", ENUMERATION_CAP)
    spin = [group("W(m,N)", SPIN_GROUP_CAP), group("G(m,p,N)", SPIN_GROUP_CAP, m)]
    return [model] + spin if args.n else [model]


# -- argument parsing ----------------------------------------------------------------


@cache  # one parser per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wreathdunkl",
        description=(
            "Exact verification engine for rotation- and reflection-image "
            "Sutherland models: wreath groups, Dunkl operators, commuting "
            "charges, physical-state projectors and frozen spin chains."
        ),
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family_choices=("cyclic", "dihedral")):
        p.add_argument("--family", choices=family_choices, default=None)
        p.add_argument("--N", type=int, default=2)
        p.add_argument("--m", type=int, default=2)
        p.add_argument("--lambda", dest="lam", default="1")
        p.add_argument("--mu", default="0")
        p.add_argument("--rho", default="0")
        p.add_argument("--n", type=int, default=None, help="local spin dimension")
        p.add_argument("--seed", type=int, default=0, help="only recorded in the report")
        p.add_argument("--output", default=None, help="write the JSON report here")

    pv = sub.add_parser("verify", help="run the exact identity suites")
    common(pv)
    pv.add_argument("--kmax", type=int, default=2, help="highest charge checked")
    pv.add_argument("--corrupt", default=None, help="negative control: drels|recursion|braid")

    pl = sub.add_parser("lattice", help="check or scan frozen-site configurations")
    common(pl, family_choices=("cyclic", "dihedral-odd", "dihedral-even"))
    pl.add_argument("--label", choices=LATTICE_LABELS, default=None)
    pl.add_argument("--scan", action="store_true")
    pl.add_argument("--Lmax", type=int, default=None)

    ps = sub.add_parser("spectrum", help="diagonalize a frozen spin chain")
    common(ps, family_choices=("cyclic", "dihedral-odd", "dihedral-even"))
    ps.add_argument("--label", choices=LATTICE_LABELS, default=None)
    ps.add_argument("--L", type=int, default=None)
    ps.add_argument("--mu2", default=None)
    ps.add_argument("--x-display", dest="x_display", action="store_true")
    ps.set_defaults(n=2, family="cyclic")

    pe = sub.add_parser("export", help="dump named operators and lattices as JSON")
    common(pe)
    pe.add_argument("--object", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a rebinding of cli.cmd_* takes effect
    commands = {"verify": cmd_verify, "lattice": cmd_lattice,
                "spectrum": cmd_spectrum, "export": cmd_export}
    try:
        _validate(args)
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an engine fault: neither a verdict nor a bad argv
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
