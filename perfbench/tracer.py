"""Per-layer tracing installed from outside the engine.

The tracer wraps public functions and methods of the ``wreathdunkl``
modules, records spans (name, start, end, parent) and counts in memory, and
restores every original binding on ``restore``.  Nothing under ``src/`` is
changed, and untraced runs never import this module.

Three kinds of wrapper:

* ``count``: call counts only.  Used for the scalar kernels, which run
  millions of times, where a timer would dominate what it measures.
* ``time``: inclusive and self time aggregated by name, no span records.
  Used for the fine-grained polyalg and opalg operators.
* ``span``: as ``time``, and each call is also kept as a span record.

Self time is a call's duration minus the time its traced children cover.
Inclusive time (``.s``) counts only the outermost activation of a name, so
recursion is not double counted.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PKG = "wreathdunkl"
# Kernel calls are counted where they cross the backend selector, so the
# counts are the same whichever backend is selected; the implementation
# modules' own bindings stay unwrapped.
SKIP_MODULES = {f"{PKG}._kernels_py", f"{PKG}._kernels_cy"}


# Metrics the result hooks below produce, besides each target's own
# ``.calls`` (and ``.s`` and ``.self_s`` when timed).
HOOK_COUNTS = (
    "kernels.poly_mul.out_terms",
    "polyalg.divide_exact.fail",
    "opalg.op_compose.out_terms",
    "opalg.op_compose.spin_calls",
    "groups.enumerate_subgroup.elements",
    "static.chain_terms",
)
HOOK_TOTALS = ("polyalg.divide_exact.fail_s",)
MAXIMA = ("polyalg.num_terms.max", "polyalg.den_factors.max", "polyalg.coeff_bits.max")


def _rational_sizes(tr, result, args, elapsed):
    """Largest numerator, denominator and coefficient seen in a result."""
    terms = result.num.terms
    tr.maxima["polyalg.num_terms.max"] = max(
        tr.maxima["polyalg.num_terms.max"], len(terms)
    )
    tr.maxima["polyalg.den_factors.max"] = max(
        tr.maxima["polyalg.den_factors.max"], len(result.den)
    )
    bits = tr.maxima["polyalg.coeff_bits.max"]
    for num, den in terms.values():
        bits = max(bits, den.bit_length(), *(abs(v).bit_length() for v in num))
    tr.maxima["polyalg.coeff_bits.max"] = bits


def _divide_outcome(tr, result, args, elapsed):
    if result is None:
        tr.counts["polyalg.divide_exact.fail"] += 1
        tr.totals["polyalg.divide_exact.fail_s"] += elapsed


def _compose_sizes(tr, result, args, elapsed):
    tr.counts["opalg.op_compose.out_terms"] += len(result.terms)
    if args[0].spin_dim > 1:
        tr.counts["opalg.op_compose.spin_calls"] += 1


def _enumerated(tr, result, args, elapsed):
    tr.counts["groups.enumerate_subgroup.elements"] += len(result)


def _chain_terms(tr, result, args, elapsed):
    tr.counts["static.chain_terms"] += len(result.terms)


def _poly_terms(tr, result, args, elapsed):
    tr.counts["kernels.poly_mul.out_terms"] += len(result)


# (module, class or None, attribute, metric prefix, kind, result hook)
TARGETS = [
    ("_kernels", None, "scalar_mul", "kernels.scalar_mul", "count", None),
    ("_kernels", None, "scalar_add", "kernels.scalar_add", "count", None),
    ("_kernels", None, "poly_mul", "kernels.poly_mul", "count", _poly_terms),
    ("_kernels", None, "poly_add", "kernels.poly_add", "count", None),
    ("cyclotomic", "CycloScalar", "inverse", "cyclotomic.inverse", "count", None),
    ("polyalg", "LaurentPoly", "divide_exact", "polyalg.divide_exact", "time", _divide_outcome),
    ("polyalg", "LaurentPoly", "__mul__", "polyalg.laurent_mul", "time", None),
    ("polyalg", "RationalCoefficient", "__add__", "polyalg.rational_add", "time", _rational_sizes),
    ("polyalg", "RationalCoefficient", "__mul__", "polyalg.rational_mul", "time", _rational_sizes),
    ("polyalg", "RationalCoefficient", "act", "polyalg.rational_act", "time", None),
    ("polyalg", "RationalCoefficient", "euler", "polyalg.rational_euler", "time", None),
    ("polyalg", "RationalCoefficient", "__eq__", "polyalg.rational_eq", "time", None),
    ("opalg", None, "op_compose", "opalg.op_compose", "span", _compose_sizes),
    ("opalg", "MixedOperator", "__add__", "opalg.add", "time", None),
    ("opalg", "MixedOperator", "__eq__", "opalg.eq", "time", None),
    ("groups", None, "relation_suite", "groups.relation_suite", "span", None),
    ("groups", None, "enumerate_subgroup", "groups.enumerate_subgroup", "span", _enumerated),
    ("dunkl", None, "build_dunkl", "dunkl.build_dunkl", "span", None),
    ("dunkl", None, "build_charge", "dunkl.build_charge", "span", None),
    ("dunkl", None, "build_hamiltonian", "dunkl.build_hamiltonian", "span", None),
    ("dunkl", None, "check_hecke_relations", "dunkl.check_hecke_relations", "span", None),
    ("dunkl", None, "check_recursion", "dunkl.check_recursion", "span", None),
    ("dunkl", None, "rotation_average_check", "dunkl.rotation_average_check", "span", None),
    ("dunkl", None, "reduction_check", "dunkl.reduction_check", "span", None),
    ("dunkl", None, "hamiltonian_check", "dunkl.hamiltonian_check", "span", None),
    ("dunkl", None, "charge_commutation_check", "dunkl.charge_commutation_check", "span", None),
    ("static", None, "build_static_hamiltonian", "static.build_static_hamiltonian", "span", None),
    ("static", None, "build_frozen_hamiltonian", "static.build_frozen_hamiltonian", "span", _chain_terms),
    ("static", None, "static_display_check", "static.static_display_check", "span", None),
    ("static", None, "freezing_identity_check", "static.freezing_identity_check", "span", None),
    ("static", "LatticeConfig", "residuals", "static.residuals", "span", None),
    ("spinrep", None, "spin_matrix_of_element", "spinrep.spin_matrix_of_element", "span", None),
    ("spinrep", None, "spin_representation_check", "spinrep.spin_representation_check", "span", None),
    ("spinrep", None, "build_projector", "spinrep.build_projector", "span", None),
    ("spinrep", None, "projector_check", "spinrep.projector_check", "span", None),
    ("spinrep", None, "substitute_spin", "spinrep.substitute_spin", "span", None),
    ("spinrep", None, "verify_agreement", "spinrep.verify_agreement", "span", None),
    ("spinrep", None, "frozen_spin_matrix", "spinrep.frozen_spin_matrix", "span", None),
    ("spinrep", None, "diagonalize_hermitian", "spinrep.diagonalize_hermitian", "span", None),
    ("spinrep", None, "brute_force_eigvals", "spinrep.brute_force_eigvals", "span", None),
    ("spinrep", None, "char_poly_exact", "spinrep.char_poly_exact", "span", None),
    ("cli", None, "main", "cli.main", "span", None),
    ("cli", None, "cmd_verify", "cli.cmd_verify", "span", None),
    ("cli", None, "cmd_spectrum", "cli.cmd_spectrum", "span", None),
]


def binding_snapshot() -> dict:
    """Every module- and class-level binding of the loaded package."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PKG or modname.startswith(PKG + ".")):
            continue
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    snap[(modname, attr, cattr)] = cvalue
    return snap


def changed_bindings(before: dict, after: dict) -> list:
    """Keys whose binding is not the identical object in both snapshots."""
    return sorted(
        str(k) for k in before.keys() | after.keys()
        if k not in before or k not in after or before[k] is not after[k]
    )


class Tracer:
    """Spans and counts of one traced pass; install, run, restore."""

    def __init__(self):
        # every metric exists from the start, so an uncalled layer reads 0
        self.counts = dict.fromkeys(HOOK_COUNTS, 0)
        self.totals = dict.fromkeys(HOOK_TOTALS, 0.0)
        self.maxima = dict.fromkeys(MAXIMA, 0)
        for _, _, _, name, kind, _ in TARGETS:
            self.counts[name + ".calls"] = 0
            if kind != "count":
                self.totals[name + ".s"] = self.totals[name + ".self_s"] = 0.0
        self.spans = []  # (name, start, end, parent index or -1)
        self._stack = []  # [name, start, child time, span index, parent span]
        self._active = defaultdict(int)
        self._patches = []

    # -- timing ---------------------------------------------------------------

    def _open(self, name: str, keep: bool) -> list:
        # a span's parent is the nearest enclosing call that keeps a span
        parent = self._stack[-1][4] if self._stack else -1
        index = -1
        if keep:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._active[name] += 1
        frame = [name, time.perf_counter(), 0.0, index, index if keep else parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, index, _ = frame
        self._stack.pop()
        elapsed = end - start
        self._active[name] -= 1
        if not self._active[name]:
            self.totals[name + ".s"] += elapsed
        self.totals[name + ".self_s"] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        if index >= 0:
            self.spans[index][1:3] = [start, end]
        return elapsed

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name, kind, hook):
        counts = self.counts

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, result, args, None)
                return result

            return counted

        keep = kind == "span"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[name + ".calls"] += 1
            frame = self._open(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self._close(frame)
            if hook is not None:
                hook(self, result, args, elapsed)
            return result

        return timed

    def install(self):
        """Wrap every binding of every target in the loaded package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None
            and (name == PKG or name.startswith(PKG + "."))
            and name not in SKIP_MODULES
        }
        for modname, clsname, attr, name, kind, hook in TARGETS:
            home = modules[f"{PKG}.{modname}"]
            if clsname is not None:
                cls = getattr(home, clsname)
                original = vars(cls)[attr]
                wrapper = self._wrap(original, name, kind, hook)
                # aliases such as __radd__ = __add__ share the wrapper
                for alias, value in list(vars(cls).items()):
                    if value is original:
                        self._patch(cls, alias, original, wrapper)
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, name, kind, hook)
            for mod in modules.values():
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every original binding, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Flat name -> number map of counts, times and maxima."""
        out = dict(self.counts)
        out.update(self.totals)
        out.update(self.maxima)
        calls = self.counts["polyalg.divide_exact.calls"]
        fails = self.counts["polyalg.divide_exact.fail"]
        out["polyalg.divide_exact.fail_frac"] = fails / calls if calls else 0.0
        return out
