"""Per-layer spans and exact work counts, recorded from outside the program.

``Tracer.install`` wraps public functions and methods of the kpeterson
modules at run time.  Every module namespace and class attribute that holds
the same object is rebound, so calls through re-imported names and method
aliases (``__radd__ = __add__``) are seen too.  No program module is edited.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Spans and counts are kept in memory; ``snapshot`` turns them into
the per-layer metrics once, at the end of the checks.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (metric prefix, module, class or None, attribute names).  The exact
# rational scalars get no span: wrapping every Fraction operation would
# distort every number, so their cost shows in the self time of callers.
TARGETS = (
    ("polynomials.mul", "kpeterson.polynomials", "Poly", ("__mul__",)),
    ("polynomials.add", "kpeterson.polynomials", "Poly", ("__add__", "__sub__", "__rsub__")),
    ("polynomials.exact_div", "kpeterson.polynomials", "Poly", ("exact_div",)),
    ("peterson.apply_frac", "kpeterson.peterson", "PhiContext", ("apply_frac",)),
    ("peterson.locfrac.add", "kpeterson.peterson", "LocFrac", ("__add__", "__sub__")),
    ("peterson.locfrac.mul", "kpeterson.peterson", "LocFrac", ("__mul__", "__pow__")),
    ("peterson.locfrac.eq", "kpeterson.peterson", "LocFrac", ("__eq__",)),
    ("peterson.tau_sigma", "kpeterson.peterson", None, ("tau_sigma",)),
    ("peterson.phi_context", "kpeterson.peterson", None, ("phi_context",)),
    ("peterson.d_det", "kpeterson.peterson", None, ("d_det",)),
    ("peterson.kappa", "kpeterson.peterson", None, ("kappa",)),
    ("quantum.quantize_context", "kpeterson.quantum", None, ("quantize_context",)),
    ("quantum.phi_f_image", "kpeterson.quantum", None, ("phi_f_image",)),
    ("quantum.expand", "kpeterson.quantum", "QuantizeContext", ("expand",)),
    ("quantum.phi_groth_image", "kpeterson.quantum", None, ("phi_groth_image",)),
    ("quantum.g_tilde", "kpeterson.quantum", None, ("g_tilde",)),
    ("quantum.groth_poly", "kpeterson.quantum", None, ("groth_poly",)),
    ("matrices.inverse", "kpeterson.matrices", "RingMatrix", ("inverse",)),
    ("matrices.det", "kpeterson.matrices", "RingMatrix", ("det",)),
    ("matrices.solve", "kpeterson.matrices", "RingMatrix", ("solve",)),
    ("toda.alpha", "kpeterson.toda", None, ("alpha",)),
    ("toda.beta_full", "kpeterson.toda", None, ("beta_full",)),
    ("toda.phi_of_companion", "kpeterson.toda", None, ("phi_of_companion",)),
    ("toda.ts_functions", "kpeterson.toda", None, ("ts_functions",)),
    ("toda.ru_decompose", "kpeterson.toda", None, ("ru_decompose",)),
    ("toda.minor_formulas", "kpeterson.toda", None, ("minor_formulas",)),
    ("symfunc.mul", "kpeterson.symfunc", "SymFunc", ("__mul__",)),
    ("symfunc.p_basis", "kpeterson.symfunc", None, ("to_p_dict", "from_p_dict", "p_perp", "perp")),
    ("grothendieck.dual_groth", "kpeterson.grothendieck", None, ("dual_groth",)),
    ("grothendieck.klr_coeff", "kpeterson.grothendieck", None, ("klr_coeff",)),
    ("grothendieck.stable_groth_vars", "kpeterson.grothendieck", None, ("stable_groth_vars",)),
    ("grothendieck.tableaux", "kpeterson.grothendieck", "SetValuedTableau", ("__init__",)),
    (
        "partitions",
        "kpeterson.partitions",
        None,
        (
            "conjugate",
            "complement",
            "partitions_in_rectangle",
            "partitions_of",
            "all_partitions_up_to",
            "all_permutations",
        ),
    ),
)

# Metrics reported by a traced run: (name, unit).  Counts repeat exactly for
# one seed; self times do not.
PER_LAYER = (
    ("polynomials.mul.calls", "count"),
    ("polynomials.mul.term_pairs", "count"),
    ("polynomials.mul.self_s", "s"),
    ("polynomials.peak_terms", "count"),
    ("polynomials.exact_div.calls", "count"),
    ("polynomials.exact_div.failed", "count"),
    ("polynomials.exact_div.self_s", "s"),
    ("polynomials.add.self_s", "s"),
    ("peterson.apply_frac.self_s", "s"),
    ("peterson.locfrac.add.calls", "count"),
    ("peterson.locfrac.add.self_s", "s"),
    ("peterson.locfrac.mul.self_s", "s"),
    ("peterson.locfrac.eq.self_s", "s"),
    ("peterson.tau_sigma.self_s", "s"),
    ("peterson.phi_context.self_s", "s"),
    ("quantum.quantize_context.self_s", "s"),
    ("matrices.inverse.self_s", "s"),
    ("quantum.phi_f_image.self_s", "s"),
    ("quantum.expand.self_s", "s"),
    ("quantum.phi_groth_image.self_s", "s"),
    ("quantum.g_tilde.self_s", "s"),
    ("quantum.groth_poly.self_s", "s"),
    ("toda.alpha.self_s", "s"),
    ("toda.beta_full.self_s", "s"),
    ("toda.phi_of_companion.self_s", "s"),
    ("toda.ts_functions.self_s", "s"),
    ("toda.ru_decompose.self_s", "s"),
    ("toda.minor_formulas.self_s", "s"),
    ("matrices.det.calls", "count"),
    ("matrices.det.self_s", "s"),
    ("matrices.solve.self_s", "s"),
    ("symfunc.mul.calls", "count"),
    ("symfunc.mul.self_s", "s"),
    ("symfunc.p_basis.self_s", "s"),
    ("peterson.d_det.calls", "count"),
    ("peterson.d_det.self_s", "s"),
    ("peterson.kappa.self_s", "s"),
    ("grothendieck.dual_groth.self_s", "s"),
    ("grothendieck.klr_coeff.self_s", "s"),
    ("grothendieck.tableaux", "count"),
    ("grothendieck.stable_groth_vars.self_s", "s"),
    ("partitions.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # one [child time] cell per open span

    def install(self):
        for key, module_name, class_name, attrs in TARGETS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for attr in attrs:
                original = owner.__dict__[attr] if class_name else getattr(owner, attr)
                _rebind_everywhere(original, self._wrap(key, original))

    def _wrap(self, key, fn):
        before, after = _HOOKS.get(key, (None, None))
        counts = self.counts
        calls_key = key + ".calls"
        if key == "grothendieck.tableaux":

            def count_only(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return count_only

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self._timed(key, next, it)
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if before is not None:
                before(counts, args)
            result = self._timed(key, fn, *args, **kwargs)
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def _timed(self, key, fn, *args, **kwargs):
        cell = [0.0]
        stack = self._stack
        stack.append(cell)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            self.self_s[key] += elapsed - cell[0]
            if stack:
                stack[-1][0] += elapsed

    def snapshot(self) -> dict:
        """Every per-layer metric except the overhead, which needs the
        untraced run."""
        out = {}
        for name, _unit in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name != "trace.overhead_s":
                out[name] = self.counts.get(name, 0)
        return out


def _mul_pairs(counts, args):
    left, right = args[0], args[1]
    counts["polynomials.mul.term_pairs"] += len(left.terms) * (
        len(right.terms) if hasattr(right, "terms") else 1
    )


def _peak_terms(counts, result):
    if result is not None and hasattr(result, "terms"):
        if len(result.terms) > counts["polynomials.peak_terms"]:
            counts["polynomials.peak_terms"] = len(result.terms)


def _div_result(counts, result):
    if result is None:
        counts["polynomials.exact_div.failed"] += 1
    _peak_terms(counts, result)


_HOOKS = {
    "polynomials.mul": (_mul_pairs, _peak_terms),
    "polynomials.add": (None, _peak_terms),
    "polynomials.exact_div": (None, _div_result),
}


def _rebind_everywhere(original, replacement):
    """Point every kpeterson module attribute and class attribute that holds
    `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if not (name == "kpeterson" or name.startswith("kpeterson.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, type) and value.__module__.startswith("kpeterson"):
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)
