"""The four workloads: seeded inputs, set-up, timed checks and oracle checks.

Each workload is run in a fresh single-threaded process (see child.py):

* ``inputs(seed, round)`` runs in the parent and returns plain JSON data;
  the program sees nothing else that depends on the seed;
* ``setup(inputs)`` imports the program and builds the shared state;
* ``checks(state)`` is the timed closed loop, one check after the other,
  each ending in the program's own exact comparison; it returns the
  ``Checks`` tally and the outputs the oracle needs;
* ``oracle(inputs, state, outputs)`` re-checks the outputs with oracle.py
  after the clock has stopped and returns (checks made, mismatches).

A check fails when the program raises or its own comparison is false; a
mismatch is an output of a check that did not fail and that the oracle
rejects.
"""

from __future__ import annotations

import json
import random
from math import comb
from pathlib import Path

import oracle as orc

N = 5  # the Peterson-side workloads run at n = 5; see README for n = 6

# Reported by every untraced run: (name, unit).
END_TO_END = (
    ("total_s", "s"),
    ("setup_s", "s"),
    ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _rng(seed: int, round_index: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{round_index}")


def _hpoint_inputs(seed, round_index, salt, n):
    point = orc.random_hpoint(_rng(seed, round_index, salt), n)
    return [orc.to_text(v) for v in point.values[1:]]


class Checks:
    """Counts attempted and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def run(self, thunk) -> bool:
        """One check: True when the program's own comparison held."""
        self.attempted += 1
        try:
            ok = bool(thunk())
        except Exception as exc:  # a crash is a failed check, kept with its message
            self.errors.append(f"{type(exc).__name__}: {exc}")
            ok = False
        if not ok:
            self.failed += 1
        return ok


# -- phi-invariants-n5 --------------------------------------------------------


class PhiInvariants:
    name = "phi-invariants-n5"
    setup_repeats = 5

    @staticmethod
    def inputs(seed, round_index):
        return {"h": _hpoint_inputs(seed, round_index, "phi", N)}

    @staticmethod
    def setup(inputs):
        from kpeterson.peterson import phi_context, tau_sigma
        from kpeterson.toda import f_invariant

        tau_sigma(N)
        ctx = phi_context(N)
        sources = {i: f_invariant(N, i) for i in range(1, N + 1)}
        return {"ctx": ctx, "sources": sources}

    @staticmethod
    def checks(state):
        ctx, log, outputs = state["ctx"], Checks(), []
        for i, source in state["sources"].items():
            image = None

            def check(i=i, source=source):
                nonlocal image
                image = ctx.apply_frac(source, reduce_result=False)
                return image == comb(N, i)

            if log.run(check):
                outputs.append((i, source, image))
        return log, outputs

    @staticmethod
    def oracle(inputs, state, outputs):
        at = orc.PhiPoint(orc.HPoint(map(orc.from_text, inputs["h"])), N)
        values, bad, made = at.values(), [], 0
        for i, source, image in outputs:
            expected = at.f_value(N, i)
            made += 3
            if expected != comb(N, i):
                bad.append(f"F_{i}(z*, Q*) = {expected}, not C({N},{i})")
            if orc.eval_poly(source, values) != expected:
                bad.append(f"source F_{i} disagrees at (z*, Q*)")
            if at.locfrac(image) != expected:
                bad.append(f"Phi_{N}(F_{i})(h*) != F_{i}(z*, Q*)")
        return made, bad


# -- gq-images-n5 ---------------------------------------------------------------


def _example_7_3_rows(root: Path):
    with open(root / "src" / "kpeterson" / "data" / "tables.json") as fh:
        return json.load(fh)["gtilde_factored_n5"]


class GQImages:
    name = "gq-images-n5"
    setup_repeats = 1  # one set-up costs over 10 s; it is not repeated

    @staticmethod
    def inputs(seed, round_index):
        return {"h": _hpoint_inputs(seed, round_index, "gq", N)}

    @staticmethod
    def setup(inputs):
        from itertools import permutations

        from kpeterson.partitions import Permutation
        from kpeterson.peterson import phi_context, tau_sigma
        from kpeterson.quantum import phi_f_image, quantize_context

        table = tau_sigma(N)
        ctx = phi_context(N)
        qctx = quantize_context(N)
        # phi(F^(m)_i) for every m < n: the entries phi_groth_image uses
        f_images = {(m, i): phi_f_image(N, m, i) for m in range(1, N) for i in range(m + 1)}
        perms = [Permutation(w) for w in permutations(range(1, N + 1))]
        return {"table": table, "ctx": ctx, "qctx": qctx, "f_images": f_images, "perms": perms}

    @staticmethod
    def checks(state):
        from kpeterson.grothendieck import dual_groth
        from kpeterson.partitions import Partition, Permutation, complement, partitions_in_rectangle
        from kpeterson.quantum import g_tilde, grassmannian_perm, lambda_map, phi_groth_image

        ctx, table, log = state["ctx"], state["table"], Checks()
        out = {"images": {}, "theorem": [], "example": [], "fibers": []}

        for w in state["perms"]:
            def image_check(w=w):
                image, numerator = phi_groth_image(w), g_tilde(w)
                out["images"][w.images] = (image, numerator)
                return numerator.in_lambda_n(N)

            log.run(image_check)

        for d in range(1, N):
            for lam in partitions_in_rectangle(d, N - d):
                def theorem_check(d=d, lam=lam):
                    w = grassmannian_perm(lam, d, N)
                    lhs = phi_groth_image(w) * ctx.from_symfunc(table.tau[d])
                    ok = lhs == ctx.from_symfunc(dual_groth(complement(lam, d, N)))
                    out["theorem"].append((d, lam.parts, w.images, phi_groth_image(w)))
                    return ok

                log.run(theorem_check)

        for row in _example_7_3_rows(state["root"]):
            def example_check(row=row):
                w = Permutation.from_text(row["w"])
                expected = dual_groth(Partition.from_text(row["factors"][0]))
                for text in row["factors"][1:]:
                    expected = expected * dual_groth(Partition.from_text(text))
                value = g_tilde(w)
                out["example"].append((w.images, row["factors"], value))
                return value == expected

            log.run(example_check)

        fibers: dict = {}
        for w in state["perms"]:
            fibers.setdefault(lambda_map(w).partition, []).append(w)
        for members in fibers.values():
            def fiber_check(members=members):
                first = g_tilde(members[0])
                out["fibers"].append([w.images for w in members])
                return all(g_tilde(w) == first for w in members[1:])

            log.run(fiber_check)
        return log, out

    @staticmethod
    def oracle(inputs, state, out):
        at = orc.PhiPoint(orc.HPoint(map(orc.from_text, inputs["h"])), N)
        point, bad, made = at.point, [], 0

        # the f-table built at set-up: Phi(F^(m)_i)(h*) = F^(m)_i(z*, Q*)
        for (m, i), image in state["f_images"].items():
            made += 1
            if at.locfrac(image) != at.f_value(m, i):
                bad.append(f"Phi(F^({m})_{i}) disagrees at h*")

        # the dense inverse built at set-up, by Freivalds' test against the
        # f-monomial matrix built here: M (M^-1 r) = r for a random r
        qctx = state["qctx"]
        inverse = [[orc.frac(x) for x in row] for row in qctx.inverse.rows]
        stair = {e: r for r, e in enumerate(qctx.staircase)}
        size = len(qctx.staircase)
        matrix = [[orc.Fraction(0)] * size for _ in range(size)]
        for c, exps in enumerate(qctx.basis):
            for e, coeff in orc.f_monomial(N, exps).items():
                matrix[stair[e]][c] = coeff
        rng = random.Random(inputs["h"][0])
        probe = [orc.random_rational(rng) for _ in range(size)]
        mid = [sum((a * b for a, b in zip(row, probe) if a), orc.Fraction(0)) for row in inverse]
        made += 1
        if [sum((a * b for a, b in zip(row, mid) if a), orc.Fraction(0)) for row in matrix] != probe:
            bad.append("quantize_context inverse fails M (M^-1 r) = r")

        # Phi(G^Q_w)(h*) = G^Q_w(z*, Q*) = sum_a c_a(w) F_a(z*, Q*) with
        # c(w) = M^-1 coords(G_w): fold F_a(z*, Q*) through M^-1 once
        f_at = []
        for exps in qctx.basis:
            value = orc.Fraction(1)
            for j, i in enumerate(exps, start=1):
                if i:
                    value *= at.f_value(j, i)
            f_at.append(value)
        folded = [orc.Fraction(0)] * size
        for c, row in enumerate(inverse):
            for r, a in enumerate(row):
                if a:
                    folded[r] += a * f_at[c]
        groth = orc.Grothendieck()
        images = out["images"]
        made += 1
        if sorted(images) != sorted(orc.permutations_of(N)):
            bad.append("the image sweep does not cover S_n")
        values = {}
        for w, (image, numerator) in images.items():
            expected = sum((c * folded[stair[e]] for e, c in groth(w).items()), orc.Fraction(0))
            value = at.locfrac(image)
            values[w] = point.symfunc(numerator)
            clearing = orc.Fraction(1)
            for i in orc.descents(w):
                clearing *= at.tau[i]
            made += 2
            if value != expected:
                bad.append(f"Phi(G^Q_{w})(h*) != G^Q_w(z*, Q*)")
            if values[w] != value * clearing:
                bad.append(f"g_tilde({w}) != Phi(G^Q_w) * tau(Des)")

        seen = []
        for d, lam, w, image in out["theorem"]:
            seen.append((d, lam))
            made += 2
            if w != orc.grassmannian(lam, d, N):
                bad.append(f"grassmannian_perm({lam}, {d}) = {w}")
            if at.locfrac(image) * at.tau[d] != point.g(orc.complement(lam, d, N)):
                bad.append(f"Theorem 1.5 fails at d={d}, lambda={lam}")
        made += 1
        expected_pairs = [(d, lam) for d in range(1, N) for lam in orc.rectangle_partitions(d, N - d)]
        if sorted(seen) != sorted(expected_pairs):
            bad.append("the Theorem 1.5 sweep does not cover every (d, lambda)")

        for w, factors, value in out["example"]:
            expected = orc.Fraction(1)
            for text in factors:
                expected *= point.g(tuple(int(p) for p in text.split(",")))
            made += 1
            if point.symfunc(value) != expected:
                bad.append(f"Example 7.3 factorization fails at w={w}")

        for members in out["fibers"]:
            made += 1
            if len({values[w] for w in members}) != 1:
                bad.append(f"g_tilde not constant on the fiber of {members[0]}")
        return made, bad


# -- toda-roundtrip ----------------------------------------------------------------

TODA_POINTS_PER_N = 60


def _lax(z, Q):
    """L = A B^-1 with A upper bidiagonal (z_i, -1) and B unipotent lower
    bidiagonal (-Q_i z_i), together with A and B."""
    n = len(z)
    A = [[orc.Fraction(0)] * n for _ in range(n)]
    B = [[orc.Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        A[i][i] = z[i]
        if i + 1 < n:
            A[i][i + 1] = orc.Fraction(-1)
            B[i + 1][i] = -Q[i] * z[i]
    return orc.matmul(A, orc.lower_unipotent_inverse(B)), A, B


def _toda_point(rng, n):
    """A random rational point of the open locus: non-zero z with product 1,
    non-zero Q, every trailing principal minor of L non-zero."""
    while True:
        z = [orc.random_rational(rng) for _ in range(n - 1)]
        prod = orc.Fraction(1)
        for v in z:
            prod *= v
        z.append(1 / prod)
        Q = [orc.random_rational(rng) for _ in range(n - 1)]
        L = _lax(z, Q)[0]
        if all(orc.det([row[i:] for row in L[i:]]) for i in range(1, n)):
            return z, Q


class TodaRoundtrip:
    name = "toda-roundtrip"
    setup_repeats = 5

    @staticmethod
    def inputs(seed, round_index):
        rng = _rng(seed, round_index, "toda")
        points = []
        for n in range(2, 6):
            for _ in range(TODA_POINTS_PER_N):
                z, Q = _toda_point(rng, n)
                points.append({"z": [orc.to_text(v) for v in z], "Q": [orc.to_text(v) for v in Q]})
        return {"points": points}

    @staticmethod
    def setup(inputs):
        import kpeterson.quantum  # noqa: F401  (fq_poly_z, used by the U-entry identity)
        import kpeterson.toda  # noqa: F401

        return {}

    @staticmethod
    def checks(state):
        from kpeterson.scalars import Rational
        from kpeterson.toda import TodaPoint

        log, outputs = Checks(), []
        for data in state["inputs"]["points"]:
            z = tuple(Rational(*_ratio(v)) for v in data["z"])
            Q = tuple(Rational(*_ratio(v)) for v in data["Q"])
            pt = TodaPoint(len(z), z, Q)
            record = {}
            if log.run(lambda: _toda_trial(pt, record)):
                outputs.append((data, record))
        return log, outputs

    @staticmethod
    def oracle(inputs, state, outputs):
        bad, made = [], 0
        for data, record in outputs:
            z = [orc.from_text(v) for v in data["z"]]
            Q = [orc.from_text(v) for v in data["Q"]]
            n = len(z)
            L, A, B = _lax(z, Q)
            F = [orc.f_value(n, n, i, z, Q) for i in range(1, n + 1)]
            char = orc.char_poly(L)
            made += 5
            if [orc.frac(g) for g in record["gamma"]] != F:
                bad.append(f"gamma_of_point disagrees with F_i at {data}")
            if char[1:] != [(-1) ** i * F[i - 1] for i in range(1, n + 1)]:
                bad.append(f"char poly of L is not sum (-1)^i F_i at {data}")
            if [orc.frac(v) for v in record["point"][0]] != z or [
                orc.frac(v) for v in record["point"][1]
            ] != Q:
                bad.append(f"beta(alpha(pt)) != pt at {data}")
            if [[orc.frac(x) for x in row] for row in record["L"]] != L:
                bad.append(f"beta's Lax matrix is not A B^-1 at {data}")
            # alpha(pt) = Delta_11(zeta B - A) = char poly of A' B'^-1 on the
            # trailing (n-1) x (n-1) blocks, since B' is unipotent
            tail = orc.char_poly(
                orc.matmul(
                    [row[1:] for row in A[1:]], orc.lower_unipotent_inverse([row[1:] for row in B[1:]])
                )
            )
            if _zeta_coeffs([orc.frac(c) for c in record["alpha"]]) != tail[::-1]:
                bad.append(f"alpha(pt) is not Delta_11(zeta B - A) at {data}")
        return made, bad


def _ratio(text):
    value = orc.from_text(text)
    return value.numerator, value.denominator


def _zeta_coeffs(c):
    """Ascending zeta-coefficients of sum_i (-1)^i c_i (zeta - 1)^i."""
    n = len(c)
    out = [orc.Fraction(0)] * n
    for i, ci in enumerate(c):
        for j in range(i + 1):
            out[j] += (-1) ** j * comb(i, j) * ci
    return out


def _toda_trial(pt, record):
    """The round trip and the R-entry, T/S-minor and U-entry identities of
    the toda-roundtrip suite, through the public toda functions."""
    from kpeterson.quantum import fq_poly_z
    from kpeterson.scalars import Rational
    from kpeterson.toda import (
        alpha,
        beta_full,
        gamma_of_point,
        minor_formulas,
        phi_of_companion,
        ru_ratio_formula,
    )

    n = pt.n
    params = gamma_of_point(pt)
    phi = alpha(pt)
    bd = beta_full(phi, params)
    record.update(
        gamma=params.gamma, alpha=phi.c, point=(bd.point.z, bd.point.Q), L=bd.L.rows
    )
    if bd.point != pt or alpha(bd.point) != phi:
        return False
    X = phi_of_companion(phi, params)
    expect_det_r = Rational((-1) ** (n * (n - 1) // 2))
    for i in range(1, n):
        expect_det_r *= pt.Q[i - 1] ** (n - i)
    if bd.R.det() != expect_det_r:
        return False
    prod_q = Rational(1)
    for i in range(1, n):
        prod_q *= pt.Q[i - 1]
        if bd.R[i + 1, i] != Rational((-1) ** (n - i - 1)) * prod_q:
            return False
        if bd.R[i + 1, i] != ru_ratio_formula(X, i):
            return False
    if not minor_formulas(phi, params):
        return False
    for i in range(1, n):
        minor = bd.L.minor(range(i + 1, n + 1), range(i + 1, n + 1))
        if minor != bd.S[i - 1] / bd.T[i - 1]:
            return False
    T = (Rational(1),) + bd.T
    S = (Rational(1),) + bd.S
    for i in range(1, n + 1):
        if pt.z[i - 1] != T[i] * S[i - 1] / (S[i] * T[i - 1]):
            return False
    for i in range(1, n):
        if pt.Q[i - 1] != T[i - 1] * T[i + 1] / (T[i] ** 2):
            return False
    vals = {f"z{i}": pt.z[i - 1] for i in range(1, n + 1)}
    vals.update({f"Q{i}": pt.Q[i - 1] for i in range(1, n)})
    for i in range(2, n + 1):
        for j in range(1, i):
            expect = Rational((-1) ** (j - 1)) * fq_poly_z(n, i - 1, i - j).evaluate(vals)
            if bd.U[i, j] != expect:
                return False
    return True


# -- symfunc-combinatorics ---------------------------------------------------------

D_SPECS_PER_D = 8  # per (n, d): a fixed mix of sizes keeps the work per seed steady


class SymfuncCombinatorics:
    name = "symfunc-combinatorics"
    setup_repeats = 5

    @staticmethod
    def inputs(seed, round_index):
        rng = _rng(seed, round_index, "symfunc")
        specs = []
        for n in range(3, 7):
            for d in range(1, n):
                for _ in range(D_SPECS_PER_D):
                    theta = [rng.randint(-3, n) for _ in range(d)]
                    a = [rng.randint(0, n) for _ in range(d)]
                    specs.append([n, theta, a])
        point = orc.HPoint([orc.random_rational(rng) for _ in range(orc.H_COUNT)])
        x = [orc.random_rational(rng) for _ in range(N)]
        return {
            "specs": specs,
            "h": [orc.to_text(v) for v in point.values[1:]],
            "x": [orc.to_text(v) for v in x],
        }

    @staticmethod
    def setup(inputs):
        import kpeterson.grothendieck  # noqa: F401
        import kpeterson.peterson  # noqa: F401
        import kpeterson.quantum  # noqa: F401

        return {}

    @staticmethod
    def checks(state):
        from kpeterson.grothendieck import klr_coeff, stable_groth_vars
        from kpeterson.partitions import Partition, all_partitions_up_to, complement, partitions_in_rectangle
        from kpeterson.peterson import DSpec, d_base_check, d_det, d_recursion_check, skew_rectangle_check
        from kpeterson.quantum import grassmannian_perm, groth_poly

        log = Checks()
        out = {"d": [], "klr": [], "buch": []}

        for n, theta, a in state["inputs"]["specs"]:
            spec = DSpec(tuple(theta), tuple(a), n)
            if log.run(lambda: d_recursion_check(spec)):
                out["d"].append(("D", n, spec.theta, spec.a, d_det(spec)))

        for n in range(3, 7):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    a = tuple(n - j - lam.part(d + 1 - j) for j in range(1, d + 1))
                    if log.run(lambda: d_base_check(lam, d, n)):
                        out["d"].append(("schur", n, lam.parts, a, d_det(DSpec((0,) * d, a, n))))

        for n in range(2, 7):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    theta = tuple(d - (lam.part(d + 1 - i) + i) for i in range(1, d + 1))
                    if log.run(lambda: skew_rectangle_check(lam, d, n)):
                        zeros = (0,) * d
                        out["d"].append(("D", n, theta, zeros, d_det(DSpec(theta, zeros, n))))

        for n in range(2, 7):
            for d in range(1, min(3, n - 1) + 1):
                rect = Partition.rectangle(d, n - d)
                for lam in partitions_in_rectangle(d, n - d):
                    def klr_check(n=n, d=d, lam=lam, rect=rect):
                        target = complement(lam, d, n)
                        found = []
                        for mu in all_partitions_up_to(rect.weight):
                            coeff = klr_coeff(lam, mu, rect)
                            found.append((mu.parts, coeff))
                            if coeff != (1 if mu == target else 0):
                                return False
                        out["klr"].append((n, d, lam.parts, found))
                        return True

                    log.run(klr_check)

        for n in range(2, N + 1):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    def buch_check(n=n, d=d, lam=lam):
                        w = grassmannian_perm(lam, d, n)
                        gp = groth_poly(w)
                        sg = stable_groth_vars(lam, d)
                        out["buch"].append((n, d, lam.parts, w.images, gp, sg))
                        return gp == sg.with_vars(gp.vars)

                    log.run(buch_check)
        return log, out

    @staticmethod
    def oracle(inputs, state, out):
        point = orc.HPoint(map(orc.from_text, inputs["h"]))
        x = [orc.from_text(v) for v in inputs["x"]]
        bad, made = [], 0
        for kind, n, lam_or_theta, a, value in out["d"]:
            made += 1
            if kind == "schur":
                expected = point.schur(lam_or_theta)
            else:
                expected = point.d_value(lam_or_theta, a, n)
            if point.symfunc(value) != expected:
                bad.append(f"{kind} value wrong at n={n}, {lam_or_theta}; {a}")
        for n, d, lam, found in out["klr"]:
            made += 2
            rect_weight = d * (n - d)
            if sorted(mu for mu, _ in found) != orc.partitions_up_to(rect_weight):
                bad.append(f"K-LR sweep at n={n}, d={d}, lambda={lam} misses partitions")
            target = orc.complement(lam, d, n)
            if any(coeff != int(mu == target) for mu, coeff in found):
                bad.append(f"K-LR rule fails at n={n}, d={d}, lambda={lam}")
        groth = orc.Grothendieck()
        for n, d, lam, w, gp, sg in out["buch"]:
            made += 2
            values = {f"x{i}": x[i - 1] for i in range(1, n + 1)}
            expected = orc.eval_dict_poly(groth(w), x[:n])
            if w != orc.grassmannian(lam, d, n):
                bad.append(f"grassmannian_perm({lam}, {d}, {n}) = {w}")
            if orc.eval_poly(gp, values) != expected or orc.eval_poly(sg, values) != expected:
                bad.append(f"G_lambda(x_1..x_d) != G_w at n={n}, lambda={lam}")
        return made, bad


WORKLOADS = {
    wl.name: wl for wl in (PhiInvariants, GQImages, TodaRoundtrip, SymfuncCombinatorics)
}
