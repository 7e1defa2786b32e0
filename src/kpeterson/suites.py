"""Named verification suites with machine-readable reports.

Each suite is a list of cases; a case runs one exact identity and records
pass/fail with printable left/right values.  Conjecture-tier cases are
"reported": their agreement is recorded in the payload but they never fail
the process.  The report header names the scalar backend, the Python
version and the core count.  Reports are deterministic for fixed inputs,
seed and machine (the elapsed_ms fields aside).
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from dataclasses import dataclass
from importlib import resources
from math import comb

from . import __version__
from .grothendieck import dual_groth, klr_coeff, stable_groth_vars
from .partitions import (
    Partition,
    Permutation,
    all_partitions_up_to,
    all_permutations,
    complement,
    partitions_in_rectangle,
)
from .peterson import (
    DSpec,
    LocFrac,
    d_base_check,
    d_plain,
    d_recursion_check,
    kernel_det_identity,
    perp_d_check,
    phi_context,
    sigma_identity_check,
    tau_sigma,
)
from .polynomials import Poly
from .quantum import (
    _f_numerator,
    g_tilde,
    grassmannian_perm,
    groth_poly,
    k_conjugate,
    lambda_map,
    phi_groth_image,
    quantize,
    s_q_poly,
    NonPolynomialImageError,
)
from .scalars import Rational
from .symfunc import SymFunc, schur
from .toda import (
    alpha,
    beta_full,
    f_invariant,
    fq_poly_z,
    gamma_of_point,
    is_phi_of_companion,
    lax_matrix,
    partial_invariants,
    random_z_point,
    ru_ratio_formula,
)

DEFAULT_SEED = 20240801


@dataclass
class SuiteCase:
    id: str
    status: str  # pass | fail | reported
    lhs: str
    rhs: str
    elapsed_ms: int


@dataclass
class SuiteReport:
    suite: str
    cases: list
    seed: int
    version: str = __version__

    @property
    def failures(self) -> int:
        return sum(1 for c in self.cases if c.status == "fail")

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def to_json(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "version": self.version,
            "backend": f"{Rational.__module__}.{Rational.__qualname__}",
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "cases": [
                {
                    "id": c.id,
                    "status": c.status,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "elapsed_ms": c.elapsed_ms,
                }
                for c in self.cases
            ],
        }

    def summary(self) -> str:
        counts: dict = {}
        for c in self.cases:
            counts[c.status] = counts.get(c.status, 0) + 1
        body = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"suite {self.suite}: {len(self.cases)} cases ({body})"


def load_tables():
    text = resources.files("kpeterson.data").joinpath("tables.json").read_text()
    return json.loads(text)


# -- case helpers -----------------------------------------------------------------


def _case(case_id, thunk, tier="assert"):
    return (case_id, tier, thunk)


def _run_case(case):
    case_id, tier, thunk = case
    start = time.monotonic()
    try:
        ok, lhs, rhs = thunk()
    except Exception as exc:  # a crash is a failure with the error recorded
        ok, lhs, rhs = False, f"error: {exc}", ""
    elapsed = int((time.monotonic() - start) * 1000)
    if tier == "report":
        status = "reported"
        lhs = f"agree={str(ok).lower()}; {lhs}"
    else:
        status = "pass" if ok else "fail"
    return SuiteCase(case_id, status, lhs, rhs, elapsed)


def _eq_case(case_id, lhs_fn, rhs_fn, render=str, tier="assert"):
    def thunk():
        lhs, rhs = lhs_fn(), rhs_fn()
        return lhs == rhs, render(lhs), render(rhs)

    return _case(case_id, thunk, tier)


def _ns(n, default):
    return list(default) if n is None else [n]


# -- suite builders -----------------------------------------------------------------


def _suite_example_1_2(n, trials, rng):
    data = load_tables()["example_1_2"]
    table = tau_sigma(3)
    cases = []
    for name, value in (
        ("tau1", table.tau[1]),
        ("tau2", table.tau[2]),
        ("sigma1", table.sigma[1]),
        ("sigma2", table.sigma[2]),
    ):
        expected = SymFunc.from_json(data[name])
        cases.append(
            _eq_case(name, lambda v=value: v, lambda e=expected: e, lambda f: f.to_str())
        )
    return cases


def _suite_remarkable(n, trials, rng):
    cases = []
    for nn in _ns(n, (2, 3, 4, 5)):
        ctx = phi_context(nn)
        for i in range(1, nn + 1):
            def thunk(nn=nn, i=i, ctx=ctx):
                image = ctx.apply_frac(f_invariant(nn, i), reduce_result=False)
                expected = comb(nn, i)
                return image == expected, f"phi_{nn}(F_{i})", str(expected)

            cases.append(_case(f"n{nn}-F{i}", thunk))
    return cases


def _f_image_case(nn, m, i):
    ctx = phi_context(nn)
    image = ctx.apply_frac(fq_poly_z(nn, m, i), reduce_result=False)
    lhs = image * ctx.from_symfunc(tau_sigma(nn).tau[m])
    rhs = LocFrac(ctx, _f_numerator(nn, m, i), ctx.one.den)
    return lhs == rhs, f"phi(F^({m})_{i})*tau{m}", f"D(theta) of (1^{i}), d={m}"


def _suite_f_images(n, trials, rng):
    """phi(F^(m)_i) = D(theta)/tau_m against the substitution Phi_n: the
    unreduced image of F^(m)_i times tau_m equals the numerator D(theta)
    that phi_f_image and phi_groth_image read, by cross-multiplication with
    no division, for m < n and 0 <= i <= m.

    This suite is the only link between those numerators and the
    substitution.  The one-column -image cases of prop-6-chain compare the
    D-ratio with itself, since phi_s_q_image reads phi_f_image."""
    cases = []
    for nn in _ns(n, (3, 4, 5)):
        for m in range(1, nn):
            for i in range(m + 1):
                cases.append(
                    _case(
                        f"n{nn}-m{m}-i{i}",
                        lambda nn=nn, m=m, i=i: _f_image_case(nn, m, i),
                    )
                )
    return cases


def _theorem_1_5_case(nn, d, lam):
    ctx = phi_context(nn)
    w = grassmannian_perm(lam, d, nn)
    lhs = phi_groth_image(w) * ctx.from_symfunc(tau_sigma(nn).tau[d])
    rhs = ctx.from_symfunc(dual_groth(complement(lam, d, nn)))
    return lhs == rhs, f"phi(GQ_{w.to_text()})*tau{d}", f"g_({complement(lam, d, nn).to_text()})"


def _suite_theorem_1_5(n, trials, rng):
    cases = []
    for nn in _ns(n, (3, 4, 5)):
        for d in range(1, nn):
            for lam in partitions_in_rectangle(d, nn - d):
                cases.append(
                    _case(
                        f"n{nn}-d{d}-[{lam.to_text()}]",
                        lambda nn=nn, d=d, lam=lam: _theorem_1_5_case(nn, d, lam),
                    )
                )
    return cases


def _suite_example_7_3(n, trials, rng):
    rows = load_tables()["gtilde_factored_n5"]
    cases = []
    for row in rows:
        w = Permutation.from_text(row["w"])
        factors = [Partition.from_text(t) for t in row["factors"]]

        def thunk(w=w, factors=factors):
            expected = SymFunc.one()
            for f in factors:
                expected = expected * dual_groth(f)
            value = g_tilde(w)
            return value == expected, value.to_str(), expected.to_str()

        cases.append(_case(f"w{row['w']}", thunk))
    return cases


def _suite_lambda_tables(n, trials, rng):
    tables = load_tables()["lambda_tables"]
    cases = []
    for nn in _ns(n, (4, 5)):
        for row in tables[str(nn)]:
            w = Permutation.from_text(row["w"])
            lam = Partition.from_text(row["lam"])
            conj = Partition.from_text(row["conj"])

            def thunk(w=w, lam=lam, conj=conj, nn=nn):
                got = lambda_map(w).partition
                got_conj = k_conjugate(got, nn - 1)
                ok = got == lam and got_conj == conj
                return (
                    ok,
                    f"{got.to_text() or 'empty'} / {got_conj.to_text() or 'empty'}",
                    f"{lam.to_text() or 'empty'} / {conj.to_text() or 'empty'}",
                )

            cases.append(_case(f"n{nn}-w{row['w']}", thunk))
    return cases


def _suite_prop_5_1(n, trials, rng):
    cases = []
    for nn in _ns(n, (2, 3, 4, 5, 6)):
        for d in range(1, min(3, nn - 1) + 1):
            rect = Partition.rectangle(d, nn - d)
            for lam in partitions_in_rectangle(d, nn - d):
                def thunk(nn=nn, d=d, lam=lam, rect=rect):
                    target = complement(lam, d, nn)
                    for mu in all_partitions_up_to(rect.weight):
                        expected = 1 if mu == target else 0
                        if klr_coeff(lam, mu, rect) != expected:
                            return False, f"c_({lam.to_text()}),({mu.to_text()})^R", str(expected)
                    return True, "delta(lambda-complement, mu)", "delta(lambda-complement, mu)"

                cases.append(_case(f"n{nn}-d{d}-[{lam.to_text()}]", thunk))
    return cases


def _random_dspec(nn, rng):
    d = rng.randint(1, nn - 1)
    theta = tuple(rng.randint(-3, nn) for _ in range(d))
    a = tuple(rng.randint(0, nn) for _ in range(d))
    return DSpec(theta, a, nn)


def _suite_d_recursions(n, trials, rng):
    count = 200 if trials is None else trials
    cases = []
    for nn in _ns(n, (3, 4, 5)):
        specs = [_random_dspec(nn, rng) for _ in range(count)]

        def thunk(nn=nn, specs=specs):
            for spec in specs:
                if not d_recursion_check(spec):
                    return False, f"recursions at {spec}", "recursions (1)-(3)"
            return True, f"{len(specs)} random specs", "recursions (1)-(3)"

        cases.append(_case(f"n{nn}-recursions", thunk))

        def base_thunk(nn=nn):
            for d in range(1, nn):
                for lam in partitions_in_rectangle(d, nn - d):
                    if not d_base_check(lam, d, nn):
                        return False, f"base case at n={nn}, {lam}", "Schur value"
            return True, "all rectangle-bounded shapes", "Schur values"

        cases.append(_case(f"n{nn}-base-schur", base_thunk))

        def perp_thunk(nn=nn, specs=specs):
            for spec in specs:
                for i in (1, 2):
                    if not perp_d_check(i, spec.d, spec):
                        return False, f"perp shifts, i = {i}, at {spec}", "shifted D's"
            return True, f"{len(specs)} random specs, i = 1, 2", "shifted D's"

        cases.append(_case(f"n{nn}-perp-shifts", perp_thunk))
    return cases


def _suite_lattice_identity(n, trials, rng):
    pairs = ((3, 1), (4, 2), (5, 2), (5, 3))
    if n is not None:
        pairs = tuple(p for p in pairs if p[0] == n)
    cases = []
    for nn, d in pairs:
        cases.append(
            _case(
                f"n{nn}-d{d}-column-sum",
                lambda nn=nn, d=d: (
                    sigma_identity_check(nn, d),
                    f"D[{d}..1; {d - 1}..0]",
                    "sum over decreasing a of D[d-1..0; a]",
                ),
            )
        )

        def eq2_thunk(nn=nn, d=d):
            from itertools import combinations as icombs

            for i_vec in icombs(range(nn - 1, -1, -1), d):
                if not kernel_det_identity(nn, d, i_vec):
                    return False, f"kernel dets at i={i_vec}", "equal"
            return True, "kernel determinant identity, all index vectors", "equal"

        cases.append(_case(f"n{nn}-d{d}-kernel-dets", eq2_thunk))
    return cases


def _quantization_chain_cases(nn, d, lam):
    """The quantization chain at one (n, d, lambda): the quantized Schur
    determinant, its image as a D-ratio, and the skew-operator form."""
    from .peterson import skew_rectangle_check

    ctx = phi_context(nn)

    def quantize_side():
        xvars = tuple(f"x{i}" for i in range(1, nn + 1))
        s_poly = schur(lam).expand_in_vars(d).substitute(
            {f"x{j}": 1 - Poly.variable(xvars, f"x{j}") for j in range(1, d + 1)}, xvars
        )
        lhs = quantize(s_poly, nn)
        rhs = s_q_poly(lam, d, nn).with_vars(lhs.vars)
        return lhs == rhs, f"Qhat(s_({lam.to_text()})(1-x))", "quantized Schur determinant"

    def image_side():
        from .quantum import phi_s_q_image

        lhs = phi_s_q_image(lam, d, nn)
        theta = tuple(d - (lam.part(d + 1 - a) + a) for a in range(1, d + 1))
        num = d_plain(theta, nn)
        den = d_plain(range(d - 1, -1, -1), nn)
        ok = lhs * ctx.from_symfunc(den) == ctx.from_symfunc(num)
        return ok, f"phi(SQ_({lam.to_text()},{d}))", "D-ratio"

    def skew_side():
        ok = skew_rectangle_check(lam, d, nn)
        return ok, f"kappa_{d}(s)-perp g_R{d}", "D(d-i)"

    return quantize_side, image_side, skew_side


def _suite_prop_6_chain(n, trials, rng):
    cases = []
    for nn in _ns(n, (3, 4, 5)):
        for d in range(1, nn):
            for lam in partitions_in_rectangle(d, nn - d):
                quantize_side, image_side, skew_side = _quantization_chain_cases(
                    nn, d, lam
                )
                tag = f"n{nn}-d{d}-[{lam.to_text()}]"
                cases.append(_case(f"{tag}-quantize", quantize_side))
                cases.append(_case(f"{tag}-image", image_side))
                cases.append(_case(f"{tag}-skew", skew_side))
    return cases


def _toda_trial(nn, rng):
    pt = random_z_point(nn, rng)
    params = gamma_of_point(pt)
    phi = alpha(pt)
    bd = beta_full(phi, params)
    if bd.point != pt or alpha(bd.point) != phi or bd.L != lax_matrix(bd.point):
        return False, "round trip", "identity"
    expect_detR = Rational((-1) ** (nn * (nn - 1) // 2))
    for i in range(1, nn):
        expect_detR *= pt.Q[i - 1] ** (nn - i)
    if bd.R.det() != expect_detR:
        return False, "det R", "Q-power product"
    prod_q = Rational(1)
    for i in range(1, nn):
        prod_q *= pt.Q[i - 1]
        if bd.R[i + 1, i] != Rational((-1) ** (nn - i - 1)) * prod_q:
            return False, f"r_{i + 1}{i}", "signed Q product"
        if bd.R[i + 1, i] != ru_ratio_formula(bd.X, i):
            return False, f"r_{i + 1}{i}", "minor ratio"
    # alpha's phi is monic, so beta_full's X is phi(C_gamma) itself.
    if not is_phi_of_companion(bd.X, phi, params):
        return False, "X", "phi(C_gamma)"
    for i in range(1, nn):
        lm = bd.L.minor(range(i + 1, nn + 1), range(i + 1, nn + 1))
        if lm != bd.S[i - 1] / bd.T[i - 1]:
            return False, f"principal minor {i}", "S_i/T_i"
    # Entries of U against the partial spectral invariants (x_j = 1 - z_j);
    # valid at every point of the open locus.
    F = partial_invariants(pt)
    for i in range(2, nn + 1):
        for j in range(1, i):
            if bd.U[i, j] != F[i - 1][i - j] * (-1) ** (j - 1):
                return False, f"u_{i}{j}", "partial invariant"
    return True, "round trip + minor identities", "all equal"


def _suite_toda_roundtrip(n, trials, rng):
    count = 100 if trials is None else trials
    cases = []
    for nn in _ns(n, (2, 3, 4, 5)):
        for t in range(count):
            cases.append(
                _case(
                    f"n{nn}-t{t}",
                    lambda nn=nn, seed=rng.getrandbits(48): _toda_trial(
                        nn, random.Random(seed)
                    ),
                )
            )
    return cases


def _suite_conjecture2(n, trials, rng):
    nn = 5 if n is None else n
    cases = []
    fibers: dict = {}
    order = sorted(all_permutations(nn), key=lambda w: w.images)
    for w in order:
        def div_thunk(w=w, nn=nn):
            lam = lambda_map(w).partition
            record = {
                "w": w.to_text(),
                "lambda": lam.to_text(),
                "lambda_conj": k_conjugate(lam, nn - 1).to_text(),
            }
            try:
                value = g_tilde(w)
            except NonPolynomialImageError:
                record.update({"gtilde": None, "divisibility": False})
                return False, json.dumps(record, sort_keys=True), "polynomial in Lambda_(n)"
            ok = value.in_lambda_n(nn)
            record.update({"gtilde": value.to_str(), "divisibility": ok})
            return ok, json.dumps(record, sort_keys=True), "polynomial in Lambda_(n)"

        cases.append(_case(f"divisibility-w{w.to_text()}", div_thunk, tier="report"))
        fibers.setdefault(lambda_map(w).partition, []).append(w)
    for lam in sorted(fibers, key=lambda p: (p.weight, p.parts)):
        members = fibers[lam]

        def fiber_thunk(members=members):
            values = {g_tilde(w).to_str() for w in members}
            return (
                len(values) == 1,
                f"fiber size {len(members)}, {len(values)} distinct value(s)",
                "one value per fiber",
            )

        cases.append(
            _case(f"fiber-[{lam.to_text() or 'empty'}]", fiber_thunk, tier="report")
        )
    return cases


def _conjecture_7_4_thunk(nn):
    def thunk():
        w0 = Permutation.longest(nn)
        expected = SymFunc.one()
        for i in range(1, nn - 1):
            expected = expected * dual_groth(Partition([nn - 1 - i] * i))
        value = g_tilde(w0)
        return value == expected, value.to_str(), expected.to_str()

    return thunk


def _suite_conjecture_7_4(n, trials, rng):
    cases = []
    for nn in _ns(n, (3, 4)):
        if nn <= 4:
            cases.append(_case(f"n{nn}-longest", _conjecture_7_4_thunk(nn)))
    if n in (None, 5):
        cases.append(_case("n5-longest", _conjecture_7_4_thunk(5), tier="report"))
    return cases


def _suite_buch_cor_5_7(n, trials, rng):
    cases = []
    for nn in _ns(n, (2, 3, 4, 5)):
        for d in range(1, nn):
            for lam in partitions_in_rectangle(d, nn - d):
                def thunk(nn=nn, d=d, lam=lam):
                    w = grassmannian_perm(lam, d, nn)
                    gp = groth_poly(w)
                    sg = stable_groth_vars(lam, d).with_vars(gp.vars)
                    return gp == sg, f"G_({lam.to_text()})(x1..x{d})", f"groth({w.to_text()})"

                cases.append(_case(f"n{nn}-d{d}-[{lam.to_text()}]", thunk))
    return cases


# Each suite with the values of --n it accepts: every one builds at least one
# case, and the largest runs within a minute (remarkable-identity at n = 6 is
# the slowest, at about 41 s wall; f-images at n = 6 takes about 36 s and
# theorem-1-5 at n = 6 about 5 s; Python 3.11.7, fractions.Fraction).  An
# empty tuple: the suite takes no --n.
_BUILDERS = {
    "example-1-2": (_suite_example_1_2, ()),
    "remarkable-identity": (_suite_remarkable, range(2, 7)),
    "theorem-1-5": (_suite_theorem_1_5, range(2, 7)),
    "f-images": (_suite_f_images, range(2, 7)),
    "example-7-3": (_suite_example_7_3, ()),
    "lambda-tables": (_suite_lambda_tables, (4, 5)),
    "prop-5-1": (_suite_prop_5_1, range(2, 8)),
    "d-recursions": (_suite_d_recursions, range(2, 8)),
    "lattice-identity": (_suite_lattice_identity, (3, 4, 5)),
    "prop-6-chain": (_suite_prop_6_chain, range(2, 6)),
    "toda-roundtrip": (_suite_toda_roundtrip, range(2, 9)),
    "conjecture2": (_suite_conjecture2, range(2, 6)),
    "conjecture7-4": (_suite_conjecture_7_4, range(2, 6)),
    "buch-cor-5-7": (_suite_buch_cor_5_7, range(2, 8)),
}
SUITE_NAMES = tuple(_BUILDERS)
# The suites whose case count --trials sets.
_TRIAL_SUITES = ("d-recursions", "toda-roundtrip")


def run_suite(name: str, n=None, trials=None, seed=None) -> SuiteReport:
    """Execute a named suite; the report's case order is the build order.

    Raises ValueError for an unknown suite, an n the suite does not
    accept, or trials for a suite that reads none."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    build, accepted = _BUILDERS[name]
    if trials is not None and name not in _TRIAL_SUITES:
        raise ValueError(f"suite {name} takes no --trials")
    if n is not None and n not in accepted:
        if not accepted:
            raise ValueError(f"suite {name} takes no --n")
        raise ValueError(
            f"--n {n} is outside suite {name}'s range {accepted[0]}..{accepted[-1]}"
        )
    seed = DEFAULT_SEED if seed is None else seed
    rng = random.Random(seed)
    cases = build(n, trials, rng)
    return SuiteReport(name, [_run_case(c) for c in cases], seed)
