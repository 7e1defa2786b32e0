"""Named verification suites with machine-readable reports.

Each suite is a list of cases; a case runs one exact identity and records
pass/fail with printable left/right values.  A suite's builder of the
cases at one n, the n it runs by default, the n it accepts and its trial
count live in its one record in SUITES.  Conjecture-tier cases are
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
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass
from functools import partial
from importlib import resources
from itertools import combinations, product
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
    d_base_check,
    d_plain,
    d_recursion_check,
    kernel_det_identity,
    kernel_value,
    perp_d_check,
    phi_context,
    sigma_identity_check,
    skew_rectangle_check,
    tau_sigma,
)
from .polynomials import Poly
from .quantum import (
    g_tilde,
    grassmannian_perm,
    groth_poly,
    k_conjugate,
    lambda_map,
    phi_f_image,
    phi_groth_image,
    phi_s_q_image,
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
            "cases": [asdict(c) for c in self.cases],
        }

    def summary(self) -> str:
        counts = Counter(c.status for c in self.cases)
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
        status, lhs = "reported", f"agree={str(ok).lower()}; {lhs}"
    else:
        status = "pass" if ok else "fail"
    return SuiteCase(case_id, status, lhs, rhs, elapsed)


def _rectangles(n, max_d=None):
    """(d, lambda, "n{n}-d{d}-[lambda]") for 1 <= d < n (and d <= max_d) and
    each lambda inside the d x (n-d) rectangle."""
    for d in range(1, n if max_d is None else min(n, max_d + 1)):
        for lam in partitions_in_rectangle(d, n - d):
            yield d, lam, f"n{n}-d{d}-[{lam.to_text()}]"


# -- checks: each returns (ok, lhs, rhs) --------------------------------------------


def _symfunc_check(value, expected):
    return value == expected, value.to_str(), expected.to_str()


def _remarkable_check(n, i):
    image = phi_context(n).apply_frac(f_invariant(n, i), reduce_result=False)
    return image == comb(n, i), f"phi_{n}(F_{i})", str(comb(n, i))


def _f_image_check(n, m, i):
    image = phi_context(n).apply_frac(fq_poly_z(n, m, i), reduce_result=False)
    ok = image == phi_f_image(n, m, i)
    return ok, f"phi(F^({m})_{i})*tau{m}", f"D(theta) of (1^{i}), d={m}"


def _theorem_1_5_check(n, d, lam):
    ctx = phi_context(n)
    w = grassmannian_perm(lam, d, n)
    lhs = ctx.times_taus(phi_groth_image(w), (d,))
    rhs = ctx.from_symfunc(dual_groth(complement(lam, d, n)))
    return lhs == rhs, f"phi(GQ_{w.to_text()})*tau{d}", f"g_({complement(lam, d, n).to_text()})"


def _g_tilde_product_check(w, factors):
    expected = SymFunc.one()
    for f in factors:
        expected = expected * dual_groth(f)
    return _symfunc_check(g_tilde(w), expected)


def _lambda_table_check(n, row):
    got = lambda_map(Permutation.from_text(row["w"])).partition
    got_conj = k_conjugate(got, n - 1)
    lam, conj = Partition.from_text(row["lam"]), Partition.from_text(row["conj"])
    return (
        got == lam and got_conj == conj,
        f"{got.to_text() or 'empty'} / {got_conj.to_text() or 'empty'}",
        f"{lam.to_text() or 'empty'} / {conj.to_text() or 'empty'}",
    )


def _prop_5_1_check(n, d, lam):
    rect = Partition.rectangle(d, n - d)
    target = complement(lam, d, n)
    for mu in all_partitions_up_to(rect.weight):
        expected = 1 if mu == target else 0
        if klr_coeff(lam, mu, rect) != expected:
            return False, f"c_({lam.to_text()}),({mu.to_text()})^R", str(expected)
    return True, "delta(lambda-complement, mu)", "delta(lambda-complement, mu)"


def _random_dspec(n, rng):
    d = rng.randint(1, n - 1)
    theta = tuple(rng.randint(-3, n) for _ in range(d))
    a = tuple(rng.randint(0, n) for _ in range(d))
    return DSpec(theta, a, n)


def _recursions_check(specs):
    for spec in specs:
        if not d_recursion_check(spec):
            return False, f"recursions at {spec}", "recursions (1)-(3)"
    return True, f"{len(specs)} random specs", "recursions (1)-(3)"


def _base_schur_check(n):
    for d, lam, _ in _rectangles(n):
        if not d_base_check(lam, d, n):
            return False, f"base case at n={n}, {lam}", "Schur value"
    return True, "all rectangle-bounded shapes", "Schur values"


def _perp_shifts_check(specs):
    for spec in specs:
        for i in (1, 2):
            if not perp_d_check(i, spec.d, spec):
                return False, f"perp shifts, i = {i}, at {spec}", "shifted D's"
    return True, f"{len(specs)} random specs, i = 1, 2", "shifted D's"


def _column_sum_check(n, d):
    return (
        sigma_identity_check(n, d),
        f"D[{d}..1; {d - 1}..0]",
        "sum over decreasing a of D[d-1..0; a]",
    )


def _kernel_det_check(n, d):
    # every K^theta_{a,i} the identity reads (theta <= d; a, i < n), against
    # the binomial path count, since the identity also holds for a kernel
    # shifted in theta
    for theta, a, i in product(range(d + 1), range(n), range(n)):
        binomial = comb(i - a + theta - 1, theta - 1) if theta and i >= a else int(a == i)
        if kernel_value(theta, a, i) != binomial:
            return False, f"K^{theta}_({a},{i})", f"binomial {binomial}"
    for i_vec in combinations(range(n - 1, -1, -1), d):
        if not kernel_det_identity(n, d, i_vec):
            return False, f"kernel dets at i={i_vec}", "equal"
    return True, "kernel determinant identity, all index vectors", "equal"


# The quantization chain at one (n, d, lambda): the quantized Schur
# determinant, its image as a D-ratio, and the skew-operator form.
def _quantize_check(n, d, lam):
    xvars = tuple(f"x{i}" for i in range(1, n + 1))
    s_poly = schur(lam).expand_in_vars(d).substitute(
        {f"x{j}": 1 - Poly.variable(xvars, f"x{j}") for j in range(1, d + 1)}, xvars
    )
    lhs = quantize(s_poly, n)
    rhs = s_q_poly(lam, d, n).with_vars(lhs.vars)
    return lhs == rhs, f"Qhat(s_({lam.to_text()})(1-x))", "quantized Schur determinant"


def _s_q_image_check(n, d, lam):
    ctx = phi_context(n)
    lhs = phi_s_q_image(lam, d, n)
    theta = tuple(d - (lam.part(d + 1 - a) + a) for a in range(1, d + 1))
    num = d_plain(theta, n)
    den = d_plain(range(d - 1, -1, -1), n)
    ok = lhs * ctx.from_symfunc(den) == ctx.from_symfunc(num)
    return ok, f"phi(SQ_({lam.to_text()},{d}))", "D-ratio"


def _skew_check(n, d, lam):
    return skew_rectangle_check(lam, d, n), f"kappa_{d}(s)-perp g_R{d}", "D(d-i)"


def _toda_trial(n, rng):
    pt = random_z_point(n, rng)
    params = gamma_of_point(pt)
    phi = alpha(pt)
    bd = beta_full(phi, params)
    if bd.point != pt or bd.L != lax_matrix(bd.point):
        return False, "round trip", "identity"
    expect_detR = Rational((-1) ** (n * (n - 1) // 2))
    for i in range(1, n):
        expect_detR *= pt.Q[i - 1] ** (n - i)
    if bd.R.det() != expect_detR:
        return False, "det R", "Q-power product"
    prod_q = Rational(1)
    for i in range(1, n):
        prod_q *= pt.Q[i - 1]
        if bd.R[i + 1, i] != Rational((-1) ** (n - i - 1)) * prod_q:
            return False, f"r_{i + 1}{i}", "signed Q product"
        if bd.R[i + 1, i] != ru_ratio_formula(bd.X, i):
            return False, f"r_{i + 1}{i}", "minor ratio"
    # alpha's phi is monic, so beta_full's X is phi(C_gamma) itself.
    if not is_phi_of_companion(bd.X, phi, params):
        return False, "X", "phi(C_gamma)"
    for i in range(1, n):
        lm = bd.L.minor(range(i + 1, n + 1), range(i + 1, n + 1))
        if lm != bd.S[i - 1] / bd.T[i - 1]:
            return False, f"principal minor {i}", "S_i/T_i"
    # Entries of U against the partial spectral invariants (x_j = 1 - z_j);
    # valid at every point of the open locus.
    F = partial_invariants(pt)
    for i in range(2, n + 1):
        for j in range(1, i):
            if bd.U[i, j] != F[i - 1][i - j] * (-1) ** (j - 1):
                return False, f"u_{i}{j}", "partial invariant"
    return True, "round trip + minor identities", "all equal"


def _seeded_toda_trial(n, seed):
    return _toda_trial(n, random.Random(seed))


def _divisibility_check(n, w):
    lam = lambda_map(w).partition
    try:
        value = g_tilde(w)
    except NonPolynomialImageError:
        value = None
    ok = value is not None and value.in_lambda_n(n)
    record = {
        "w": w.to_text(),
        "lambda": lam.to_text(),
        "lambda_conj": k_conjugate(lam, n - 1).to_text(),
        "gtilde": None if value is None else value.to_str(),
        "divisibility": ok,
    }
    return ok, json.dumps(record, sort_keys=True), "polynomial in Lambda_(n)"


def _fiber_check(members):
    values = {g_tilde(w).to_str() for w in members}
    return (
        len(values) == 1,
        f"fiber size {len(members)}, {len(values)} distinct value(s)",
        "one value per fiber",
    )


def _buch_check(n, d, lam):
    w = grassmannian_perm(lam, d, n)
    gp = groth_poly(w)
    sg = stable_groth_vars(lam, d).with_vars(gp.vars)
    return gp == sg, f"G_({lam.to_text()})(x1..x{d})", f"groth({w.to_text()})"


# -- suite builders: each returns the cases at one n -------------------------------


def _suite_example_1_2(n, trials, rng):
    data, table = load_tables()["example_1_2"], tau_sigma(n)
    return [
        _case(name, partial(_symfunc_check, value, SymFunc.from_json(data[name])))
        for name, value in zip(
            ("tau1", "tau2", "sigma1", "sigma2"), table.tau[1:3] + table.sigma[1:3]
        )
    ]


def _suite_remarkable(n, trials, rng):
    return [_case(f"n{n}-F{i}", partial(_remarkable_check, n, i)) for i in range(1, n + 1)]


def _suite_f_images(n, trials, rng):
    """phi(F^(m)_i) = D(theta)/tau_m against the substitution Phi_n, for
    m < n and 0 <= i <= m: the unreduced image of F^(m)_i equals
    phi_f_image, whose reduce makes one trial division of D(theta) by
    tau_m; phi_groth_image reads the same numerators D(theta).

    This suite is the only link between those numerators and the
    substitution.  The one-column -image cases of prop-6-chain compare the
    D-ratio with itself, since phi_s_q_image reads phi_f_image."""
    return [
        _case(f"n{n}-m{m}-i{i}", partial(_f_image_check, n, m, i))
        for m in range(1, n)
        for i in range(m + 1)
    ]


def _per_rectangle(check, n, trials, rng, max_d=None):
    return [_case(tag, partial(check, n, d, lam)) for d, lam, tag in _rectangles(n, max_d)]


def _suite_example_7_3(n, trials, rng):
    return [
        _case(
            f"w{row['w']}",
            partial(
                _g_tilde_product_check,
                Permutation.from_text(row["w"]),
                [Partition.from_text(t) for t in row["factors"]],
            ),
        )
        for row in load_tables()[f"gtilde_factored_n{n}"]
    ]


def _suite_lambda_tables(n, trials, rng):
    return [
        _case(f"n{n}-w{row['w']}", partial(_lambda_table_check, n, row))
        for row in load_tables()["lambda_tables"][str(n)]
    ]


def _suite_d_recursions(n, trials, rng):
    specs = [_random_dspec(n, rng) for _ in range(trials)]
    return [
        _case(f"n{n}-recursions", partial(_recursions_check, specs)),
        _case(f"n{n}-base-schur", partial(_base_schur_check, n)),
        _case(f"n{n}-perp-shifts", partial(_perp_shifts_check, specs)),
    ]


# The d that lattice-identity checks at each n it accepts.
_LATTICE_DS = {3: (1,), 4: (2,), 5: (2, 3)}


def _suite_lattice_identity(n, trials, rng):
    return [
        _case(f"n{n}-d{d}-{name}", partial(check, n, d))
        for d in _LATTICE_DS[n]
        for name, check in (("column-sum", _column_sum_check), ("kernel-dets", _kernel_det_check))
    ]


def _suite_prop_6_chain(n, trials, rng):
    return [
        _case(f"{tag}-{side}", partial(check, n, d, lam))
        for d, lam, tag in _rectangles(n)
        for side, check in (
            ("quantize", _quantize_check),
            ("image", _s_q_image_check),
            ("skew", _skew_check),
        )
    ]


def _suite_toda_roundtrip(n, trials, rng):
    return [
        _case(f"n{n}-t{t}", partial(_seeded_toda_trial, n, rng.getrandbits(48)))
        for t in range(trials)
    ]


def _suite_conjecture2(n, trials, rng):
    order = sorted(all_permutations(n), key=lambda w: w.images)
    fibers: dict = {}
    for w in order:
        fibers.setdefault(lambda_map(w).partition, []).append(w)
    return [
        _case(f"divisibility-w{w.to_text()}", partial(_divisibility_check, n, w), "report")
        for w in order
    ] + [
        _case(f"fiber-[{lam.to_text() or 'empty'}]", partial(_fiber_check, fibers[lam]), "report")
        for lam in sorted(fibers, key=lambda p: (p.weight, p.parts))
    ]


def _suite_conjecture_7_4(n, trials, rng):
    return [
        _case(
            f"n{n}-longest",
            partial(
                _g_tilde_product_check,
                Permutation.longest(n),
                [Partition([n - 1 - i] * i) for i in range(1, n - 1)],
            ),
            "assert" if n <= 4 else "report",
        )
    ]


@dataclass(frozen=True)
class Suite:
    """One suite: its builder of the cases at one n, called as
    build(n, trials, rng); the n it runs without --n, in order; the n that
    --n accepts (none: it takes no --n and runs at its one default n); and
    its default --trials (None: it takes no --trials)."""

    build: Callable
    ns: Sequence
    accepted: Sequence = ()
    trials: int | None = None


# Each suite with the values of --n it accepts: every one builds at least one
# case, and the largest runs within a minute (remarkable-identity at n = 6 is
# the slowest, at 17-25 s wall; f-images at n = 6 takes 13-17 s and
# theorem-1-5 at n = 6 about 2 s; Python 3.11.7, fractions.Fraction, 2-core
# Intel Xeon).  An empty tuple: the suite takes no --n.
SUITES = {
    "example-1-2": Suite(_suite_example_1_2, (3,)),
    "remarkable-identity": Suite(_suite_remarkable, range(2, 6), range(2, 7)),
    "theorem-1-5": Suite(partial(_per_rectangle, _theorem_1_5_check), range(3, 6), range(2, 7)),
    "f-images": Suite(_suite_f_images, range(3, 6), range(2, 7)),
    "example-7-3": Suite(_suite_example_7_3, (5,)),
    "lambda-tables": Suite(_suite_lambda_tables, (4, 5), (4, 5)),
    "prop-5-1": Suite(
        partial(_per_rectangle, _prop_5_1_check, max_d=3), range(2, 7), range(2, 8)
    ),
    "d-recursions": Suite(_suite_d_recursions, range(3, 6), range(2, 8), trials=200),
    "lattice-identity": Suite(_suite_lattice_identity, tuple(_LATTICE_DS), tuple(_LATTICE_DS)),
    "prop-6-chain": Suite(_suite_prop_6_chain, range(3, 6), range(2, 6)),
    "toda-roundtrip": Suite(_suite_toda_roundtrip, range(2, 6), range(2, 9), trials=100),
    "conjecture2": Suite(_suite_conjecture2, (5,), range(2, 6)),
    "conjecture7-4": Suite(_suite_conjecture_7_4, range(3, 6), range(2, 6)),
    "buch-cor-5-7": Suite(partial(_per_rectangle, _buch_check), range(2, 6), range(2, 8)),
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, n=None, trials=None, seed=None) -> SuiteReport:
    """Execute a named suite over its default n, or at n alone; the report's
    case order is the build order.

    Raises ValueError for an unknown suite, an n the suite does not
    accept, or trials for a suite that reads none."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    suite = SUITES[name]
    if trials is not None and suite.trials is None:
        raise ValueError(f"suite {name} takes no --trials")
    if n is not None and n not in suite.accepted:
        if not suite.accepted:
            raise ValueError(f"suite {name} takes no --n")
        raise ValueError(
            f"--n {n} is outside suite {name}'s range {suite.accepted[0]}..{suite.accepted[-1]}"
        )
    seed = DEFAULT_SEED if seed is None else seed
    rng = random.Random(seed)
    trials = suite.trials if trials is None else trials
    cases = [c for nn in (suite.ns if n is None else (n,)) for c in suite.build(nn, trials, rng)]
    return SuiteReport(name, [_run_case(c) for c in cases], seed)
