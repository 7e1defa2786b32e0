import random
from itertools import combinations
from operator import add, eq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    Powers,
    random_symfunc,
    reference_d_det,
    reference_grouped_product,
    reference_kappa_p,
)
from kpeterson.grothendieck import dual_groth
from kpeterson.partitions import Partition, partitions_in_rectangle
from kpeterson.peterson import (
    DSpec,
    LocFrac,
    _kappa_h,
    d_base_check,
    d_det,
    d_plain,
    d_recursion_check,
    kappa,
    kernel_det_identity,
    perp_d_check,
    phi_apply,
    phi_context,
    skew_rectangle_check,
    sigma_identity_check,
    tau_sigma,
)
from kpeterson import polynomials
from kpeterson.polynomials import Poly, xq_vars, zq_vars
from kpeterson.quantum import fq_poly, fq_poly_z, phi_f_image
from kpeterson.scalars import Rational
from kpeterson.symfunc import SymFunc, _substitute, from_p_dict, schur, to_p_dict
from kpeterson.toda import SpectralParams, TruncSeriesPhi, f_invariant, ts_functions

h = SymFunc.h


def p(i):
    return from_p_dict({(0,) * (i - 1) + (1,): Rational(1)})


def gen_image(ctx, name):
    """Phi_n of one generator z_i, x_i or Q_i, unreduced."""
    variables = zq_vars(ctx.n) + tuple(f"x{i}" for i in range(1, ctx.n + 1))
    return ctx.apply_frac(Poly.variable(variables, name), reduce_result=False)


def parts(frac):
    """A Phi_n image as (numerator, expanded denominator) SymFuncs."""
    den = frac.ctx.factor_product(frac.den)
    return SymFunc.from_poly(frac.num), SymFunc.from_poly(den)


class TestTauSigma:
    def test_n3_reference_values(self):
        t = tau_sigma(3)
        assert t.tau[1] == h(2)
        assert t.tau[2] == h(1) ** 2 - h(2) + h(1)
        assert t.sigma[1] == h(2) + h(1) + 1
        assert t.sigma[2] == h(1) ** 2 - h(2) + 2 * h(1) + 1

    def test_n2(self):
        t = tau_sigma(2)
        assert t.tau[1] == h(1) and t.sigma[1] == 1 + h(1)

    def test_boundary_values(self):
        for n in (2, 3, 4, 5):
            t = tau_sigma(n)
            assert t.tau[0] == 1 and t.sigma[0] == 1
            assert t.tau[n] == 1 and t.sigma[n] == 1

    def test_entries_in_lambda_n(self):
        for n in (2, 3, 4, 5):
            t = tau_sigma(n)
            for f in list(t.tau) + list(t.sigma):
                assert f.in_lambda_n(n)

    def test_matches_toda_determinants_symbolically(self):
        for n in (2, 3, 4, 5):
            phi = TruncSeriesPhi.symbolic_unipotent(n)
            T, S = ts_functions(phi, SpectralParams.unipotent(n))
            t = tau_sigma(n)
            for i in range(1, n):
                assert T[i - 1] == t.tau[i]
                assert S[i - 1] == t.sigma[i]


@st.composite
def dspecs(draw):
    """(theta, a, n) with n = 2..8, d <= n, theta_j in [-4, n+1], a_j in [0, n+1]."""
    n = draw(st.integers(2, 8))
    d = draw(st.integers(0, n))
    theta = tuple(draw(st.lists(st.integers(-4, n + 1), min_size=d, max_size=d)))
    a = tuple(draw(st.lists(st.integers(0, n + 1), min_size=d, max_size=d)))
    return theta, a, n


class TestDFamily:
    def test_rectangle_values(self):
        for n in (3, 4, 5):
            for d in range(1, n):
                assert d_plain(range(d - 1, -1, -1), n) == tau_sigma(n).tau[d]

    def test_schur_base_case(self):
        for n in (3, 4, 5):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    assert d_base_check(lam, d, n)

    def test_dual_groth_columns(self):
        for n in (3, 4):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    a = tuple(n - j - lam.part(d + 1 - j) for j in range(1, d + 1))
                    spec = DSpec(tuple(range(d - 1, -1, -1)), a, n)
                    assert d_det(spec) == dual_groth(lam)

    def test_repeated_column_vanishes(self):
        assert d_det(DSpec((1, 1), (0, 0), 4)).is_zero()
        assert d_det(DSpec((2, 2), (1, 1), 5)).is_zero()

    def test_a_equal_n_vanishes(self):
        assert d_det(DSpec((0,), (4,), 4)).is_zero()
        assert d_det(DSpec((2, 1), (4, 0), 4)).is_zero()

    @settings(max_examples=200)
    @given(dspecs())
    @example(((0, 1), (2, 0), 3))  # a_j = n - 1
    @example(((2, 1), (4, 0), 4))  # a_j = n
    @example(((0, 3), (5, 1), 4))  # a_j = n + 1
    @example(((2, 2), (1, 1), 5))  # two equal columns
    @example(((3, -1, 0, 2), (0, 1, 2, 0), 4))  # d = n
    @example(((), (), 2))  # d = 0
    @example(((3, -2, 5, 1, 0, 4, 2, 6), (0, 1, 2, 0, 3, 1, 0, 0), 8))  # d = n = 8
    def test_matches_cofactor_reference(self, spec):
        theta, a, n = spec
        assert d_det(DSpec(theta, a, n)) == reference_d_det(theta, a, n)

    def test_values_in_lambda_n(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.choice([3, 4, 5])
            d = rng.randint(1, n - 1)
            spec = DSpec(
                tuple(rng.randint(-3, n) for _ in range(d)),
                tuple(rng.randint(0, n - 1) for _ in range(d)),
                n,
            )
            assert d_det(spec).in_lambda_n(n)

    def test_recursions_random(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.choice([3, 4, 5])
            d = rng.randint(1, n - 1)
            spec = DSpec(
                tuple(rng.randint(-3, n) for _ in range(d)),
                tuple(rng.randint(0, n) for _ in range(d)),
                n,
            )
            assert d_recursion_check(spec)

    def test_sigma_identity_small(self):
        assert sigma_identity_check(3, 1)
        assert sigma_identity_check(3, 2)
        assert sigma_identity_check(4, 2)

    def test_kernel_det_identity_small(self):
        for n, d in ((3, 1), (3, 2), (4, 2)):
            for i_vec in combinations(range(n - 1, -1, -1), d):
                assert kernel_det_identity(n, d, i_vec), (n, d, i_vec)

    def test_sigma_via_d(self):
        for n in range(2, 9):
            for d in range(1, n):
                lhs = d_det(
                    DSpec(tuple(range(d, 0, -1)), tuple(range(d - 1, -1, -1)), n)
                )
                rectangle_sum = SymFunc.zero()
                for mu in partitions_in_rectangle(d, n - d):
                    rectangle_sum = rectangle_sum + dual_groth(mu)
                assert lhs == tau_sigma(n).sigma[d] == rectangle_sum, (n, d)

    def test_kernel_identity_has_delta_at_theta_zero(self):
        from kpeterson.peterson import kernel_value

        assert kernel_value(0, 2, 2) == 1 and kernel_value(0, 1, 2) == 0
        assert kernel_value(1, 0, 3) == 1
        assert kernel_value(2, 1, 3) == 3
        assert kernel_det_identity(4, 2, (3, 1))

    def test_kernel_dets_case_fails_on_a_shifted_kernel(self, monkeypatch):
        # K read off the (1-v)^{-(theta+1)} series still satisfies the
        # determinant identity at every index vector, so the suite's
        # kernel-dets cases must check the entries themselves.
        import kpeterson.peterson as peterson
        import kpeterson.suites as suites
        from kpeterson.suites import run_suite
        from kpeterson.symfunc import _geom_series_coeffs

        def shifted(theta, a, i):
            return _geom_series_coeffs(theta + 1, i - a + 1)[i - a] if i >= a else 0

        for module in (peterson, suites):
            monkeypatch.setattr(module, "kernel_value", shifted)
        tags = {"n3-d1": (3, 1), "n4-d2": (4, 2), "n5-d2": (5, 2), "n5-d3": (5, 3)}
        for n, d in tags.values():
            for i_vec in combinations(range(n - 1, -1, -1), d):
                assert kernel_det_identity(n, d, i_vec), (n, d, i_vec)
        status = {case.id: case.status for case in run_suite("lattice-identity").cases}
        for tag in tags:
            assert status[f"{tag}-column-sum"] == "pass"
            assert status[f"{tag}-kernel-dets"] == "fail", tag


class TestKappa:
    def test_examples(self):
        assert kappa(2, SymFunc.one()) == 1
        assert kappa(3, p(1)) == 3 - p(1)
        assert kappa(2, p(2)) == 2 - 2 * p(1) + p(2)

    def test_involution_and_homomorphism(self):
        rng = random.Random(11)
        for d in (1, 2, 3):
            for _ in range(6):
                f = random_symfunc(rng, max_index=3, max_terms=3, max_exp=2)
                g = random_symfunc(rng, max_index=3, max_terms=2, max_exp=1)
                assert kappa(d, kappa(d, f)) == f
                assert kappa(d, f * g) == kappa(d, f) * kappa(d, g)
                assert kappa(d, f + g) == kappa(d, f) + kappa(d, g)

    def test_kappa_p_table(self):
        assert reference_kappa_p(2, 1) == {(): 2, (1,): -1}
        assert reference_kappa_p(1, 2) == {(): 1, (1,): -2, (0, 1): 1}

    def test_closed_form_matches_p_basis_route(self):
        # kappa_d(h_i) through the p-basis: h_i to p, each p_j to
        # kappa_d(p_j), back to h
        for d in range(8):
            for i in range(1, 10):
                route = from_p_dict(
                    _substitute(to_p_dict(h(i)), lambda j: reference_kappa_p(d, j))
                )
                assert _kappa_h(d, i) == route, (d, i)


class TestPhi:
    def test_table_n2(self):
        ctx = phi_context(2)
        assert parts(gen_image(ctx, "z1")) == (h(1), 1 + h(1))
        assert parts(gen_image(ctx, "z2")) == (1 + h(1), h(1))
        assert parts(gen_image(ctx, "Q1")) == (SymFunc.one(), h(1) ** 2)

    def test_generator_images_match_tau_sigma_products(self):
        # z_i -> tau_i sigma_{i-1} / (sigma_i tau_{i-1}),
        # Q_i -> tau_{i-1} tau_{i+1} / tau_i^2, written with SymFunc products
        for n in range(2, 7):
            ctx, t = phi_context(n), tau_sigma(n)
            for i in range(1, n + 1):
                num = ctx.from_symfunc(t.tau[i] * t.sigma[i - 1])
                den = ctx.from_symfunc(t.sigma[i] * t.tau[i - 1])
                assert gen_image(ctx, f"z{i}") * den == num
            for i in range(1, n):
                num = ctx.from_symfunc(t.tau[i - 1] * t.tau[i + 1])
                den = ctx.from_symfunc(t.tau[i] ** 2)
                assert gen_image(ctx, f"Q{i}") * den == num

    def test_z_product_telescopes_to_one(self):
        for n in (2, 3, 4):
            v = zq_vars(n)
            prod = Poly.const(v, 1)
            for i in range(1, n + 1):
                prod = prod * Poly.variable(v, f"z{i}")
            assert phi_apply(prod, n) == 1

    def test_constants_fixed(self):
        v = zq_vars(3)
        assert phi_apply(Poly.const(v, Rational(7, 3)), 3) == Rational(7, 3)

    def test_remarkable_identity_small(self):
        from math import comb

        for n in (2, 3):
            for i in range(1, n + 1):
                assert phi_apply(f_invariant(n, i), n) == comb(n, i)

    def test_quantum_groth_21_by_hand(self):
        # G^Q_21 at n=2 is 1 - (1-x1)(1-Q1); its image is 1/h1
        v = ("x1", "x2", "Q1")
        x1, Q1 = Poly.variable(v, "x1"), Poly.variable(v, "Q1")
        value = phi_apply(1 - (1 - x1) * (1 - Q1), 2)
        assert parts(value) == (SymFunc.one(), h(1))

    def test_x_is_one_minus_z(self):
        for n in (2, 3):
            ctx = phi_context(n)
            for i in range(1, n + 1):
                assert gen_image(ctx, f"x{i}") == ctx.one - gen_image(ctx, f"z{i}")

    def test_ring_homomorphism_on_random_pairs(self):
        rng = random.Random(13)
        n = 3
        v = zq_vars(n) + ("x1", "x2", "x3")
        names = list(v)
        for _ in range(6):
            def rand_poly():
                total = Poly.zero(v)
                for _ in range(rng.randint(1, 3)):
                    term = Poly.const(v, Rational(rng.randint(-3, 3) or 1))
                    for _ in range(rng.randint(0, 2)):
                        term = term * Poly.variable(v, rng.choice(names))
                    total = total + term
                return total

            a, b = rand_poly(), rand_poly()
            assert phi_apply(a * b, n) == phi_apply(a, n) * phi_apply(b, n)
            assert phi_apply(a + b, n) == phi_apply(a, n) + phi_apply(b, n)

    def test_x_and_z_inputs_agree(self):
        # apply_frac rewrites input in x into z/Q (x_i = 1 - z_i) before it
        # evaluates it; the same polynomial written either way must give the
        # same lowest terms
        def same(a, b):
            return a.num == b.num and a.den == b.den

        for n in (3, 4):
            ctx = phi_context(n)
            for m in range(1, n + 1):
                for i in range(m + 1):
                    x_image = ctx.apply_frac(fq_poly(n, m, i))
                    assert same(x_image, phi_f_image(n, m, i))
        ctx = phi_context(5)
        for m in (5, 4):
            assert same(ctx.apply_frac(fq_poly(5, m, 2)), phi_f_image(5, m, 2))
        rng = random.Random(17)
        for n in (3, 4):
            ctx, xv, zv = phi_context(n), xq_vars(n), zq_vars(n)
            atoms = [
                (Poly.variable(xv, f"x{i}"), 1 - Poly.variable(zv, f"z{i}"))
                for i in range(1, n + 1)
            ]
            atoms += [
                (Poly.variable(xv, f"Q{i}"), Poly.variable(zv, f"Q{i}"))
                for i in range(1, n)
            ]
            for _ in range(6):
                x_form, z_form = Poly.zero(xv), Poly.zero(zv)
                for _ in range(rng.randint(1, 3)):
                    c = Rational(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                    x_term, z_term = Poly.const(xv, c), Poly.const(zv, c)
                    for _ in range(rng.randint(1, 3)):
                        x_atom, z_atom = rng.choice(atoms)
                        x_term, z_term = x_term * x_atom, z_term * z_atom
                    x_form, z_form = x_form + x_term, z_form + z_term
                assert same(ctx.apply_frac(x_form), ctx.apply_frac(z_form))

    def test_slot_order_is_a_permutation_of_the_factors(self):
        for n in range(2, 7):
            ctx = phi_context(n)
            order = ctx._slot_order
            assert sorted(order) == list(range(len(ctx.factors)))
            expected = [f"{kind}{i}" for i in range(n - 1, 0, -1) for kind in ("tau", "sigma")]
            assert [ctx.factor_names[j] for j in order] == expected

    def test_numerators_match_the_table_order_sum(self):
        # _apply_monomial sums in its own slot order; the (num, den) must be
        # the term-by-term sum over the factors in their stored order
        def table_order_image(ctx, poly):
            zv = zq_vars(ctx.n)
            z_form = poly.substitute(
                {f"x{i}": 1 - Poly.variable(zv, f"z{i}") for i in range(1, ctx.n + 1)}, zv
            )
            keys: dict = {}
            for exps, c in z_form.terms.items():
                g = [0] * len(ctx.factors)
                for v, e in zip(z_form.vars, exps):
                    if e:
                        for idx, mult in ctx._zq_contrib[v]:
                            g[idx] += mult * e
                keys[tuple(g)] = keys.get(tuple(g), 0) + c
            keys = {g: c for g, c in keys.items() if c}
            if not keys:
                return ctx.zero.num, ctx.zero.den
            den = tuple(max(0, -min(col)) for col in zip(*keys))
            shifted = {tuple(a + b for a, b in zip(g, den)): c for g, c in keys.items()}
            num = reference_grouped_product(
                shifted, [Powers(f) for f in ctx.factors], ctx.zero.num
            )
            return num, den

        rng = random.Random(14)
        for n in (3, 4, 5):
            ctx = phi_context(n)
            inputs = [fq_poly_z(n, m, i) for m in range(1, n + 1) for i in range(m + 1)]
            names = list(zq_vars(n)) + [f"x{i}" for i in range(1, n + 1)]
            v = tuple(names)
            for _ in range(3):
                total = Poly.zero(v)
                for _ in range(rng.randint(1, 4)):
                    term = Poly.const(v, Rational(rng.randint(-3, 3) or 1, rng.randint(1, 2)))
                    for _ in range(rng.randint(0, 4)):
                        term = term * Poly.variable(v, rng.choice(names))
                    total = total + term
                inputs.append(total)
            for poly in inputs:
                image = ctx.apply_frac(poly, reduce_result=False)
                assert (image.num, image.den) == table_order_image(ctx, poly), (n, poly)
                expected = reference_grouped_product(
                    {image.den: 1}, [Powers(f) for f in ctx.factors], ctx.zero.num
                )
                assert ctx.factor_product(image.den) == expected, (n, poly)

    def test_rejects_foreign_variables(self):
        poly = Poly.variable(("zeta",), "zeta")
        with pytest.raises(ValueError):
            phi_apply(poly, 3)

    def test_negative_power_raises(self):
        z1 = gen_image(phi_context(3), "z1")
        assert z1**0 == 1
        with pytest.raises(ValueError):
            z1**-1


class TestReduction:
    def test_arithmetic_never_divides(self, monkeypatch):
        ctx = phi_context(3)
        z1, z2, z3 = (gen_image(ctx, f"z{i}") for i in (1, 2, 3))

        def refuse(self, divisor):
            raise AssertionError("LocFrac arithmetic called exact_div")

        monkeypatch.setattr(Poly, "exact_div", refuse)
        prod = z1 * z2 * z3
        for value in (prod, z1 + z2, z1 - z2, z1 - 1, 1 + z1, z1 * 2, -z1, z1**3):
            assert isinstance(value, LocFrac)
        monkeypatch.undo()
        assert any(prod.den)
        assert ctx.reduce(prod).den == ctx.one.den and ctx.reduce(prod) == 1
        with pytest.raises(TypeError):
            LocFrac(ctx, prod.num, prod.den, reduce=True)

    def test_generator_images_in_lowest_terms(self):
        # the z_i/Q_i images are read off the exponent table unreduced
        for n in range(2, 7):
            ctx = phi_context(n)
            names = [f"{v}{i}" for v in "zx" for i in range(1, n + 1)]
            names += [f"Q{i}" for i in range(1, n)]
            for name in names:
                image = gen_image(ctx, name)
                for idx, e in enumerate(image.den):
                    if e > 0:
                        factor = ctx.factors[idx]
                        assert image.num.exact_div(factor) is None, (n, name, idx)

    def test_scalar_minus_image(self):
        ctx = phi_context(3)
        z1 = gen_image(ctx, "z1")
        assert 1 - z1 == ctx.one - z1 == gen_image(ctx, "x1")
        assert Rational(1, 2) - z1 == -(z1 - Rational(1, 2))

    def test_factors_irreducible_and_not_associate(self):
        # reducing once gives the same lowest terms as reducing every step
        # only because the tau/sigma factors are distinct primes of Q[h]
        from sympy import QQ, symbols
        from sympy import Poly as SympyPoly

        for n in range(2, 7):
            ctx = phi_context(n)
            monics = []
            for name, f in zip(ctx.factor_names, ctx.factors):
                terms = {e: QQ(int(c.numerator), int(c.denominator)) for e, c in f.terms.items()}
                sp = SympyPoly.from_dict(terms, *symbols(ctx.hvars), domain=QQ)
                _, factors = sp.factor_list()
                assert len(factors) == 1 and factors[0][1] == 1, (n, name)
                monics.append(sp.monic())
            assert len(set(monics)) == len(monics), n

    def test_zero_denominator_side_multiplies_once(self, monkeypatch):
        # == and + bring both sides to one denominator; the side whose
        # denominator already is that one is not multiplied by 1, and a
        # number scales the cached denominator product with no multiply
        ctx = phi_context(4)
        images = [gen_image(ctx, name) for name in ("z1", "x2", "Q2")]
        images.append(images[0] * images[2] + 1)
        for image in images:
            ctx.factor_product(image.den)  # the cached product, built beforehand
        calls = []
        counted = polynomials.terms_mul

        def counting(t1, t2):
            calls.append(1)
            return counted(t1, t2)

        monkeypatch.setattr(polynomials, "terms_mul", counting)
        for image in images:
            for other in (3, Rational(1, 2), ctx.one, ctx.one * -2):
                for op in (eq, add):
                    for left, right in ((image, other), (other, image)):
                        op(left, right)
                        most = 0 if isinstance(other, (int, Rational)) else 1
                        assert len(calls) <= most, (op, left, right)
                        calls.clear()
        monkeypatch.undo()
        z1 = images[0]
        assert z1 + 2 == 2 + z1 and (z1 + 2) - z1 == 2 and not z1 == 3
        assert ctx.reduce((z1 + 2) * (1 - z1)) == 2 - z1 - z1 * z1

    def test_equality_cross_multiplies_by_the_uncommon_part(self, monkeypatch):
        ctx = phi_context(4)
        z1, z2 = gen_image(ctx, "z1"), gen_image(ctx, "z2")
        a, b = z1 * z2, z1 * z1
        assert any(min(x, y) for x, y in zip(a.den, b.den))
        seen = []
        product = type(ctx).factor_product

        def recording(self, exps):
            seen.append(tuple(exps))
            return product(self, exps)

        monkeypatch.setattr(type(ctx), "factor_product", recording)
        assert a != b and a * z1 == b * z2
        common = [min(x, y) for x, y in zip(a.den, b.den)]
        uncommon = {tuple(x - c for x, c in zip(den, common)) for den in (a.den, b.den)}
        assert set(seen) == uncommon


class TestTimesTaus:
    def test_cancels_a_tau_of_the_denominator(self):
        ctx = phi_context(4)
        num = Poly.variable(ctx.hvars, "h1") + 2
        for d in (1, 2, 3):
            den = tuple(int(k == d - 1) for k in range(6))
            out = ctx.times_taus(LocFrac(ctx, num, den), (d,))
            assert out.num == num and out.den == ctx.one.den, d

    def test_multiplies_when_the_tau_is_missing(self):
        ctx = phi_context(4)
        num = Poly.variable(ctx.hvars, "h2") - 1
        sigma1 = (0, 0, 0, 1, 0, 0)
        for d in (1, 2, 3):
            out = ctx.times_taus(LocFrac(ctx, num, sigma1), (d,))
            assert out.num == num * ctx.factors[d - 1] and out.den == sigma1, d

    def test_repeated_tau(self):
        ctx = phi_context(4)
        num = Poly.variable(ctx.hvars, "h3")
        tau2 = ctx.factors[1]
        # one tau_2 in the denominator: the first cancels, the second multiplies
        once = ctx.times_taus(LocFrac(ctx, num, (0, 1, 0, 0, 0, 0)), (2, 2))
        assert once.num == num * tau2 and once.den == ctx.one.den
        twice = ctx.times_taus(LocFrac(ctx, num, (0, 2, 0, 0, 0, 0)), (2, 2))
        assert twice.num == num and twice.den == ctx.one.den
        none = ctx.times_taus(LocFrac(ctx, num, ctx.one.den), (2, 2, 2))
        assert none.num == num * tau2 * tau2 * tau2 and none.den == ctx.one.den

    def test_zero_numerator(self):
        ctx = phi_context(4)
        out = ctx.times_taus(ctx.zero, (1, 2, 3, 3))
        assert out.num.is_zero() and out.den == ctx.one.den and out == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_equals_multiplying_by_the_tau_product(self, n):
        ctx, table = phi_context(n), tau_sigma(n)
        names = [f"{v}{i}" for v in "zx" for i in range(1, n + 1)]
        names += [f"Q{i}" for i in range(1, n)]
        images = [gen_image(ctx, name) for name in names]
        images += [ctx.reduce(image) for image in images]
        images += [phi_f_image(n, m, i) for m in range(1, n) for i in range(m + 1)]
        images.append(gen_image(ctx, "z1") * gen_image(ctx, "Q1") + 3)
        all_taus = tuple(range(1, n))
        for taus in ((), (1,), (n - 1,), (1, 1), all_taus, all_taus + all_taus):
            product = SymFunc.one()
            for d in taus:
                product = product * table.tau[d]
            for image in images:
                expected = image * ctx.from_symfunc(product)
                assert ctx.times_taus(image, taus) == expected, (n, taus, image)


class TestPerpD:
    def test_vanishing_for_large_shift(self):
        spec = DSpec((0,), (3,), 4)
        assert perp_d_check(9, 1, spec)

    def test_random_specs(self):
        rng = random.Random(17)
        for _ in range(10):
            n = 4
            d = rng.randint(1, 3)
            spec = DSpec(
                tuple(rng.randint(-2, 3) for _ in range(d)),
                tuple(rng.randint(0, 3) for _ in range(d)),
                n,
            )
            for i in (1, 2):
                assert perp_d_check(i, d, spec)

    def test_skew_rectangle_identity(self):
        for n in (3, 4):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    assert skew_rectangle_check(lam, d, n)


class TestGTildeDivision:
    def test_exact_division_certifies_membership(self):
        # multivariate long division in Lambda_(n): success iff divisible
        t = tau_sigma(4)
        f = t.tau[2] * (h(1) + h(3)) + 0
        assert f.exact_div(t.tau[2]) == h(1) + h(3)
        assert (f + 1).exact_div(t.tau[2]) is None
