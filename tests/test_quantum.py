import hashlib
import random
from functools import lru_cache
from math import comb

import pytest

from helpers import lift_to_symfunc, reference_sparse_gauss_jordan
from kpeterson.grothendieck import dual_groth, stable_groth_vars
from kpeterson.partitions import (
    Partition,
    Permutation,
    all_permutations,
    complement,
    conjugate,
    partitions_in_rectangle,
)
from kpeterson.peterson import LocFrac, phi_context, tau_sigma
from kpeterson.polynomials import Poly, xq_vars
from kpeterson.quantum import (
    KBoundedPartition,
    NonPolynomialImageError,
    NotInSpanError,
    _peel,
    bounded_to_core,
    core_to_bounded,
    fq_poly,
    fq_poly_z,
    g_tilde,
    grassmannian_perm,
    groth_poly,
    k_conjugate,
    lambda_map,
    phi_f_image,
    phi_groth_image,
    pi_op,
    quantize,
    quantize_context,
    quantum_groth,
    s_q_poly,
)
from kpeterson.scalars import Rational, rational_to_text
from kpeterson.suites import load_tables
from kpeterson.symfunc import SymFunc, perp

h = SymFunc.h


def x_vars(n):
    """x1..xn: the variables left once Q1..Q_{n-1} are set to 0."""
    return xq_vars(n)[:n]


class TestGroth:
    def test_base_cases(self):
        assert groth_poly(Permutation.longest(4)).to_str() == "x1^3*x2^2*x3"
        assert groth_poly(Permutation.identity(3)) == 1
        v = ("x1", "x2")
        assert groth_poly(Permutation([2, 1])) == Poly.variable(v, "x1").with_vars(
            ("x1", "x2")
        )

    def test_descent_recursion_both_branches(self):
        for w in all_permutations(4):
            f = groth_poly(w)
            for i in range(1, 4):
                ws = w.times_s(i)
                image = pi_op(f, i)
                if ws.length == w.length - 1:
                    assert image == groth_poly(ws), (w, i)
                else:
                    assert image == f, (w, i)

    def test_word_independence_randomized(self):
        rng = random.Random(19)

        def groth_random_path(w):
            n = w.n
            if w == Permutation.longest(n):
                return groth_poly(w)
            ascents = [i for i in range(1, n) if w(i) < w(i + 1)]
            i = rng.choice(ascents)
            return pi_op(groth_random_path(w.times_s(i)), i)

        for _ in range(10):
            images = list(range(1, 5))
            rng.shuffle(images)
            w = Permutation(images)
            assert groth_random_path(w) == groth_poly(w)


class TestFQ:
    def test_i_zero_is_one(self):
        assert fq_poly(3, 2, 0) == 1

    def test_n2_example(self):
        v = xq_vars(2)
        x1, Q1 = Poly.variable(v, "x1"), Poly.variable(v, "Q1")
        assert fq_poly(2, 1, 1) == (1 - x1) * (1 - Q1)

    def test_table_matches_substitution_of_z_table(self):
        # the x/Q table against F^(m)_i over z/Q at z_j = 1 - x_j
        for n in range(1, 7):
            variables = xq_vars(n)
            to_x = {f"z{j}": 1 - Poly.variable(variables, f"x{j}") for j in range(1, n + 1)}
            for m in range(1, n + 1):
                for i in range(m + 2):
                    expected = fq_poly_z(n, m, i).substitute(to_x, variables)
                    assert fq_poly(n, m, i) == expected, (n, m, i)
            for m, i in ((0, 1), (n + 1, 1), (1, -1)):
                with pytest.raises(ValueError):
                    fq_poly(n, m, i)

    def test_q_zero_specialization_is_elementary(self):
        n = 4
        for m in range(1, n + 1):
            for i in range(m + 1):
                spec = fq_poly(n, m, i).substitute({f"Q{j}": 0 for j in range(1, n)}, x_vars(n))
                from itertools import combinations

                expected = Poly.zero(spec.vars)
                for subset in combinations(range(1, m + 1), i):
                    term = Poly.const(spec.vars, 1)
                    for j in subset:
                        term = term * (1 - Poly.variable(spec.vars, f"x{j}"))
                    expected = expected + term
                assert spec == expected


class TestQuantize:
    def test_constant(self):
        assert quantize(Poly.const(("x1",), 5), 3) == 5

    def test_basis_monomials_map_to_f_monomials(self):
        n = 3
        for exps in quantize_context(n).basis:
            expected = Poly.const(xq_vars(n), 1)
            for j, i in enumerate(exps, start=1):
                expected = expected * fq_poly(n, j, i)
            assert quantize(_f_monomial(n, exps), n) == expected

    def test_x1_at_n2(self):
        v = xq_vars(2)
        x1, Q1 = Poly.variable(v, "x1"), Poly.variable(v, "Q1")
        assert quantize(Poly.variable(("x1", "x2"), "x1"), 2) == 1 - (1 - x1) * (1 - Q1)

    def test_q_zero_recovers_classical(self):
        for w in all_permutations(4):
            spec = quantum_groth(w).substitute({f"Q{i}": 0 for i in range(1, 4)}, x_vars(4))
            assert spec == groth_poly(w).with_vars(spec.vars), w

    def test_q_zero_recovers_classical_sampled_s5(self):
        rng = random.Random(37)
        pool = list(all_permutations(5))
        for w in rng.sample(pool, 5):
            spec = quantum_groth(w).substitute({f"Q{i}": 0 for i in range(1, 5)}, x_vars(5))
            assert spec == groth_poly(w).with_vars(spec.vars), w

    def test_q_zero_recovers_classical_s6(self):
        for text in ("213465", "654321"):
            w = Permutation.from_text(text)
            spec = quantum_groth(w).substitute({f"Q{i}": 0 for i in range(1, 6)}, x_vars(6))
            assert spec == groth_poly(w).with_vars(spec.vars), text
        # the last w is the longest element: its G_w is the staircase monomial
        assert spec.to_str() == "x1^5*x2^4*x3^3*x4^2*x5"

    def test_rejects_outside_span(self):
        with pytest.raises(NotInSpanError):
            quantize(Poly.variable(("x1", "x2"), "x1") ** 5, 2)
        with pytest.raises(NotInSpanError):
            quantize(Poly.variable(xq_vars(2), "Q1"), 2)


@lru_cache(maxsize=None)
def _f_monomial(n, exps):
    """The basis monomial prod_j e_{i_j}(1 - x_1, ..., 1 - x_j) over x1..xn,
    from the public F^(j)_i at Q = 0."""
    q_zero = {f"Q{j}": 0 for j in range(1, n)}
    poly = Poly.const(x_vars(n), 1)
    for j, i in enumerate(exps, start=1):
        poly = poly * fq_poly(n, j, i).substitute(q_zero, x_vars(n))
    return poly


def _f_monomial_matrix(ctx):
    """The coordinate matrix of the f-monomial basis in x: column c holds
    the staircase coordinates of basis c."""
    size = len(ctx.basis)
    rows = [[0] * size for _ in range(size)]
    for c, exps in enumerate(ctx.basis):
        for e, coeff in _f_monomial(ctx.n, exps).terms.items():
            rows[ctx.stair_index[e]][c] = coeff
    return rows


class TestQuantizeContext:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverse_times_f_monomial_matrix_is_identity(self, n):
        ctx = quantize_context(n)
        matrix = _f_monomial_matrix(ctx)
        size = len(matrix)
        for c, row in enumerate(ctx.inverse.rows):
            nonzero = [(k, a) for k, a in enumerate(row) if a]
            for j in range(size):
                entry = sum(a * matrix[k][j] for k, a in nonzero)
                assert entry == (c == j), (n, c, j)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverse_matches_reference_gauss_jordan(self, n):
        ctx = quantize_context(n)
        size = len(ctx.basis)
        eye = [[int(i == j) for j in range(size)] for i in range(size)]
        expected = reference_sparse_gauss_jordan(_f_monomial_matrix(ctx), eye)
        assert [list(row) for row in ctx.inverse.rows] == expected

    def test_coordinates_reconstruct_groth(self):
        # sum_c coords_c * f-monomial_c = G_w: every w at n <= 5, a sample at n = 6
        sample = random.Random(27).sample(list(all_permutations(6)), 3)
        for w in [*(w for n in range(2, 6) for w in all_permutations(n)), *sample]:
            n = w.n
            total = {}
            for exps, a in quantize_context(n).expand(groth_poly(w)).items():
                for e, coeff in _f_monomial(n, exps).terms.items():
                    total[e] = total.get(e, 0) + a * coeff
            assert {e: c for e, c in total.items() if c} == groth_poly(w).terms, w

    @pytest.mark.parametrize("n", [0, -1])
    def test_refuses_non_positive_n(self, n):
        with pytest.raises(ValueError, match=f"got n = {n}$"):
            quantize_context(n)
        with pytest.raises(ValueError, match=f"got n = {n}$"):
            quantize(Poly.const((), 1), n)

    def test_peel_refuses_a_stall_and_a_non_unit_pivot(self):
        assert _peel([[(0, 1), (1, 1)], [(1, 1)]]) == [(0, 0), (1, 1)]
        with pytest.raises(ArithmeticError, match="meets {0: 2}"):
            _peel([[(0, 2)]])
        with pytest.raises(ArithmeticError, match="stalls"):
            _peel([[(0, 1), (1, 1)], [(0, 1), (1, 1)]])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverse_is_integral(self, n):
        rows = quantize_context(n).inverse.rows
        assert all(type(x) is int for row in rows for x in row)

    def test_expand_matches_dense_product_s4(self):
        ctx = quantize_context(4)
        for w in all_permutations(4):
            vec = [0] * len(ctx.staircase)
            for e, coeff in groth_poly(w).terms.items():
                vec[ctx.stair_index[e]] = coeff
            dense = [sum(a * b for a, b in zip(row, vec)) for row in ctx.inverse.rows]
            expected = {exps: x for exps, x in zip(ctx.basis, dense) if x}
            assert ctx.expand(groth_poly(w)) == expected, w


class TestSQ:
    def test_empty_is_one(self):
        assert s_q_poly(Partition(), 2, 4) == 1

    def test_single_box(self):
        assert s_q_poly(Partition([1]), 1, 3) == fq_poly(3, 1, 1)

    def test_quantized_schur_matches_determinant_n3(self):
        # via the quantization of s_lambda(1-x_1..1-x_d); full sweep at n=3
        from kpeterson.matrices import RingMatrix

        n = 3
        for d in range(1, n):
            for lam in partitions_in_rectangle(d, n - d):
                xvars = tuple(f"x{i}" for i in range(1, n + 1))
                maxm = lam.weight + len(lam) + 1
                H = {
                    (m, 0): (Poly.const(xvars, 1) if m == 0 else Poly.zero(xvars))
                    for m in range(maxm + 1)
                }
                for j in range(1, d + 1):
                    y = 1 - Poly.variable(xvars, f"x{j}")
                    for m in range(maxm + 1):
                        H[(m, j)] = H[(m, j - 1)] + (
                            y * H[(m - 1, j)] if m else Poly.zero(xvars)
                        )
                ell = len(lam)
                if ell == 0:
                    s_poly = Poly.const(xvars, 1)
                else:
                    rows = [
                        [
                            H.get((lam.part(i) + j - i, d), Poly.zero(xvars))
                            for j in range(1, ell + 1)
                        ]
                        for i in range(1, ell + 1)
                    ]
                    s_poly = RingMatrix(rows).det()
                lhs = quantize(s_poly, n)
                assert lhs == s_q_poly(lam, d, n).with_vars(lhs.vars), (d, lam)


class TestGrassmannian:
    def test_examples(self):
        assert grassmannian_perm(Partition(), 2, 4) == Permutation.identity(4)
        assert grassmannian_perm(Partition([1]), 1, 2) == Permutation([2, 1])

    def test_lengths_and_descents(self):
        for n in (3, 4, 5):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    w = grassmannian_perm(lam, d, n)
                    assert w.length == lam.weight
                    assert w.descents <= frozenset({d})

    def test_rejects_outside_rectangle(self):
        with pytest.raises(ValueError):
            grassmannian_perm(Partition([3]), 1, 3)


class TestLambdaMap:
    def test_tables(self):
        tables = load_tables()["lambda_tables"]
        for n_str, rows in tables.items():
            n = int(n_str)
            for row in rows:
                w = Permutation.from_text(row["w"])
                got = lambda_map(w)
                assert got.partition == Partition.from_text(row["lam"]), row
                assert k_conjugate(got.partition, n - 1) == Partition.from_text(
                    row["conj"]
                ), row
                # (n-1)-irreducible: at most k - i parts equal to i
                parts = got.partition.parts
                assert all(parts.count(i) <= got.k - i for i in range(1, got.k + 1)), row

    def test_constant_on_cosets(self):
        c0 = Permutation.cycle(5, 0)
        for w in [Permutation([2, 4, 1, 5, 3]), Permutation([3, 1, 4, 2, 5])]:
            base = lambda_map(w).partition
            for t in range(1, 5):
                assert lambda_map((c0**t) * w).partition == base

    def test_injective_on_stabilized_set(self):
        for n in (3, 4, 5):
            seen = {}
            for w in all_permutations(n):
                if w(1) != 1:
                    continue
                key = lambda_map(w).partition
                assert key not in seen, (w, seen[key])
                seen[key] = w
            # image is exactly the irreducible k-bounded partitions
            import math

            assert len(seen) == math.factorial(n - 1)


def reference_bounded_to_core(mu, k):
    """The (k+1)-core by recounting each leg over every placed row."""
    rows = []
    for part in reversed(mu.parts):
        shift = max(0, (rows[-1] if rows else 0) - part)
        while True:
            length = part + shift
            leg_in = sum(1 for r in rows if r >= shift + 1)
            leg_out = sum(1 for r in rows if r >= shift)
            if (length - (shift + 1)) + leg_in + 1 <= k and (
                shift == 0 or (length - shift) + leg_out + 1 >= k + 2
            ):
                break
            shift += 1
        rows.append(length)
    return Partition(reversed(rows))


def reference_core_to_bounded(core, k):
    """Cells of hook at most k per row, counting the rows below each cell."""
    ell = len(core)
    parts = []
    for i in range(1, ell + 1):
        count = 0
        for j in range(1, core.part(i) + 1):
            below = sum(1 for r in range(i + 1, ell + 1) if core.part(r) >= j)
            if (core.part(i) - j) + below + 1 <= k:
                count += 1
        parts.append(count)
    return Partition(parts)


class TestKConjugate:
    def test_examples(self):
        assert k_conjugate(Partition([2]), 3) == Partition([1, 1])
        assert k_conjugate(Partition([3, 2, 2]), 4) == Partition([2, 2, 1, 1, 1])

    def test_core_bijection_roundtrip(self):
        from kpeterson.partitions import all_partitions_up_to

        for k in (2, 3, 4):
            for mu in all_partitions_up_to(7, max_part=k):
                core = bounded_to_core(mu, k)
                assert core_to_bounded(core, k) == mu

    def test_core_maps_match_leg_recount(self):
        from kpeterson.partitions import all_partitions_up_to

        for k in range(1, 6):
            for mu in all_partitions_up_to(12, max_part=k):
                core = bounded_to_core(mu, k)
                assert core == reference_bounded_to_core(mu, k), (mu, k)
                assert core_to_bounded(conjugate(core), k) == reference_core_to_bounded(
                    conjugate(core), k
                ), (mu, k)

    def test_involution(self):
        from kpeterson.partitions import all_partitions_up_to

        for k in (3, 4):
            for mu in all_partitions_up_to(7, max_part=k):
                assert k_conjugate(k_conjugate(mu, k), k) == mu

    def test_ordinary_conjugate_inside_rectangles(self):
        for n in (4, 5):
            k = n - 1
            for d in range(1, n):
                for mu in partitions_in_rectangle(d, n - d):
                    assert k_conjugate(mu, k) == conjugate(mu)

    def test_kbounded_type(self):
        kb = KBoundedPartition(Partition([2, 1, 1]), 3)
        assert (kb.partition, kb.k) == (Partition([2, 1, 1]), 3)
        with pytest.raises(ValueError):
            KBoundedPartition(Partition([4]), 3)


class TestGrassmannianConjugates:
    def test_grassmannian_conjugates(self):
        for n in (3, 4, 5):
            for d in range(1, n):
                for mu in partitions_in_rectangle(d, n - d):
                    if not mu.parts:
                        continue  # identity loses the d-label
                    w = grassmannian_perm(mu, d, n)
                    assert k_conjugate(lambda_map(w).partition, n - 1) == complement(
                        mu, d, n
                    )


class TestGTilde:
    def test_images_in_lowest_terms(self):
        for n in (3, 4):
            ctx = phi_context(n)
            images = [phi_f_image(n, m, i) for m in range(1, n + 1) for i in range(m + 1)]
            images += [phi_groth_image(w) for w in all_permutations(n)]
            for image in images:
                for factor, e in zip(ctx.factors, image.den):
                    assert e == 0 or image.num.exact_div(factor) is None

    def test_identity(self):
        assert g_tilde(Permutation.identity(3)) == SymFunc.one()

    def test_f_image_domain(self):
        # (1^i) has more than m rows for i > m, and F^(m)_i = 0 there; the
        # D-ratio alone would give h2^2 - h1*h3 for (4, 2, 3).
        for n, m, i in ((4, 2, 3), (3, 1, 2), (5, 3, 9)):
            image = phi_f_image(n, m, i)
            assert image.num.is_zero() and not any(image.den)
        for n, m, i in ((4, 2, -1), (4, 5, 1), (4, 0, 0), (3, -1, 1)):
            with pytest.raises(ValueError):
                phi_f_image(n, m, i)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_f_images_at_m_equal_n_are_binomials(self, n):
        # F^(n)_i = F_i, and phi(F_i) = C(n, i) (the remarkable identity)
        for i in range(n + 1):
            image = phi_f_image(n, n, i)
            assert image.is_polynomial() and image == comb(n, i)

    @pytest.mark.parametrize("n", [3, 4])
    def test_image_matches_homomorphism_on_quantum_groth(self, n):
        # phi_groth_image assembles the F-images over the f-basis
        # coordinates; apply_frac evaluates the quantized polynomial term by
        # term through the generator table.  Lowest terms are unique.
        ctx = phi_context(n)
        for w in all_permutations(n):
            image, direct = phi_groth_image(w), ctx.apply_frac(quantum_groth(w))
            assert (image.num, image.den) == (direct.num, direct.den), w

    def test_grassmannian_images(self):
        # lambda = empty gives the identity (no descents), covered above;
        # the descent-cleared numerator form needs Des(w) = {d}.
        for n in (3, 4):
            for d in range(1, n):
                for lam in partitions_in_rectangle(d, n - d):
                    if not lam.parts:
                        continue
                    w = grassmannian_perm(lam, d, n)
                    assert g_tilde(w) == dual_groth(complement(lam, d, n)), (n, d, lam)

    def test_factored_row_n5(self):
        w = Permutation.from_text("12543")
        expected = dual_groth(Partition([1, 1, 1])) * dual_groth(Partition([2, 2]))
        assert g_tilde(w) == expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_multiply_then_reduce(self, n):
        # the descent tau's multiplied in and divided out again by reduce,
        # as g_tilde computed them before its exponent bookkeeping
        ctx, table = phi_context(n), tau_sigma(n)
        for w in all_permutations(n):
            image = phi_groth_image(w)
            for i in sorted(w.descents):
                image = image * ctx.from_symfunc(table.tau[i])
            image = ctx.reduce(image)
            assert image.is_polynomial(), w
            assert g_tilde(w) == image.symfunc(), w

    def test_leftover_factor_raises(self, monkeypatch):
        import kpeterson.quantum as quantum

        w = Permutation.from_text("2134")  # Des(w) = {1}
        ctx = phi_context(4)
        image = phi_groth_image(w)
        tau1, tau2, sigma1 = 0, 1, 3  # indices into ctx.factor_names
        for extra in (tau2, tau1, sigma1):
            den = list(image.den)
            den[extra] += 2 if extra == tau1 else 1
            fake = LocFrac(ctx, image.num, tuple(den))
            monkeypatch.setattr(quantum, "phi_groth_image", lambda w, fake=fake: fake)
            with pytest.raises(NonPolynomialImageError):
                g_tilde.__wrapped__(w)
        monkeypatch.undo()
        assert g_tilde.__wrapped__(w) == g_tilde(w)

    def test_quantized_stable_pushforward_routes_agree(self):
        # Route A: quantize the stable polynomial and push through phi.
        # Route B: the skew operator G_lambda-perp applied to g_{R_d}.
        n = 4
        ctx = phi_context(n)
        table = tau_sigma(n)
        for d in range(1, n):
            rect_weight = d * (n - d)
            for lam in partitions_in_rectangle(d, n - d):
                w = grassmannian_perm(lam, d, n)
                assert quantize(stable_groth_vars(lam, d), n) == quantum_groth(w)
                image = phi_groth_image(w) * ctx.from_symfunc(table.tau[d])
                lifted = lift_to_symfunc(
                    stable_groth_vars(lam, rect_weight or 1).with_vars(
                        tuple(f"x{i}" for i in range(1, (rect_weight or 1) + 1))
                    ),
                    rect_weight or 1,
                )
                route_b = perp(lifted, table.tau[d])
                assert route_b == dual_groth(complement(lam, d, n))
                assert image == ctx.from_symfunc(route_b)


def _outputs_digest(ns):
    """sha256 over the reduced phi(F^(m)_i) for m < n and, for every w in
    S_n, phi(G^Q_w), g_tilde(w) and G^Q_w, coefficients as rational text."""
    digest = hashlib.sha256()

    def poly_text(terms):
        return ";".join(f"{e}:{rational_to_text(c)}" for e, c in terms)

    def frac_text(frac):
        return poly_text(frac.num.sorted_terms()) + "/" + str(frac.den)

    for n in ns:
        for m in range(1, n):
            for i in range(m + 1):
                digest.update(frac_text(phi_f_image(n, m, i)).encode())
        for w in all_permutations(n):
            digest.update(frac_text(phi_groth_image(w)).encode())
            digest.update(poly_text(sorted(g_tilde(w).terms.items())).encode())
            digest.update(poly_text(quantum_groth(w).sorted_terms()).encode())
    return digest.hexdigest()


def test_outputs_match_pinned_digest():
    # Recorded from the term-by-term sums of cached F-monomials and of their
    # Phi_n images that grouped_product replaced.
    assert _outputs_digest(range(3, 6)) == (
        "4ab6f8831dac3a675934bf1c229e5570551e00fba1946251c8b7ddda27323a4b"
    )
