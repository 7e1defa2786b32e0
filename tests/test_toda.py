import hashlib
import random
from math import comb

import pytest

from helpers import (
    _poly_mod,
    random_rational,
    random_unipotent_point,
    reference_conjugate,
    reference_conjugate_companion,
    reference_continuant,
    reference_f_subset_sum,
    reference_lax_to_point,
    reference_ru_decompose,
    reference_sparse_gauss_jordan,
    reference_ts_functions,
)
from kpeterson.matrices import RingMatrix
from kpeterson.polynomials import Poly, zq_vars
from kpeterson.scalars import Rational, rational_to_text
from kpeterson.symfunc import SymFunc
from kpeterson.toda import (
    DecompositionError,
    SpectralParams,
    TodaPoint,
    TruncSeriesPhi,
    YConditionError,
    alpha,
    beta_full,
    companion_matrix,
    f_invariant,
    fq_poly_z,
    gamma_of_point,
    is_phi_of_companion,
    lax_matrix,
    minor_formulas,
    partial_invariants,
    phi_of_companion,
    random_z_point,
    ru_decompose,
    ru_ratio_formula,
    ts_functions,
)
from kpeterson.toda import (
    _char_minor,
    _symbolic_entries,
    char_minor_phi_symbolic,
    lax_matrix_symbolic,
)

h = SymFunc.h


def q(a, b=1):
    return Rational(a, b)


def identity(n, one=1, zero=0):
    return RingMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])


def zeta_coeffs(poly, n):
    """The ascending zeta-coefficients of a Poly in zeta alone, of degree
    below n."""
    assert all(e < n for (e,) in poly.terms), poly
    return [poly.terms.get((e,), 0) for e in range(n)]


def point_values(pt):
    vals = {f"z{i}": pt.z[i - 1] for i in range(1, pt.n + 1)}
    vals.update({f"Q{i}": pt.Q[i - 1] for i in range(1, pt.n)})
    return vals


def reference_phi_of_companion(phi, params):
    """phi(C_gamma) as sum_k a_k C^k over dense matrix powers: the
    independent reference for the remainder rows of phi_of_companion."""
    n = phi.n
    coeffs = phi.to_zeta_coeffs()
    C = companion_matrix(params)
    power = identity(n)
    rows = [[coeffs[0] * (1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        power = power * C
        for i in range(n):
            for j in range(n):
                if power.rows[i][j]:
                    rows[i][j] = rows[i][j] + coeffs[k] * power.rows[i][j]
    return RingMatrix(rows)


def random_point(n, rng):
    """A rational point with z_1...z_n = 1 and any Q, zeros included."""
    z = [random_rational(rng, allow_zero=False) for _ in range(n - 1)]
    prod = Rational(1)
    for v in z:
        prod *= v
    Q = tuple(rng.choice((q(0), q(1), random_rational(rng))) for _ in range(n - 1))
    return TodaPoint(n, tuple(z) + (1 / prod,), Q)


def reference_lax(z, Q):
    """A B^{-1} as a matrix product, over the ring of z and Q.  B^{-1} is
    the rational inverse of B at a point; symbolically it is the closed form
    prod_{j <= k < i} Q_k z_k, checked here against B B^{-1} = 1."""
    n = len(z)
    zero = z[0] * 0
    one = zero + 1
    A = [[zero] * n for _ in range(n)]
    B = [[zero] * n for _ in range(n)]
    binv = [[zero] * n for _ in range(n)]
    for j in range(n):
        A[j][j], B[j][j], binv[j][j] = z[j], one, one
        if j + 1 < n:
            A[j][j + 1] = -one
            B[j + 1][j] = -(Q[j] * z[j])
        for i in range(j + 1, n):
            binv[i][j] = binv[i - 1][j] * Q[i - 1] * z[i - 1]
    if isinstance(zero, Poly):
        assert RingMatrix(B) * RingMatrix(binv) == identity(n, one, zero)
        return RingMatrix(A) * RingMatrix(binv)
    return RingMatrix(A) * RingMatrix(B).inverse()


def zeta1_ts_functions(phi, params):
    """Reference T/S through the (zeta-1)-power coordinate map: phi*zeta^j
    is written in powers of u = zeta - 1 truncated at u^n, which is a valid
    coordinate map only when the characteristic polynomial is (zeta-1)^n.
    Its basis determinant is (-1)^{n(n-1)/2}, hence the sign normalization."""
    n = phi.n
    assert params == SpectralParams.unipotent(n)
    zero = phi.c[0] * 0
    one = zero + 1
    cur = [-ci if i % 2 else ci for i, ci in enumerate(phi.c)]
    b = []
    for _ in range(n):
        b.append([-ci if i % 2 else ci for i, ci in enumerate(cur)])
        cur = [cur[k] + (cur[k - 1] if k else zero) for k in range(n)]
    a = [[(-1) ** k * comb(j, k) * one for k in range(n)] for j in range(n)]
    sign = (-1) ** (n * (n - 1) // 2)

    def det_of(columns):
        return RingMatrix([[col[k] for col in columns] for k in range(n)]).det() * sign

    T = [det_of(b[:i] + a[i - 1 : n - 1]) for i in range(1, n + 1)]
    S = [det_of(b[:i] + a[i:n]) for i in range(1, n + 1)]
    return T, S


def reference_char_minor(z, Q, variables):
    """Delta_{1,1}(zeta*B - A) as the determinant of the explicit matrix:
    zeta*B - A is built entry by entry (diagonal zeta - z_i, superdiagonal 1,
    subdiagonal -zeta Q_i z_i) and its (1,1) minor taken by RingMatrix.det.
    The independent reference for the continuant behind alpha."""
    n = len(z)
    zeta = Poly.variable(variables, "zeta")
    zero = Poly.zero(variables)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = zeta - z[i]
        if i + 1 < n:
            rows[i][i + 1] = zero + 1
            rows[i + 1][i] = -(zeta * (Q[i] * z[i]))
    return RingMatrix(rows).minor(range(2, n + 1), range(2, n + 1))


def padded_ts_functions(phi, params):
    """T/S as full n x n determinants: the columns are the remainder
    coordinates of phi*zeta^j (j < i), padded with unit columns e_{i-1}..e_{n-2}
    for T_i and e_i..e_{n-1} for S_i.  The reference for the minors that
    ts_functions reads off one matrix."""
    n = phi.n
    zero = phi.c[0] * 0
    one = zero + 1
    modulus = params.char_poly_coeffs()
    cur = phi.to_zeta_coeffs()
    b = []
    for _ in range(n):
        b.append(cur)
        cur = _poly_mod([zero] + cur, modulus)
    a = [[one if k == j else zero for k in range(n)] for j in range(n)]

    def det_of(columns):
        return RingMatrix([[col[k] for col in columns] for k in range(n)]).det()

    T = [det_of(b[:i] + a[i - 1 : n - 1]) for i in range(1, n + 1)]
    S = [det_of(b[:i] + a[i:n]) for i in range(1, n + 1)]
    return T, S


def random_params(n, rng):
    gamma = tuple(q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1))
    return SpectralParams(gamma + (q(1),))


class TestInvariants:
    def test_f2_by_hand(self):
        v = zq_vars(2)
        z1, z2, Q1 = (Poly.variable(v, name) for name in ("z1", "z2", "Q1"))
        assert f_invariant(2, 1) == z1 * (1 - Q1) + z2

    def test_top_invariant_is_product(self):
        for n in (2, 3, 4):
            v = zq_vars(n)
            expected = Poly.const(v, 1)
            for i in range(1, n + 1):
                expected = expected * Poly.variable(v, f"z{i}")
            assert f_invariant(n, n) == expected

    def test_q_zero_specializes_to_elementary(self):
        from itertools import combinations

        n = 4
        v = zq_vars(n)
        for i in range(1, n + 1):
            spec = f_invariant(n, i).substitute(
                {f"Q{j}": 0 for j in range(1, n)}, [f"z{j}" for j in range(1, n + 1)]
            )
            expected = Poly.zero(spec.vars)
            for subset in combinations(range(1, n + 1), i):
                term = Poly.const(spec.vars, 1)
                for j in subset:
                    term = term * Poly.variable(spec.vars, f"z{j}")
                expected = expected + term
            assert spec == expected

    def test_table_matches_subset_sum(self):
        for n in range(1, 9):
            for m in range(1, n + 1):
                for i in range(m + 2):
                    assert fq_poly_z(n, m, i) == reference_f_subset_sum(n, m, i), (n, m, i)
            for i in range(1, n + 1):
                assert f_invariant(n, i) == fq_poly_z(n, n, i)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_out_of_range_indices_raise(self, n):
        for m, i in ((0, 1), (n + 1, 1), (1, -1)):
            with pytest.raises(ValueError):
                fq_poly_z(n, m, i)
            with pytest.raises(ValueError):
                reference_f_subset_sum(n, m, i)
        for i in (0, n + 1):
            with pytest.raises(ValueError):
                f_invariant(n, i)

    def test_partial_invariants_match_evaluation(self):
        rng = random.Random(18)
        for n in range(2, 8):
            for _ in range(20):
                pt = random_point(n, rng)
                vals = point_values(pt)
                table = partial_invariants(pt)
                assert [len(row) for row in table] == list(range(1, n + 2))
                for m in range(1, n + 1):
                    for i in range(m + 1):
                        expected = reference_f_subset_sum(n, m, i).evaluate(vals)
                        assert table[m][i] == expected, (pt, m, i)
                assert gamma_of_point(pt).gamma == tuple(table[n][1:])


class TestLax:
    def test_entries_match_product_at_points(self):
        rng = random.Random(181)
        for n in range(1, 7):
            for _ in range(10):
                pt = random_point(n, rng)
                assert lax_matrix(pt) == reference_lax(pt.z, pt.Q), pt

    def test_entries_match_product_symbolically(self):
        for n in range(1, 7):
            entries = _symbolic_entries(zq_vars(n), n)
            assert lax_matrix_symbolic(n) == reference_lax(*entries)

    def test_conjugation_matches_products(self):
        # For any lower triangular U with diagonal (-1)^{i-1} and any R in
        # B*sigma, ru_decompose(U^{-1} R) gives back U and U^{-1}, and
        # U C U^{-1} as two products matches the substitution from
        # L U = U C and the dot products with the Fraction inverse.
        rng = random.Random(191)
        for n in range(1, 8):
            for _ in range(10):
                U = [
                    [
                        (-1) ** i if i == j else random_rational(rng) if j < i else 0
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
                # R with its column n moved first: upper triangular, and
                # invertible so that the decomposition is unique
                R = [
                    [random_rational(rng, allow_zero=j != i) if j >= i else 0 for j in range(n)]
                    for i in range(n)
                ]
                R = [row[1:] + row[:1] for row in R]
                eye = [[int(i == j) for j in range(n)] for i in range(n)]
                U_inv = reference_sparse_gauss_jordan(U, eye)
                X = RingMatrix(U_inv) * RingMatrix(R)
                got_R, got_U, got_U_inv = ru_decompose(X)
                assert got_U == RingMatrix(U) and got_R == RingMatrix(R)
                assert got_U_inv == RingMatrix(U_inv)
                params = random_params(n, rng)
                C = companion_matrix(params)
                expected = reference_conjugate(U, C.rows)
                assert reference_conjugate_companion(U, params) == expected
                got = got_U * C * got_U_inv
                assert [list(row) for row in got.rows] == expected

    def test_beta_lax_matches_conjugation(self):
        rng = random.Random(193)
        for n in range(2, 7):
            for sample in (random_z_point, random_unipotent_point):
                pt = sample(n, rng)
                params = gamma_of_point(pt)
                bd = beta_full(alpha(pt), params)
                expected = reference_conjugate(bd.U.rows, companion_matrix(params).rows)
                assert [list(row) for row in bd.L.rows] == expected

    def test_inverse_matches_closed_form_n2(self):
        pt = TodaPoint(2, (q(2), q(1, 2)), (q(3),))
        M = lax_matrix(pt).inverse()
        assert M[1, 1] == q(1, 2)  # 1/z1
        assert M[1, 2] == 1  # 1/(z1 z2)
        assert M[2, 1] == -3  # -Q1
        assert M[2, 2] == -4  # -(Q1 - 1)/z2

    def test_q_zero_gives_bidiagonal(self):
        pt = TodaPoint(3, (q(2), q(3), q(1, 6)), (q(0), q(0)))
        L = lax_matrix(pt)
        assert L[2, 1] == 0 and L[3, 1] == 0 and L[3, 2] == 0
        assert (L[1, 1], L[2, 2], L[3, 3]) == (q(2), q(3), q(1, 6))

    def test_round_trip_parametrization(self):
        rng = random.Random(41)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                pt = random_z_point(n, rng)
                assert reference_lax_to_point(lax_matrix(pt)) == pt

    def test_round_trip_with_q_zero_or_one(self):
        # random_z_point never draws Q_k = 0 or 1, where some entries of L
        # lose z_k or Q_k; L^{-1} still holds both.
        z3, z4 = (q(2), q(3), q(1, 6)), (q(2), q(-1, 3), q(3, 2), q(-1))
        for z, Qs in (
            (z3, [(0, 0), (0, 1), (1, 0), (1, 1), (0, q(-5, 7))]),
            (z4, [(0, 0, 0), (1, 1, 1), (0, 1, q(5, 7)), (1, 0, 0), (q(3, 2), 0, 1)]),
        ):
            for Q in Qs:
                pt = TodaPoint(len(z), z, tuple(map(q, Q)))
                assert reference_lax_to_point(lax_matrix(pt)) == pt, pt

    def test_beta_point_matches_inverse_of_lax(self):
        # beta_full reads the point off T/S; the reference reads it off L^{-1}.
        rng = random.Random(197)
        for n in range(2, 7):
            for _ in range(20):
                pt = random_z_point(n, rng)
                bd = beta_full(alpha(pt), gamma_of_point(pt))
                assert bd.point == reference_lax_to_point(bd.L), pt

    def test_rejects_bad_product(self):
        with pytest.raises(ValueError):
            TodaPoint(2, (q(2), q(2)), (q(1),))

    def test_symbolic_specializes_to_points(self):
        rng = random.Random(37)
        for n in (2, 3, 4, 5):
            L = lax_matrix_symbolic(n)
            minor = char_minor_phi_symbolic(n)
            for _ in range(20):
                pt = random_z_point(n, rng)
                vals = point_values(pt)
                rows = [[entry.substitute(vals, ()) for entry in row] for row in L.rows]
                assert rows == [list(row) for row in lax_matrix(pt).rows]
                at_point = minor.substitute(vals, ("zeta",))
                assert zeta_coeffs(at_point, n) == alpha(pt).to_zeta_coeffs()


class TestCharMinor:
    def test_n3_symbolic_matches_reference(self):
        p3 = char_minor_phi_symbolic(3)
        v = ("zeta",) + zq_vars(3)
        zeta, z2, z3, Q2 = (
            Poly.variable(v, name) for name in ("zeta", "z2", "z3", "Q2")
        )
        assert p3 == zeta**2 + (Q2 * z2 - z2 - z3) * zeta + z2 * z3

    def test_matches_explicit_determinant_at_points(self):
        rng = random.Random(101)
        for n in range(2, 8):
            for _ in range(20):
                pt = random_z_point(n, rng)
                expected = reference_char_minor(pt.z, pt.Q, ("zeta",))
                assert alpha(pt).to_zeta_coeffs() == zeta_coeffs(expected, n), (n, pt)

    def test_symbolic_matches_explicit_determinant(self):
        for n in range(1, 6):
            variables = ("zeta",) + zq_vars(n)
            z = [Poly.variable(variables, f"z{i}") for i in range(1, n + 1)]
            Q = [Poly.variable(variables, f"Q{i}") for i in range(1, n)]
            expected = reference_char_minor(z, Q, variables)
            assert char_minor_phi_symbolic(n) == expected, n

    def test_coefficient_lists_match_poly_continuant(self):
        rng = random.Random(107)
        for n in range(1, 8):
            for _ in range(20):
                pt = random_point(n, rng)
                expected = reference_continuant(pt.z, pt.Q, ("zeta",))
                assert _char_minor(pt.z, pt.Q) == zeta_coeffs(expected, n)
                assert alpha(pt).to_zeta_coeffs() == zeta_coeffs(expected, n)
        for n in range(1, 6):
            variables = ("zeta",) + zq_vars(n)
            expected = reference_continuant(*_symbolic_entries(variables, n), variables)
            assert char_minor_phi_symbolic(n) == expected, n

    def test_n2(self):
        pt = TodaPoint(2, (q(2), q(1, 2)), (q(3),))
        assert alpha(pt).to_zeta_coeffs() == [q(-1, 2), q(1)]

    def test_n1_trivial(self):
        pt = TodaPoint(1, (q(1),), ())
        assert alpha(pt).to_zeta_coeffs() == [1]

    def test_alpha_at_ones_symbolic_shape(self):
        # z = (1,1,1): phi = zeta^2 + (Q2 - 2) zeta + 1
        spec = char_minor_phi_symbolic(3).substitute(
            {"z1": 1, "z2": 1, "z3": 1, "Q1": 0}, ("zeta", "Q2")
        )
        v = spec.vars
        zeta, Q2 = Poly.variable(v, "zeta"), Poly.variable(v, "Q2")
        assert spec == zeta**2 + (Q2 - 2) * zeta + 1

    def test_alpha_triangular_case(self):
        pt = TodaPoint(3, (q(2), q(3), q(1, 6)), (q(0), q(0)))
        phi = alpha(pt)
        got = phi.to_zeta_coeffs()
        # (zeta - z2)(zeta - z3)
        assert got == [q(1, 2), q(-3) - q(1, 6), q(1)]


class TestTS:
    def test_unit_class_has_unit_principal_minors(self):
        params = SpectralParams(tuple(map(Rational, (2, 3, 1))))
        phi = TruncSeriesPhi.from_zeta_coeffs(3, [1])
        _, S = ts_functions(phi, params)
        assert S == [Rational(1)] * 3

    def test_tn_sn_power_of_c0(self):
        rng = random.Random(43)
        for n in (2, 3, 4):
            uni = SpectralParams.unipotent(n)
            c = [Rational(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
            phi = TruncSeriesPhi(n, c)
            T, S = ts_functions(phi, uni)
            assert T[n - 1] == c[0] ** n and S[n - 1] == c[0] ** n

    def test_symbolic_n3_matches_tau_sigma_table(self):
        phi = TruncSeriesPhi.symbolic_unipotent(3)
        T, S = ts_functions(phi, SpectralParams.unipotent(3))
        assert T[0] == h(2) and T[1] == h(1) ** 2 - h(2) + h(1)
        assert S[0] == h(2) + h(1) + 1 and S[1] == h(1) ** 2 - h(2) + 2 * h(1) + 1
        assert T[2] == 1 and S[2] == 1

    def test_admissible_maps_agree(self):
        rng = random.Random(89)
        for n in (2, 3, 4, 5, 6):
            uni = SpectralParams.unipotent(n)
            classes = [
                TruncSeriesPhi(n, [q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
                for _ in range(30)
            ]
            if n <= 5:
                classes.append(TruncSeriesPhi.symbolic_unipotent(n))
            for phi in classes:
                assert zeta1_ts_functions(phi, uni) == ts_functions(phi, uni)

    def test_minors_match_padded_determinants(self):
        rng = random.Random(103)
        for n in range(1, 7):
            for _ in range(10):
                params = random_params(n, rng)
                phi = TruncSeriesPhi(
                    n, [q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                )
                assert ts_functions(phi, params) == padded_ts_functions(phi, params)

    def test_symbolic_minors_match_padded_determinants(self):
        for n in range(1, 7):
            phi = TruncSeriesPhi.symbolic_unipotent(n)
            params = SpectralParams.unipotent(n)
            assert ts_functions(phi, params) == padded_ts_functions(phi, params), n

    def test_one_elimination_matches_per_minor_reference(self):
        # T/S read off one Bareiss pass of phi(C_gamma), against one minor
        # each; phi with zero leading coefficients has vanishing leading
        # minors.
        rng = random.Random(109)
        for n in range(1, 8):
            for k in range(12):
                params = random_params(n, rng)
                c = [q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                m = min(k % 3, n - 1)
                phi = (
                    TruncSeriesPhi.from_zeta_coeffs(n, [0] * m + c[:n - m])
                    if k % 2
                    else TruncSeriesPhi(n, c)
                )
                assert ts_functions(phi, params) == reference_ts_functions(phi, params)
                assert is_phi_of_companion(phi_of_companion(phi, params), phi, params)
        for n in range(1, 6):
            phi = TruncSeriesPhi.symbolic_unipotent(n)
            params = SpectralParams.unipotent(n)
            assert ts_functions(phi, params) == reference_ts_functions(phi, params)

    def test_zeta_coeffs_are_kept_and_copied(self):
        phi = TruncSeriesPhi(3, [q(1), q(2), q(3)])
        coeffs = phi.to_zeta_coeffs()
        coeffs[0] = q(99)
        assert phi.to_zeta_coeffs() == [q(6), q(-8), q(3)]
        from_coeffs = TruncSeriesPhi.from_zeta_coeffs(3, [q(6), q(-8), q(3)])
        assert from_coeffs == phi and from_coeffs.to_zeta_coeffs() == [6, -8, 3]

    def test_zeta_coeffs_above_degree_n_minus_1_are_refused(self):
        with pytest.raises(ValueError):
            TruncSeriesPhi.from_zeta_coeffs(2, [1, 2, 3])
        with pytest.raises(ValueError):
            TruncSeriesPhi.from_zeta_coeffs(3, [q(1), 0, 0, 0, h(1)])
        padded = TruncSeriesPhi.from_zeta_coeffs(2, [q(1), q(2), 0, q(0)])
        assert padded == TruncSeriesPhi.from_zeta_coeffs(2, [q(1), q(2)])
        assert padded.to_zeta_coeffs() == [1, 2]
        assert TruncSeriesPhi.from_zeta_coeffs(3, [1]).to_zeta_coeffs() == [1, 0, 0]

    def test_zeta_coeffs_round_trip(self):
        rng = random.Random(97)
        for n in (1, 2, 3, 4, 5):
            phi = TruncSeriesPhi(n, [q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
            assert TruncSeriesPhi.from_zeta_coeffs(n, phi.to_zeta_coeffs()) == phi
            sym = TruncSeriesPhi.symbolic_unipotent(n)
            assert TruncSeriesPhi.from_zeta_coeffs(n, sym.to_zeta_coeffs()) == sym

    def test_rescaling_covariance(self):
        rng = random.Random(47)
        n = 4
        uni = SpectralParams.unipotent(n)
        c = [Rational(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        phi = TruncSeriesPhi(n, c)
        scale = Rational(3, 7)
        T, S = ts_functions(phi, uni)
        Ts, Ss = ts_functions(phi.scaled(scale), uni)
        for i in range(1, n + 1):
            assert Ts[i - 1] == scale**i * T[i - 1]
            assert Ss[i - 1] == scale**i * S[i - 1]
        # downstream ratios are scale-invariant
        for i in range(1, n):
            assert Ts[i - 1] / Ss[i - 1] == T[i - 1] / S[i - 1]


ORDERS = [(n, k) for n in range(2, 6) for k in range(1, n + 1)]


def one_vanishing_leading_minor(n, k, rng):
    """The rows of L A V with L random unit lower triangular, V random upper
    triangular with a non-zero diagonal, and A the identity with rows k and
    k + 1 exchanged (k < n) or with its last diagonal entry 0 (k = n).  The
    leading minors of L A V are those of A times products of V's diagonal,
    so the one of order k vanishes and no other."""
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    if k < n:
        A[k - 1], A[k] = A[k], A[k - 1]
    else:
        A[n - 1][n - 1] = 0
    L = [[1 if i == j else random_rational(rng) if j < i else 0 for j in range(n)] for i in range(n)]
    V = [
        [random_rational(rng, allow_zero=i != j) if j >= i else 0 for j in range(n)]
        for i in range(n)
    ]
    return [list(row) for row in (RingMatrix(L) * RingMatrix(A) * RingMatrix(V)).rows]


def reference_outcome(decompose, X):
    """decompose(X), or (index, message) of the DecompositionError it raises."""
    try:
        return decompose(X)
    except DecompositionError as err:
        return err.index, str(err)


class TestDecompositions:
    def test_ru_hand_solved_2x2(self):
        m = RingMatrix([[q(2), q(3)], [q(5), q(7)]])
        R, U, U_inv = ru_decompose(m)
        assert U_inv * R == m and U.inverse() == U_inv
        assert R[2, 2] == 0 and U[1, 1] == 1 and U[2, 2] == -1
        assert R[2, 1] == ru_ratio_formula(m, 1)

    def test_ru_rejects_zero_corner(self):
        m = RingMatrix([[q(2), q(0)], [q(5), q(7)]])
        with pytest.raises(DecompositionError) as err:
            ru_decompose(m)
        assert err.value.index == 1

    @pytest.mark.parametrize("n, k", ORDERS, ids=[f"n{n}-k{k}" for n, k in ORDERS])
    def test_ru_error_names_the_order(self, n, k):
        # X with its column n moved first has exactly one vanishing leading
        # minor, of order k; order n (det X = 0) needs no check.
        rows = one_vanishing_leading_minor(n, k, random.Random(100 * n + k))
        X = RingMatrix([row[1:] + row[:1] for row in rows])
        expected = reference_outcome(reference_ru_decompose, X)
        if k == n:
            R, U, U_inv = ru_decompose(X)
            assert (R, U) == expected and U_inv * U == identity(n)
            return
        message = "x_{1,n} = 0" if k == 1 else f"minor xi^{{1..{k - 1},n}}_{{1..{k}}} vanishes"
        assert expected == (k, message)
        with pytest.raises(DecompositionError) as err:
            ru_decompose(X)
        assert (err.value.index, str(err.value)) == expected

    def test_decompositions_match_solve_references(self):
        # Small entries with many zeros: most draws fail some condition, often
        # several at once, and the smallest failing index is reported.
        rng = random.Random(107)
        failures = set()
        for _ in range(600):
            n = rng.randint(1, 6)
            rows = [
                [rng.choice((0, 0, rng.randint(-2, 2), random_rational(rng))) for _ in range(n)]
                for _ in range(n)
            ]
            X = RingMatrix(rows)
            got = reference_outcome(ru_decompose, X)
            if not isinstance(got[0], RingMatrix):
                failures.add(got[0])
            else:
                R, U, U_inv = got
                assert U_inv * U == identity(n)
                # R = epsilon V with V's first column moved last: in B*sigma,
                # entries normalized
                assert all(not R[i, j] for i in range(2, n + 1) for j in [*range(1, i - 1), n])
                assert all(type(x) is int or x.denominator > 1 for row in R.rows for x in row)
                got = R, U
            assert got == reference_outcome(reference_ru_decompose, X)
        assert set(range(1, 6)) <= failures

    def test_decompositions_match_solve_references_at_toda_points(self):
        # 60 points for each n = 2..5 from seed 1, as the benchmark's
        # toda-roundtrip workload draws them in number.
        rng = random.Random(1)
        for n in range(2, 6):
            for _ in range(60):
                pt = random_z_point(n, rng)
                params = gamma_of_point(pt)
                bd = beta_full(alpha(pt), params)
                R, U, U_inv = ru_decompose(bd.X)
                assert (R, U) == reference_ru_decompose(bd.X) == (bd.R, bd.U)
                assert U_inv * U == identity(n)
                assert [list(row) for row in bd.L.rows] == reference_conjugate_companion(
                    U.rows, params
                )


class TestAlphaBeta:
    def test_round_trips(self):
        rng = random.Random(59)
        for n in (2, 3, 4, 5):
            for _ in range(20):
                pt = random_z_point(n, rng)
                params = gamma_of_point(pt)
                phi = alpha(pt)
                assert beta_full(phi, params).point == pt
                assert alpha(beta_full(phi, params).point) == phi.normalized()

    def test_det_r_and_subdiagonal_signs(self):
        rng = random.Random(61)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                pt = random_z_point(n, rng)
                params = gamma_of_point(pt)
                bd = beta_full(alpha(pt), params)
                expected = Rational((-1) ** (n * (n - 1) // 2))
                for i in range(1, n):
                    expected *= pt.Q[i - 1] ** (n - i)
                assert bd.R.det() == expected
                prod_q = Rational(1)
                X = phi_of_companion(alpha(pt).normalized(), params)
                for i in range(1, n):
                    prod_q *= pt.Q[i - 1]
                    assert bd.R[i + 1, i] == Rational((-1) ** (n - i - 1)) * prod_q
                    assert bd.R[i + 1, i] == ru_ratio_formula(X, i)

    def test_trailing_minors_are_ts_ratios(self):
        rng = random.Random(67)
        for n in (2, 3, 4):
            for _ in range(10):
                pt = random_z_point(n, rng)
                bd = beta_full(alpha(pt), gamma_of_point(pt))
                for i in range(1, n):
                    minor = bd.L.minor(range(i + 1, n + 1), range(i + 1, n + 1))
                    assert minor == bd.S[i - 1] / bd.T[i - 1]
        # The trailing principal minors of L = A B^{-1} are those of A, so
        # condition Z_3 holds at every point, Q_k = 0 or 1 included.
        for n in range(1, 8):
            for _ in range(20):
                pt = random_point(n, rng)
                L = lax_matrix(pt)
                tail = Rational(1)
                for i in range(n - 1, -1, -1):
                    tail *= pt.z[i]
                    assert L.minor(range(i + 1, n + 1), range(i + 1, n + 1)) == tail, (pt, i)

    def test_minor_formulas_random_and_symbolic(self):
        rng = random.Random(71)
        for n in (2, 3, 4, 5):
            for _ in range(5):
                pt = random_z_point(n, rng)
                assert minor_formulas(alpha(pt), gamma_of_point(pt))
        # symbolic unipotent case: equality as polynomials in the h's
        phi = TruncSeriesPhi.symbolic_unipotent(3)
        assert minor_formulas(phi, SpectralParams.unipotent(3))

    def test_beta_keeps_phi_of_companion_and_minor_identities(self):
        rng = random.Random(73)
        for n in (2, 3, 4, 5):
            for _ in range(5):
                pt = random_z_point(n, rng)
                phi, params = alpha(pt).normalized(), gamma_of_point(pt)
                bd = beta_full(phi, params)
                assert bd.X == reference_phi_of_companion(phi, params)
                assert (list(bd.T), list(bd.S)) == padded_ts_functions(phi, params)

    def test_suite_trial_builds_phi_of_companion_and_ts_once(self, monkeypatch):
        # One phi(C_gamma) per trial, T/S read off it, and no inverse.
        import kpeterson.toda as toda
        from kpeterson.suites import _toda_trial

        calls = {"phi_of_companion": 0, "ts_functions": 0, "inverse": 0}
        targets = (toda, "phi_of_companion"), (toda, "ts_functions"), (RingMatrix, "inverse")
        for owner, name in targets:
            def counting(*args, _name=name, _f=getattr(owner, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(owner, name, counting)
        for n in (2, 3, 4, 5):
            for key in calls:
                calls[key] = 0
            ok, lhs, _ = _toda_trial(n, random.Random(n))
            assert ok, lhs
            assert calls == {"phi_of_companion": 1, "ts_functions": 0, "inverse": 0}, n

    def test_beta_reports_failed_condition(self):
        uni = SpectralParams.unipotent(3)
        with pytest.raises(YConditionError) as err:
            beta_full(TruncSeriesPhi.from_zeta_coeffs(3, [1]), uni).point  # degree 0
        assert err.value.condition == "Y1"
        # phi = (zeta-1)^2 is nilpotent mod (zeta-1)^3: Y0 fails
        with pytest.raises(YConditionError) as err:
            beta_full(TruncSeriesPhi.from_zeta_coeffs(3, [1, -2, 1]), uni).point
        assert err.value.condition == "Y0"


class TestSpectrum:
    def test_isospectrality_symbolic(self):
        for n in (2, 3, 4):
            L = lax_matrix_symbolic(n)
            v = ("zeta",) + zq_vars(n)
            zeta = Poly.variable(v, "zeta")
            rows = [
                [
                    (zeta if i == j else Poly.zero(v)) - L.rows[i][j].with_vars(v)
                    for j in range(n)
                ]
                for i in range(n)
            ]
            char = RingMatrix(rows).det()
            expected = zeta**n
            for i in range(1, n + 1):
                expected = expected + f_invariant(n, i).with_vars(v) * zeta ** (
                    n - i
                ) * Rational((-1) ** i)
            assert char == expected

    def test_isospectrality_at_points_n5(self):
        rng = random.Random(73)
        n = 5
        for _ in range(5):
            pt = random_z_point(n, rng)
            L = lax_matrix(pt)
            vals = point_values(pt)
            # compare char poly coefficients against F_i values
            v = ("zeta",)
            zeta = Poly.variable(v, "zeta")
            rows = [
                [
                    (zeta if i == j else Poly.zero(v)) - L.rows[i][j]
                    for j in range(n)
                ]
                for i in range(n)
            ]
            char = zeta_coeffs(RingMatrix(rows).det(), n + 1)
            for i in range(1, n + 1):
                expected = Rational((-1) ** i) * f_invariant(n, i).evaluate(vals)
                assert char[n - i] == expected

    def test_unipotent_criterion(self):
        rng = random.Random(79)
        for n in (2, 3, 4):
            pt = random_unipotent_point(n, rng)
            assert gamma_of_point(pt) == SpectralParams.unipotent(n)
            # char poly is (zeta-1)^n
            L = lax_matrix(pt)
            v = ("zeta",)
            zeta = Poly.variable(v, "zeta")
            rows = [
                [(zeta if i == j else Poly.zero(v)) - L.rows[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert RingMatrix(rows).det() == (zeta - 1) ** n

    def test_phi_of_companion_matches_matrix_powers(self):
        rng = random.Random(89)
        for n in range(1, 8):
            for _ in range(10):
                phi = TruncSeriesPhi(
                    n, [q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
                )
                gamma = tuple(
                    q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n - 1)
                )
                params = SpectralParams(gamma + (q(1),))
                assert phi_of_companion(phi, params) == reference_phi_of_companion(
                    phi, params
                )

    def test_phi_of_companion_symbolic_matches_matrix_powers(self):
        rng = random.Random(113)
        for n in range(1, 6):
            phi = TruncSeriesPhi.symbolic_unipotent(n)
            for params in (SpectralParams.unipotent(n), random_params(n, rng)):
                X = phi_of_companion(phi, params)
                assert X == reference_phi_of_companion(phi, params)
                assert all(isinstance(x, SymFunc) for row in X.rows for x in row)

    def test_is_phi_of_companion_holds(self):
        rng = random.Random(211)
        for n in range(1, 8):
            for _ in range(10):
                phi = TruncSeriesPhi(n, [random_rational(rng) for _ in range(n)])
                params = random_params(n, rng)
                assert is_phi_of_companion(phi_of_companion(phi, params), phi, params)
        for n in range(1, 5):
            phi = TruncSeriesPhi.symbolic_unipotent(n)
            for params in (SpectralParams.unipotent(n), random_params(n, rng)):
                assert is_phi_of_companion(phi_of_companion(phi, params), phi, params)

    def test_is_phi_of_companion_rejects_other_matrices(self):
        rng = random.Random(223)
        for n in range(2, 7):
            for _ in range(10):
                phi = TruncSeriesPhi(n, [random_rational(rng) for _ in range(n)])
                params = random_params(n, rng)
                X = phi_of_companion(phi, params)
                # any one entry off by one, the first row included
                i, j = rng.randrange(n), rng.randrange(n)
                rows = [list(row) for row in X.rows]
                rows[i][j] += 1
                assert not is_phi_of_companion(RingMatrix(rows), phi, params), (i, j)
                # psi(C_gamma) commutes with C_gamma but its first row is psi's
                other = list(phi.to_zeta_coeffs())
                other[rng.randrange(n)] += 1
                psi = TruncSeriesPhi.from_zeta_coeffs(n, other)
                assert not is_phi_of_companion(phi_of_companion(psi, params), phi, params)
        phi = TruncSeriesPhi.symbolic_unipotent(3)
        params = SpectralParams.unipotent(3)
        rows = [list(row) for row in phi_of_companion(phi, params).rows]
        rows[2][1] = rows[2][1] + h(1)
        assert not is_phi_of_companion(RingMatrix(rows), phi, params)

    def test_companion_matrix_shape(self):
        params = SpectralParams(tuple(map(Rational, (5, 7, 1))))
        C = companion_matrix(params)
        assert C[1, 2] == 1 and C[2, 3] == 1
        assert (C[3, 3], C[3, 2], C[3, 1]) == (5, -7, 1)

    def test_partial_invariant_entries_of_u(self):
        from kpeterson.quantum import fq_poly_z

        rng = random.Random(83)
        for n in (2, 3, 4, 5):
            for point_maker in (random_z_point, random_unipotent_point):
                pt = point_maker(n, rng)
                bd = beta_full(alpha(pt), gamma_of_point(pt))
                vals = point_values(pt)
                for i in range(2, n + 1):
                    for j in range(1, i):
                        expected = Rational((-1) ** (j - 1)) * fq_poly_z(
                            n, i - 1, i - j
                        ).evaluate(vals)
                        assert bd.U[i, j] == expected


def test_beta_full_pinned_digest():
    # beta_full's point, L, R, U, T, S and X at 40 seeded points for each
    # n = 2..6, hashed as text (a value may be an int or an integral
    # Fraction); the digest was taken from the Fraction matrix routines.
    digest = hashlib.sha256()
    for n in range(2, 7):
        rng = random.Random(4000 + n)
        for _ in range(40):
            pt = random_z_point(n, rng)
            bd = beta_full(alpha(pt), gamma_of_point(pt))
            values = [*bd.point.z, *bd.point.Q, *bd.T, *bd.S]
            for matrix in (bd.L, bd.R, bd.U, bd.X):
                values.extend(x for row in matrix.rows for x in row)
            digest.update((" ".join(map(rational_to_text, values)) + "\n").encode())
    assert digest.hexdigest() == (
        "26c1a9a3abe947322c9ea1b56824467e0d9629df4c565b5b0d94d8801b5530ed"
    )
