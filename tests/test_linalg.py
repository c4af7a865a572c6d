import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calclab import linalg
from calclab.combinat import signature
from calclab.linalg import (
    Polynomial,
    all_roots,
    cardano,
    circulant,
    circulant_diag,
    classify_definiteness,
    determinant,
    discriminant,
    equilateral_test,
    fourier_matrix,
    inverse,
    matrix_exp,
    resultant,
    roots_of_unity,
    solve_quadratic,
    symmetric_eigen,
)

import oracles
from oracles import det_permutation_sum

RNG = np.random.default_rng(20240817)


def random_poly(degree, rng=RNG):
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs[-1] += 1.0  # keep the leading coefficient well away from zero
    return Polynomial(list(coeffs))


def test_polynomial_basics():
    p = Polynomial([1, 0, 2])  # 1 + 2x^2
    assert p.degree == 2
    assert p(3) == 19
    assert p.deriv().coefficients == [0, 4]
    q = Polynomial([Fraction(1, 2), Fraction(1, 3)])
    assert (q * q).coefficients == [Fraction(1, 4), Fraction(1, 3), Fraction(1, 9)]
    assert Polynomial([0, 0, 0]).is_zero()


def test_the_empty_polynomial_is_the_zero_polynomial():
    empty = Polynomial([])
    assert empty == Polynomial([0]) == Polynomial([0, 0]) and empty.coefficients == [0]
    assert repr(empty) == "Polynomial([0])" and empty.is_zero() and empty(7) == 0
    assert empty != Polynomial([1]) and empty != [0]


def test_solve_quadratic():
    r1, r2 = solve_quadratic(1, 0, 1)
    assert sorted([r1.imag, r2.imag]) == [-1.0, 1.0]
    assert abs(r1.real) < 1e-15 and abs(r2.real) < 1e-15
    r1, r2 = solve_quadratic(1, -2, 1)
    assert r1 == pytest.approx(1.0) and r2 == pytest.approx(1.0)
    r1, r2 = solve_quadratic(2, -3, 1)
    assert sorted([r1.real, r2.real]) == pytest.approx([0.5, 1.0])
    with pytest.raises(ValueError):
        solve_quadratic(0, 1, 1)


def test_solve_quadratic_residuals():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        scale = max(abs(a), abs(b), abs(c))
        for r in solve_quadratic(a, b, c):
            assert abs(a * r * r + b * r + c) <= 1e-10 * scale * max(1.0, abs(r)) ** 2


def test_cardano():
    roots = cardano(0.0, 0.0)
    assert roots[0] == 0.0 and roots[1] == 0 and roots[2] == 0
    # discriminant -108(p^3+q^2) = 0: (x-1)^2 (x+2)
    r0, r1, r2 = cardano(-1.0, 1.0)
    assert r0 == pytest.approx(-2.0)
    assert r1 == pytest.approx(1.0, abs=1e-9)
    assert r2 == pytest.approx(1.0, abs=1e-9)
    # one real root case
    r0, r1, r2 = cardano(1.0, 1.0)
    assert r0 == pytest.approx(-0.5960716379833, abs=1e-10)
    for r in (r0, r1, r2):
        assert abs(r**3 + 3 * 1.0 * r + 2 * 1.0) < 1e-9


def test_cardano_three_real_roots():
    # p=-1, q=0: x^3 - 3x = 0 has roots 0, +/- sqrt(3)
    roots = cardano(-1.0, 0.0)
    values = sorted(complex(r).real for r in roots)
    assert values == pytest.approx([-math.sqrt(3), 0.0, math.sqrt(3)], abs=1e-12)
    for r in roots:
        assert abs(complex(r) ** 3 - 3 * complex(r)) < 1e-9


def _sylvester_det(P, Q):
    """det of the Sylvester matrix of P and Q in Fractions, by the Leibniz sum."""
    m, n = P.degree, Q.degree
    p, q = P.coefficients[::-1], Q.coefficients[::-1]
    rows = [[0] * i + p + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + q + [0] * (m - 1 - i) for i in range(m)]
    total = Fraction(0)
    for perm in itertools.permutations(range(m + n)):
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_resultant_worked_example():
    a, b, c, d, e = 2, 3, 5, 7, 11
    P = Polynomial([c, b, a])
    Q = Polynomial([e, d])
    assert resultant(P, Q) == c * d * d - b * d * e + a * e * e
    assert _sylvester_det(P, Q) == resultant(P, Q)


@pytest.mark.parametrize("c", [1, -1, 3, -2, 7])
@pytest.mark.parametrize("coeffs", [[5, 1], [2, -3, 1], [-1, 0, 4, 2], [1, 1, 1, 1, 3]])
def test_resultant_with_a_constant_polynomial(c, coeffs):
    # Res(c, Q) = Res(Q, c) = c^deg(Q): the Sylvester matrix is c times the identity
    C, Q = Polynomial([c]), Polynomial(coeffs)
    for got in (resultant(C, Q), resultant(Q, C)):
        assert type(got) is int and got == c**Q.degree
        assert got == _sylvester_det(C, Q) == _sylvester_det(Q, C)


def test_resultant_shared_root():
    P = Polynomial([-1, 0, 1])  # (x-1)(x+1)
    Q = Polynomial([-2, 1, 1])  # (x-1)(x+2)
    assert resultant(P, Q) == 0
    # Res(P, P') for x^3 - 3x + 2 = (x-1)^2 (x+2)
    P = Polynomial([2, -3, 0, 1])
    assert resultant(P, P.deriv()) == 0


def test_resultant_root_product_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dp = int(rng.integers(1, 6))
        dq = int(rng.integers(1, 6))
        P, Q = random_poly(dp, rng), random_poly(dq, rng)
        pa = np.roots(list(reversed([complex(c) for c in P.coefficients])))
        qb = np.roots(list(reversed([complex(c) for c in Q.coefficients])))
        prod = complex(P.coefficients[-1]) ** dq * complex(Q.coefficients[-1]) ** dp
        for x in pa:
            for y in qb:
                prod *= x - y
        got = resultant(P, Q)
        assert abs(got - prod) <= 1e-8 * max(1.0, abs(prod))


def test_resultant_vanishes_iff_shared_root():
    rng = np.random.default_rng(53)
    for _ in range(12):
        # construct a shared-root pair and a generic pair of degree <= 4
        roots_p = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        roots_q = rng.standard_normal(2) + 1j * rng.standard_normal(2)

        def from_roots(roots, shared=None):
            poly = Polynomial([1.0])
            for r in list(roots) + ([shared] if shared is not None else []):
                poly = poly * Polynomial([-r, 1.0])
            return poly

        shared = complex(rng.standard_normal() + 1j * rng.standard_normal())
        P = from_roots(roots_p, shared)
        Q = from_roots(roots_q, shared)
        assert abs(resultant(P, Q)) < 1e-7
        # min root gap bounded away from zero => nonzero resultant
        P2, Q2 = from_roots(roots_p), from_roots(roots_q + 10.0)
        assert abs(resultant(P2, Q2)) > 1e-6


def test_determinant_paths_agree_complex():
    rng = np.random.default_rng(59)
    for n in (2, 4, 6):
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dp = det_permutation_sum(A)
        de = np.linalg.det(A)
        assert abs(dp - de) <= 1e-9 * max(1.0, abs(dp))


def test_discriminant():
    assert discriminant(Polynomial([1, 0, 1])) == -4  # x^2 + 1
    a, b, c = 2, -3, 1
    assert discriminant(Polynomial([c, b, a])) == b * b - 4 * a * c
    with pytest.raises(ValueError):
        discriminant(Polynomial([1, 2]))


def test_discriminant_cubic_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a, b, c, d = rng.standard_normal(4)
        a += 2.0
        P = Polynomial([d, c, b, a])
        closed = (
            b * b * c * c
            - 4 * a * c**3
            - 4 * b**3 * d
            - 27 * a * a * d * d
            + 18 * a * b * c * d
        )
        got = complex(discriminant(P))
        assert got.real == pytest.approx(closed, rel=1e-9, abs=1e-9)
        assert abs(got.imag) < 1e-9


def test_all_roots_simple():
    roots = sorted(r.real for r in all_roots(Polynomial([-1, 0, 1])))
    assert roots == pytest.approx([-1.0, 1.0])
    roots = sorted(r.real for r in all_roots(Polynomial([-6, 11, -6, 1])))
    assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)


def test_all_roots_count_and_residual():
    rng = np.random.default_rng(17)
    for _ in range(15):
        degree = int(rng.integers(1, 8))
        P = random_poly(degree, rng)
        roots = all_roots(P, tol=1e-12)
        assert len(roots) == degree
        for r in roots:
            scale = sum(abs(complex(c)) * max(1.0, abs(r)) ** k for k, c in enumerate(P.coefficients))
            assert abs(P(r)) <= 1e-9 * scale


def test_all_roots_multiplicity_clustering():
    roots = all_roots(Polynomial([2, -3, 0, 1]))  # (x-1)^2 (x+2)
    ones = [r for r in roots if abs(r - 1) < 1e-3]
    assert len(ones) == 2
    assert ones[0] == ones[1]  # merged to the cluster mean


@pytest.mark.parametrize(
    "coefficients",
    [[1, 1e160, 1], [1e308, 1e308, 1], [1] * 29 + [1e-300]],
    ids=["roots-1e160-apart", "coefficients-1e308", "degree-29-lead-1e-300"],
)
def test_all_roots_refuses_an_iteration_past_the_float_range(coefficients):
    # P overflows at the start radius, every step was NaN, and max(shift, nan) stopped the loop on NaN roots
    with pytest.raises(ValueError, match="float range"):
        all_roots(Polynomial(coefficients))


def test_roots_of_unity():
    w4 = roots_of_unity(4)
    assert np.allclose(w4, [1, 1j, -1, -1j])
    assert roots_of_unity(1) == [1]
    with pytest.raises(ValueError):
        roots_of_unity(0)


def test_roots_of_unity_is_the_circle_rule_of_poly():
    from calclab import poly

    assert linalg.roots_of_unity is poly.roots_of_unity


@settings(max_examples=60)
@given(st.one_of(st.integers(1, 130), st.sampled_from([360, 1000, 1024, 4096]), st.integers(131, 5000)))
def test_roots_of_unity_are_exactly_symmetric_and_within_2_3e_16(N):
    mpmath = pytest.importorskip("mpmath")
    w = roots_of_unity(N)
    assert len(w) == N and w[0] == 1
    assert all(w[N - k] == w[k].conjugate() for k in range(1, N))
    if N % 2 == 0:
        assert all(w[k + N // 2] == -w[k] for k in range(N // 2))
    if N % 4 == 0:
        assert (w[N // 4], w[N // 2], w[3 * N // 4]) == (1j, -1, -1j)
    with mpmath.workdps(40):
        for k in range(0, N, max(1, N // 200)):
            assert abs(mpmath.mpc(w[k]) - mpmath.expjpi(mpmath.mpf(2 * k) / N)) <= 2.3e-16, (N, k)


def test_fourier_matrix_entries_are_within_4e_16_at_4096():
    # exp(2 pi i ij/N) rounded its growing argument: 2.3e-12 off at N = 4096
    mpmath = pytest.importorskip("mpmath")
    N = 4096
    F = fourier_matrix(N)
    rng = np.random.default_rng(47)
    with mpmath.workdps(40):
        for i, j in rng.integers(0, N, (300, 2)).tolist():
            assert abs(mpmath.mpc(complex(F[i, j])) - mpmath.expjpi(mpmath.mpf(2 * i * j) / N)) <= 4e-16, (i, j)


def test_roots_of_unity_power_sums():
    for N in range(1, 13):
        ws = roots_of_unity(N)
        for s in range(25):
            total = sum(w**s for w in ws)
            expected = N if s % N == 0 else 0
            assert abs(total - expected) <= 1e-12 * max(1, N)


def test_equilateral():
    w = cmath.exp(2j * math.pi / 3)
    assert equilateral_test(1, w, w * w)
    assert not equilateral_test(0, 1, 2)


def test_napoleon_configuration():
    rng = np.random.default_rng(23)
    w = cmath.exp(2j * math.pi / 3)

    def outward_equilateral_apex(a, b):
        # apex completing counterclockwise triangle (a, b, apex)
        return -(a + w * b) / (w * w)

    for _ in range(10):
        A, B, C = (complex(*rng.standard_normal(2)) for _ in range(3))
        # make ABC counterclockwise
        if ((B - A).conjugate() * (C - A)).imag < 0:
            B, C = C, B
        D = outward_equilateral_apex(C, B)
        E = outward_equilateral_apex(A, C)
        F = outward_equilateral_apex(B, A)
        P = (B + C + D) / 3
        Q = (A + C + E) / 3
        R = (A + B + F) / 3
        assert equilateral_test(P, Q, R, tol=1e-9)


def test_determinant_small():
    assert det_permutation_sum(np.eye(4)) == pytest.approx(1.0)
    a, b, c, d = 2.0, 3.0, 5.0, 7.0
    assert det_permutation_sum(np.array([[a, b], [c, d]])) == pytest.approx(a * d - b * c)
    sarrus = np.array([[1.0, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert determinant(sarrus) == pytest.approx(-3.0)


def test_determinant_paths_agree():
    rng = np.random.default_rng(29)
    for n in range(2, 7):
        A = rng.standard_normal((n, n))
        dp = det_permutation_sum(A)
        de = np.linalg.det(A)
        assert abs(dp - de) <= 1e-9 * max(1.0, abs(dp))


def test_determinant_product_and_transpose():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 4))
        dAB = determinant(A @ B)
        dA, dB = determinant(A), determinant(B)
        assert abs(dAB - dA * dB) <= 1e-8 * max(1.0, abs(dAB))
        assert determinant(A.T) == pytest.approx(determinant(A))


def test_inverse():
    assert np.allclose(inverse(np.eye(3)), np.eye(3))
    A = np.array([[2.0, 3.0], [1.0, 4.0]])
    expected = np.array([[4.0, -3.0], [-1.0, 2.0]]) / 5.0
    assert np.allclose(inverse(A), expected)
    rng = np.random.default_rng(37)
    for n in (3, 5, 8):
        M = rng.standard_normal((n, n)) + n * np.eye(n)
        assert np.abs(M @ inverse(M) - np.eye(n)).max() < 1e-8
    with pytest.raises(ValueError):
        inverse(np.ones((2, 2)))


def test_inverse_of_1x1():
    for a in (4.0, -3.0, 1e-3, 1 + 2j, 0.1 - 0.7j):
        got = inverse(np.array([[a]]))
        assert got.shape == (1, 1) and got.dtype == np.array([[a]]).dtype
        assert abs(got[0, 0] * a - 1.0) <= 2e-16


def test_determinant_of_integers_is_exact_where_int64_overflows():
    A = np.array([[10**4 * (i == j) + i + j for j in range(6)] for i in range(6)], dtype=np.int64)
    got = determinant(A)
    assert type(got) is int and got == 1002998950000000000000000
    assert type(determinant(np.eye(7, dtype=int) + np.arange(49).reshape(7, 7))) is int
    # numpy integers held in an object array are rational entries too
    held = np.array([[np.int64(v) for v in row] for row in A.tolist()], dtype=object)
    assert type(held[0, 0]) is np.int64 and determinant(held) == 1002998950000000000000000


@pytest.mark.parametrize(
    "A",
    [
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # the first column has no pivot
        [[1, 2, 3], [2, 4, 5], [3, 6, 7]],  # the second has none once the first is cleared
        [[Fraction(1, 3), 1, 0], [Fraction(2, 3), 2, 0], [0, 0, 1]],  # likewise, with denominators
    ],
)
def test_determinant_of_a_matrix_without_a_pivot_column_is_exactly_0(A):
    got = determinant(np.array(A, dtype=object))
    assert type(got) is int and got == 0
    assert det_permutation_sum(np.array(A, dtype=float)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [9, 40])
def test_determinant_of_a_permuted_integer_lu_product(n):
    # A = P L U with unit lower L and upper U over the integers: det A = sign(P) prod diag(U),
    # and P leaves zero pivots that the elimination must swap past (at n = 40 at least)
    rng = np.random.default_rng(n)
    L = np.tril(rng.integers(-9, 10, (n, n)), -1).astype(object) + np.eye(n, dtype=int).astype(object)
    diag = [int(v) for v in rng.integers(1, 6, n) * rng.choice([-1, 1], n)]
    U = np.triu(rng.integers(-9, 10, (n, n)), 1).astype(object) + np.diag(diag).astype(object)
    perm = rng.permutation(n)
    A = (L @ U)[perm]
    want = signature(tuple(int(i) + 1 for i in perm)) * math.prod(diag)
    assert determinant(A) == want
    assert determinant([[Fraction(v, 3) for v in row] for row in A.tolist()]) == Fraction(want, 3**n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.integers(-(10**6), 10**6), min_size=n * n, max_size=n * n)))
def test_determinant_of_int64_matches_the_exact_permutation_sum(entries):
    n = math.isqrt(len(entries))
    A = np.array(entries, dtype=np.int64).reshape(n, n)
    got = determinant(A)
    assert type(got) is int and got == det_permutation_sum(A.astype(object))


def test_determinant_of_a_fraction_hilbert_matrix():
    H = [[Fraction(1, i + j + 1) for j in range(7)] for i in range(7)]
    assert determinant(H) == Fraction(1, 2067909047925770649600000)
    assert determinant(np.array(H, dtype=object)) == Fraction(1, 2067909047925770649600000)


def test_mixed_fraction_and_float_entries_take_lu():
    assert resultant(Polynomial([Fraction(1, 2), 0.5, 1.0]), Polynomial([1, 2])) == 2 + 0j
    A = np.array([[Fraction(1, 2), 0.5], [1, 2.0]], dtype=object)
    assert determinant(A) == 0.5


@pytest.mark.parametrize("d, n", [(0.1, 400), (10.0, 400), (1e-3, 120)])
def test_inverse_where_the_determinant_leaves_the_float_range(d, n):
    # d^n underflows or overflows; the singularity test is taken on logarithms
    assert np.array_equal(inverse(d * np.eye(n)), np.diag(np.full(n, 1.0 / d)))


def test_determinant_and_inverse_never_sum_permutations(monkeypatch):
    def refuse(*args):
        raise AssertionError("the n! permutations were enumerated")

    monkeypatch.setattr(itertools, "permutations", refuse)
    M = np.random.default_rng(43).standard_normal((6, 6)) + 6.0 * np.eye(6)
    assert np.abs(M @ inverse(M) - np.eye(6)).max() < 1e-12
    assert determinant(M) == pytest.approx(np.linalg.det(M), rel=1e-12)
    assert determinant(np.eye(6, dtype=int)) == 1


def test_symmetric_eigen():
    U, d = symmetric_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(d, [3.0, 2.0, 1.0])
    U, d = symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(d, [1.0, -1.0])
    rng = np.random.default_rng(41)
    A = rng.standard_normal((5, 5))
    A = 0.5 * (A + A.T)
    U, d = symmetric_eigen(A, tol=1e-12)
    norm = np.linalg.norm(A)
    assert np.abs(U @ np.diag(d) @ U.T - A).max() <= 1e-10 * norm
    assert np.abs(U.T @ U - np.eye(5)).max() <= 1e-10
    assert list(d) == sorted(d, reverse=True)
    # trace and determinant match eigenvalue sum/product
    assert np.sum(d) == pytest.approx(np.trace(A), rel=1e-8)
    assert np.prod(d) == pytest.approx(np.linalg.det(A), rel=1e-8)
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _check_eigen(A, U, d):
    """The identities every symmetric_eigen result must satisfy."""
    n = A.shape[0]
    norm = float(np.linalg.norm(A)) or 1.0
    assert np.abs(U @ np.diag(d) @ U.T - A).max() <= 1e-10 * norm
    assert np.abs(U.T @ U - np.eye(n)).max() <= 1e-10
    # the stopping rule (off-diagonal norm <= 1e-12 ||A||), with room for rounding
    assert np.linalg.norm(U.T @ A @ U - np.diag(d)) <= 1e-11 * norm
    assert list(d) == sorted(d, reverse=True)
    assert np.abs(d - np.linalg.eigvalsh(A)[::-1]).max() <= 1e-12 * norm


@pytest.mark.parametrize("seed", [6, 10])
def test_symmetric_eigen_stops_at_tolerance(seed):
    # an off-diagonal norm taken as sqrt(||W||^2 - ||diag W||^2) cancels below
    # sqrt(eps)*||A||: seed 6 then stopped early, seed 10 never stopped
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((40, 40))
    A = 0.5 * (A + A.T)
    U, d = symmetric_eigen(A)
    _check_eigen(A, U, d)


@pytest.mark.parametrize("n", [19, 32, 33])
def test_round_robin_schedule_is_cached_and_read_only(n):
    steps = linalg._round_robin(n)
    assert linalg._round_robin(n) is steps and len(steps) == n - 1 + n % 2
    for step in steps:
        for a in step:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]
    # each sweep still meets every pair p < q exactly once
    pairs = [(p, q) for PQ, QP, PP, QQ, signs in steps for p, q in zip(PP[: len(PP) // 2], QQ[: len(QQ) // 2])]
    assert sorted(pairs) == list(itertools.combinations(range(n), 2))


@pytest.mark.filterwarnings("error")
def test_symmetric_eigen_tiny_pivot_no_overflow():
    A = np.array([[1.0, 1e-160, 0.5], [1e-160, 2.0, 0.0], [0.5, 0.0, 3.0]])
    U, d = symmetric_eigen(A)
    _check_eigen(A, U, d)


@pytest.mark.parametrize("scale", [1e-300, 1e300])
def test_symmetric_eigen_extreme_scale(scale):
    # squared entries of this size underflow or overflow
    rng = np.random.default_rng(5)
    B = rng.standard_normal((6, 6))
    B = B + B.T
    U, d = symmetric_eigen(scale * B)
    _check_eigen(B, U, d / scale)


@pytest.mark.parametrize("n", [3, 30])
def test_symmetric_eigen_repeated_eigenvalues(n):
    # rank one: n - 1 zero eigenvalues, so rotations meet a_qq = a_pp, often
    # with a tiny a_pq that rounding has left slightly asymmetric
    v = np.random.default_rng(n).standard_normal(n)
    for A in (np.ones((n, n)), np.outer(v, v)):
        U, d = symmetric_eigen(A)
        _check_eigen(A, U, d)


def test_symmetric_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_eigen(np.ones((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_symmetric_eigen_of_the_empty_matrix_is_empty():
    U, d = symmetric_eigen(np.zeros((0, 0)))
    assert U.shape == (0, 0) and d.shape == (0,)
    assert classify_definiteness(np.zeros((0, 0))) == "zero"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "A",
    [np.array([[1.7e308, 1e308], [1e308, 1.7e308]]), np.full((20, 20), 1e308)],
    ids=["scalar-sweeps", "batched-sweeps"],
)
def test_symmetric_eigen_raises_on_an_eigenvalue_past_the_float_range(A):
    with pytest.raises(ArithmeticError, match="an eigenvalue overflows the float range"):
        symmetric_eigen(A)
    # divided by their size, the same matrices have finite eigenvalues
    _, d = symmetric_eigen(A / len(A))
    assert np.isfinite(d).all()


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "diagonal", "zero", "identity", "rank_one"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        A = rng.standard_normal((n, n))
        return 0.5 * (A + A.T)
    if kind == "diagonal":
        # a_pq = 0 everywhere: no rotation at all
        return np.diag(rng.integers(-2, 3, n).astype(float))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "identity":
        return np.eye(n)
    v = rng.standard_normal(n)
    return np.outer(v, v)


@settings(max_examples=25, deadline=None)
@given(_symmetric_matrices())
def test_symmetric_eigen_properties(A):
    U, d = symmetric_eigen(A)
    _check_eigen(A, U, d)


@st.composite
def _eigen_inputs(draw):
    """Matrices of order 0-24 (both sweep routes) scaled by 2^k, |k| <= 1000,
    some of them broken: not square, not finite, not symmetric, or with an
    eigenvalue past the float range."""
    n = draw(st.one_of(st.integers(0, 18), st.integers(19, 24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "diagonal", "signed_zeros", "rank_one"]))
    if kind == "random":
        A = rng.standard_normal((n, n))
        A = 0.5 * (A + A.T)
    elif kind == "diagonal":  # repeated eigenvalues, no rotation
        A = np.diag(rng.integers(-2, 3, n).astype(float))
    elif kind == "signed_zeros":
        A = np.diag(rng.choice([0.0, -0.0, 1.0], n))
    else:
        v = rng.standard_normal(n)
        A = np.outer(v, v)
    A = np.ldexp(A, draw(st.integers(-1000, 1000)))
    defect = draw(st.sampled_from([None] * 5 + ["shape", "flat", "nan", "inf", "asymmetric", "overflow"]))
    if defect == "shape":
        return np.ones((n, n + 1))
    if defect == "flat":
        return A.ravel()
    if n and defect in ("nan", "inf", "asymmetric"):
        i, j = rng.permutation(n)[:2] if n > 1 else (0, 0)
        A[i, j] = {"nan": math.nan, "inf": -math.inf}.get(defect, A[i, j] + 1.0 + abs(A).max())
    if n > 1 and defect == "overflow":
        A = np.full((n, n), 1e308)
    return A


def _outcome(route, *args):
    try:
        return [[float(v).hex() for v in np.ravel(x)] for x in route(*args)]
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(_eigen_inputs(), st.sampled_from([1e-12, 1e-10]))
def test_symmetric_eigen_is_the_numpy_prologue_bit_for_bit(A, tol):
    expected = _outcome(oracles.symmetric_eigen, A, tol)
    assert _outcome(symmetric_eigen, A, tol) == expected
    values = _outcome(lambda: linalg._jacobi(linalg._square_rows(A), tol, vectors=False)[:1])
    assert values == _outcome(lambda: oracles.symmetric_eigen(A, tol, vectors=False)[1:])


@pytest.mark.parametrize("n", range(2, 49))
def test_symmetric_eigen_is_the_three_rotation_step_bit_for_bit(n):
    # [A | V] rotated by one row rotation per step gives the bits of the oracle's separate
    # row rotations of A and V
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    for M in (0.5 * (A + A.T), np.ldexp(np.outer(A[0], A[0]), -600), np.diag(rng.integers(-2, 3, n).astype(float)) + 1e-9 * (A + A.T)):
        assert _outcome(symmetric_eigen, M, 1e-12) == _outcome(oracles.symmetric_eigen, M, 1e-12)


def test_classify_definiteness():
    assert classify_definiteness(np.eye(3)) == "pos_def"
    assert classify_definiteness(np.diag([1.0, -1.0])) == "indefinite"
    assert classify_definiteness(np.diag([1.0, 0.0])) == "pos_semi"
    assert classify_definiteness(-np.eye(2)) == "neg_def"
    assert classify_definiteness(np.diag([-1.0, 0.0])) == "neg_semi"
    assert classify_definiteness(np.zeros((3, 3))) == "zero"


def test_fourier_and_circulant():
    eig, rec = circulant_diag([1.0, 0.0, 0.0])
    assert np.allclose(eig, np.ones(3))
    assert np.abs(rec - np.eye(3)).max() < 1e-9
    eig, rec = circulant_diag(np.ones(5))
    assert eig[0] == pytest.approx(5.0)
    assert np.abs(eig[1:]).max() < 1e-12
    assert np.abs(rec - np.ones((5, 5))).max() < 1e-9
    # N=2 closed form
    eig, _ = circulant_diag([2.0, 3.0])
    assert sorted(eig.real) == pytest.approx([-1.0, 5.0])
    rng = np.random.default_rng(43)
    xi = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    eig, rec = circulant_diag(xi)
    assert np.abs(rec - circulant(xi)).max() < 1e-9


def test_matrix_exp():
    assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3))
    got = matrix_exp(np.diag([1.0, 2.0]), 0.5)
    assert np.allclose(got, np.diag([math.exp(0.5), math.exp(1.0)]), rtol=1e-12)
    # companion of f'' = f applied to (1, 0) gives (cosh t, sinh t)
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    for t in (0.3, 1.0, 2.5):
        v = matrix_exp(A, t) @ np.array([1.0, 0.0])
        assert v[0] == pytest.approx(math.cosh(t), rel=1e-10)
        assert v[1] == pytest.approx(math.sinh(t), rel=1e-10)
    # relative accuracy for a larger-norm input
    rng = np.random.default_rng(47)
    B = rng.standard_normal((4, 4))
    B *= 10.0 / np.linalg.norm(B, ord=np.inf)
    got = matrix_exp(B)
    # squaring-and-scaling self-consistency: exp(B) = exp(B/2)^2
    half = matrix_exp(B, 0.5)
    assert np.abs(got - half @ half).max() <= 1e-8 * np.abs(got).max()


_small_entry = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e308, -1e308, 1.7976931348623157e308, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
)


@st.composite
def _small_rows(draw):
    """Lists of 0-3 rows: square and symmetric, square, or ragged; signed zeros, NaN, +/-inf and
    entries near +/-1e308 among them."""
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["symmetric", "symmetric", "nearly symmetric", "square", "ragged"]))
    if kind == "ragged":
        return [draw(st.lists(_small_entry, max_size=4)) for _ in range(n)]
    rows = [[draw(_small_entry) for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(p):
            if kind == "symmetric":
                rows[p][q] = rows[q][p]
            elif kind == "nearly symmetric":
                rows[p][q] = math.nextafter(rows[q][p], math.inf)
    return rows


def _list_eigenvalues(rows, tol):
    """The eigenvalues alone by the cyclic sweeps on lists, kept here as the reference for
    linalg's written-out n = 3 solve: the same checks, scaling, stop test and sort."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("matrix has non-finite entries")
    exponent = math.frexp(max((abs(v) for row in rows for v in row), default=0.0))[1]
    a = [[math.ldexp(v, -exponent) for v in row] for row in rows]
    norm = math.hypot(*(v for row in a for v in row)) or 1.0
    if any(abs(a[p][q] - a[q][p]) > tol * norm for p in range(n) for q in range(p)):
        raise ValueError("matrix is not symmetric to the working tolerance")
    a = [[0.5 * (a[p][q] + a[q][p]) for q in range(n)] for p in range(n)]
    bound = 0.5 * (tol * norm) ** 2
    for _ in range(linalg._MAX_SWEEPS):
        if math.fsum(a[p][q] * a[p][q] for p in range(n) for q in range(p + 1, n)) <= bound:
            break
        for p, q in itertools.combinations(range(n), 2):
            if a[p][q] == 0.0:
                continue
            app, aqq, apq = a[p][p], a[q][q], a[p][q]
            e = aqq - app
            t = 2.0 * apq / (e + math.copysign(math.hypot(e, 2.0 * apq), e))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            for k in set(range(n)) - {p, q}:
                akp, akq = a[k][p], a[k][q]
                a[k][p] = a[p][k] = c * akp - s * akq
                a[k][q] = a[q][k] = s * akp + c * akq
            a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    d = sorted((a[i][i] for i in range(n)), reverse=True)  # stable: equal values in index order
    try:
        return [math.ldexp(v, exponent) for v in d]
    except OverflowError:
        raise ArithmeticError("an eigenvalue overflows the float range") from None


def _eigenvalues_outcome(route, rows, tol):
    try:
        d = route([list(row) for row in rows], tol)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [v.hex() for v in d]


@settings(max_examples=400, deadline=None)
@given(_small_rows(), st.sampled_from([1e-12, 1e-10]))
def test_small_eigenvalues_are_the_list_reference_bit_for_bit(rows, tol):
    expected = _eigenvalues_outcome(_list_eigenvalues, rows, tol)
    assert _eigenvalues_outcome(lambda r, t: linalg._jacobi(r, t, False)[0], rows, tol) == expected


@pytest.mark.parametrize("n", [3, 8, 20], ids=["generated", "list", "batched"])
@pytest.mark.parametrize("vectors", [False, True])
def test_every_sweep_route_raises_past_the_sweep_cap(monkeypatch, n, vectors):
    A = np.random.default_rng(n).standard_normal((n, n))
    rows = (0.5 * (A + A.T)).tolist()
    linalg._jacobi(rows, 1e-12, vectors)  # converges under the real cap; no one sweep meets the stop test
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    with pytest.raises(ArithmeticError, match="^Jacobi sweeps did not converge$"):
        linalg._jacobi(rows, 1e-12, vectors)
