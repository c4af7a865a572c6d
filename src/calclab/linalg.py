"""Resultants and dense matrix algebra.

``Polynomial``, ``solve_quadratic``, ``cardano`` and ``all_roots`` live in
the numpy-free ``calclab.poly`` and are re-exported here.  Matrices are
numpy arrays.  The permutation-sum determinant and the Jacobi eigensolver
are implemented directly; the elimination paths delegate to
numpy's LU-based routines.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .combinat import signature
from .poly import Polynomial, all_roots, cardano, solve_quadratic

__all__ = [
    "Polynomial",
    "solve_quadratic",
    "cardano",
    "resultant",
    "discriminant",
    "all_roots",
    "roots_of_unity",
    "equilateral_test",
    "determinant",
    "det_permutation_sum",
    "inverse",
    "symmetric_eigen",
    "classify_definiteness",
    "fourier_matrix",
    "circulant",
    "circulant_diag",
    "matrix_exp",
]


def _sylvester(P: Polynomial, Q: Polynomial):
    k, l = P.degree, Q.degree
    n = k + l
    p = list(reversed(P.coefficients))
    q = list(reversed(Q.coefficients))
    rows = []
    for i in range(l):
        rows.append([0] * i + p + [0] * (l - 1 - i))
    for i in range(k):
        rows.append([0] * i + q + [0] * (k - 1 - i))
    return rows, n


def _is_exact(values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _det_exact(rows) -> Fraction:
    """Fraction-based Gaussian elimination, exact for int/Fraction entries."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def resultant(P: Polynomial, Q: Polynomial) -> complex:
    """Resultant via the Sylvester determinant.

    Vanishes exactly when P and Q share a root.  Integer or Fraction
    coefficients are eliminated exactly; otherwise LU in floats.
    """
    if P.is_zero() or Q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if P.degree == 0 or Q.degree == 0:
        # deg-0 convention: Res(c, Q) = c^deg(Q)
        if P.degree == 0:
            return P.coefficients[0] ** Q.degree
        return Q.coefficients[0] ** P.degree
    rows, n = _sylvester(P, Q)
    if _is_exact(P.coefficients) and _is_exact(Q.coefficients):
        value = _det_exact(rows)
        return int(value) if value.denominator == 1 else value
    return complex(np.linalg.det(np.array(rows, dtype=complex)))


def discriminant(P: Polynomial) -> complex:
    """Discriminant (-1)^(N(N-1)/2) Res(P, P') / leading coefficient."""
    n = P.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    res = resultant(P, P.deriv())
    lead = P.coefficients[-1]
    if isinstance(res, (int, Fraction)) and isinstance(lead, (int, Fraction)):
        value = Fraction(res) / Fraction(lead) * sign
        return int(value) if value.denominator == 1 else value
    return sign * complex(res) / complex(lead)


def roots_of_unity(N: int) -> list[complex]:
    """The N-th roots of unity, counterclockwise from 1."""
    if N < 1:
        raise ValueError("need N >= 1")
    return [cmath.exp(2j * math.pi * k / N) for k in range(N)]


def equilateral_test(I: complex, J: complex, K: complex, tol: float = 1e-9) -> bool:
    """True when the counterclockwise triangle IJK is equilateral.

    Tests |I + wJ + w^2 K| <= tol * scale with w = exp(2 pi i/3).
    """
    w = cmath.exp(2j * math.pi / 3)
    value = I + w * J + w * w * K
    scale = max(abs(I), abs(J), abs(K), 1.0)
    return abs(value) <= tol * scale


def det_permutation_sum(A: np.ndarray) -> complex:
    """Determinant as the signed sum over all permutations (use for N <= 6)."""
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    total = 0
    for perm in itertools.permutations(range(1, n + 1)):
        term = signature(perm)
        for i in range(n):
            term = term * A[i, perm[i] - 1]
        total += term
    return total


def determinant(A: np.ndarray) -> complex:
    """Determinant: permutation sum for N <= 6, LU elimination beyond."""
    A = np.asarray(A)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n <= 6:
        return det_permutation_sum(A)
    return np.linalg.det(A)


def _adjugate_small(A: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    cof = np.empty_like(A)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(A, i, axis=0), j, axis=1)
            cof[i, j] = (-1) ** (i + j) * (minor[0, 0] if n == 2 else det_permutation_sum(minor))
    return cof.T


def inverse(A: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Matrix inverse: adjugate over determinant for N <= 3, LU beyond.

    Raises on (numerically) singular input.
    """
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.abs(A).max()) or 1.0
    det = determinant(A)
    if abs(det) <= tol * scale**n:
        raise ValueError("matrix is singular to the working tolerance")
    if n <= 3:
        return _adjugate_small(A) / det
    return np.linalg.inv(A)


# Up to this size the scalar sweep beats the batched numpy step, whose per-call
# overhead dominates small matrices; both took about 6 ms at n = 19 (2-vCPU x86).
_SCALAR_SWEEP_MAX_N = 18
_MAX_SWEEPS = 100


def symmetric_eigen(A: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a real symmetric matrix by Jacobi rotations.

    Returns (U, d) with A = U diag(d) U^T, U orthogonal, and d sorted in
    descending order.  Each rotation zeroes one off-diagonal pair (p, q),
    with the stable tangent t = 2 a_pq / (e + sign(e) hypot(e, 2 a_pq)),
    e = a_qq - a_pp (t = 0 when a_pq = 0).  A sweep rotates every pair once:

    - up to n = 18, cyclically row by row on Python lists, each rotation an
      O(n) update of two rows, two columns and two columns of U;
    - above that, in the Brent-Luk round-robin order: n - 1 steps (n for odd
      n) of floor(n/2) disjoint pairs, each step applied to all its pairs
      by a few numpy operations, so a sweep costs O(n^3).

    Sweeps stop once the squared entries above the diagonal sum to at most
    (tol ||A||_F)^2 / 2, that is, once the off-diagonal Frobenius norm is at
    most tol ||A||_F; the sum is taken directly, not as a difference of
    norms.  Raises ValueError for non-square, non-finite or non-symmetric
    input, and ArithmeticError if 100 sweeps do not meet the test.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    # an exact power-of-two scaling to max |a_ij| in [1/2, 1), so that no
    # square in the norms overflows or underflows to zero
    exponent = math.frexp(float(np.abs(A).max()))[1]
    A = np.ldexp(A, -exponent)
    norm = float(np.linalg.norm(A)) or 1.0
    if float(np.abs(A - A.T).max()) > tol * norm:
        raise ValueError("matrix is not symmetric to the working tolerance")
    sweeps = _scalar_sweeps if n <= _SCALAR_SWEEP_MAX_N else _batched_sweeps
    d, V = sweeps(0.5 * (A + A.T), 0.5 * (tol * norm) ** 2)
    order = np.argsort(-d)
    return V[order].T, np.ldexp(d[order], exponent)


def _scalar_sweeps(work: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi on Python lists; returns the diagonal and V = U^T."""
    n = work.shape[0]
    a = work.tolist()
    v = np.eye(n).tolist()
    for _ in range(_MAX_SWEEPS):
        if sum(x * x for p in range(n - 1) for x in a[p][p + 1 :]) <= bound:
            break
        for p in range(n - 1):
            ap, vp = a[p], v[p]
            for q in range(p + 1, n):
                apq = ap[q]
                if apq == 0.0:
                    continue
                aq, vq = a[q], v[q]
                app, aqq = ap[p], aq[q]
                e = aqq - app
                t = 2.0 * apq / (e + math.copysign(math.hypot(e, 2.0 * apq), e))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(n):
                    ak = a[k]
                    akp, akq = ak[p], ak[q]
                    ak[p] = ap[k] = c * akp - s * akq
                    ak[q] = aq[k] = s * akp + c * akq
                    vkp, vkq = vp[k], vq[k]
                    vp[k] = c * vkp - s * vkq
                    vq[k] = s * vkp + c * vkq
                # k = p and k = q wrote the 2x2 block; set its exact rotated value
                ap[p], aq[q] = app - t * apq, aqq + t * apq
                ap[q] = aq[p] = 0.0
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return np.array([a[i][i] for i in range(n)]), np.array(v)


def _round_robin(n: int) -> list[tuple[np.ndarray, ...]]:
    """Index arrays for the steps of one Brent-Luk sweep.

    Each step pairs all indices disjointly (for odd n, one sits out), and a
    sweep meets every pair p < q exactly once.  Per step it returns
    (P+Q, Q+P, P+P, Q+Q, signs): entry i of the stacked arrays is pair i for
    i < k and the same pair with p and q swapped for i >= k, whose tangent,
    and so whose sine, is the negative of the first; signs is +1 then -1.
    """
    m = n + n % 2
    ring = list(range(m))
    steps = []
    for _ in range(m - 1):
        pairs = sorted(tuple(sorted((ring[i], ring[m - 1 - i]))) for i in range(m // 2))
        P, Q = np.array([pq for pq in pairs if pq[1] < n]).T
        steps.append((np.r_[P, Q], np.r_[Q, P], np.r_[P, P], np.r_[Q, Q], np.repeat([1.0, -1.0], len(P))))
        ring.insert(1, ring.pop())
    return steps


def _batched_sweeps(work: np.ndarray, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi, one numpy step per set of disjoint pairs; returns
    the diagonal and V = U^T (rows of V are the columns of U)."""
    n = work.shape[0]
    steps = _round_robin(n)
    upper = np.triu_indices(n, 1)
    diag = work.diagonal()  # a view: follows the in-place updates
    V = np.eye(n)
    k = len(steps[0][0])
    rows, cols = (np.empty((k, n)), np.empty((k, n))), (np.empty((n, k)), np.empty((n, k)))
    for _ in range(_MAX_SWEEPS):
        off = work[upper]
        if off @ off <= bound:
            break
        for PQ, QP, PP, QQ, signs in steps:
            # both halves read the same a_pq and an exactly negated e (zero
            # sign included), so their tangents are exact negatives even where
            # rounding has left work[q, p] != work[p, q]
            apq = work[PP, QQ]
            e = signs * (diag[QQ] - diag[PP])
            den = e + np.copysign(np.hypot(e, 2.0 * apq), e)
            t = np.divide(2.0 * apq, den, out=np.zeros_like(apq), where=apq != 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            _rotate(work, 0, PQ, QP, c[:, None], s[:, None], *rows)
            _rotate(work, 1, PQ, QP, c, s, *cols)
            _rotate(V, 0, PQ, QP, c[:, None], s[:, None], *rows)
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return diag.copy(), V


def _rotate(X, axis, PQ, QP, c, s, a, b) -> None:
    """Along axis, X[PQ] = X[PQ] c - X[QP] s in place, through the buffers a and b.

    Fresh n x n temporaries past the allocator's mmap threshold are paged
    in anew at every step (at n = 160 that more than doubled the solve), so
    the gathers go to buffers allocated once per solve.
    """
    np.take(X, PQ, axis=axis, out=a, mode="clip")  # the indices are valid; "raise" would buffer out
    np.take(X, QP, axis=axis, out=b, mode="clip")
    a *= c
    b *= s
    a -= b
    if axis:
        X[:, PQ] = a
    else:
        X[PQ] = a


def classify_definiteness(A: np.ndarray, tol: float = 1e-10) -> str:
    """Sign pattern of the eigenvalues of a symmetric matrix.

    Eigenvalues within +/- tol * ||A|| of zero count as zero.  Returns one
    of: pos_def, pos_semi, neg_def, neg_semi, indefinite, zero.
    """
    A = np.asarray(A, dtype=float)
    _, d = symmetric_eigen(A, tol=max(tol, 1e-12))
    band = tol * (float(np.linalg.norm(A)) or 1.0)
    pos = int(np.sum(d > band))
    neg = int(np.sum(d < -band))
    zero = len(d) - pos - neg
    if pos == 0 and neg == 0:
        return "zero"
    if neg == 0:
        return "pos_def" if zero == 0 else "pos_semi"
    if pos == 0:
        return "neg_def" if zero == 0 else "neg_semi"
    return "indefinite"


def fourier_matrix(N: int) -> np.ndarray:
    """The N x N matrix (w^{ij}) with w = exp(2 pi i/N), indices from 0."""
    if N < 1:
        raise ValueError("need N >= 1")
    idx = np.arange(N)
    return np.exp(2j * math.pi * np.outer(idx, idx) / N)


def circulant(xi: Sequence[complex]) -> np.ndarray:
    """The circulant matrix A_ij = xi_{j-i mod N}."""
    xi = np.asarray(xi, dtype=complex)
    N = len(xi)
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    return xi[(j - i) % N]


def circulant_diag(xi: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the circulant of xi, plus its Fourier reconstruction.

    The eigenvalues are F xi, and the reconstruction F diag(eig) F^*/N
    should reproduce the circulant matrix.
    """
    xi = np.asarray(xi, dtype=complex)
    N = len(xi)
    F = fourier_matrix(N)
    eig = F @ xi
    reconstruction = (F * eig) @ F.conj().T / N
    return eig, reconstruction


def matrix_exp(A: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(A t) by scaling-and-squaring of the Taylor series."""
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    B = A * t
    norm = float(np.linalg.norm(B, ord=np.inf))
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    C = B / (2.0**s)
    out = np.eye(n, dtype=C.dtype)
    term = np.eye(n, dtype=C.dtype)
    for k in range(1, 60):
        term = term @ C / k
        out = out + term
        if float(np.linalg.norm(term, ord=np.inf)) < 1e-18 * float(
            np.linalg.norm(out, ord=np.inf)
        ):
            break
    for _ in range(s):
        out = out @ out
    return out
