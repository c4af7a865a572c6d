"""Resultants and dense matrix algebra.

``Polynomial``, ``solve_quadratic``, ``cardano``, ``all_roots`` and
``roots_of_unity`` live in the numpy-free ``calclab.poly`` and are
re-exported here.  Matrices are numpy arrays.  A determinant is exact
(Bareiss elimination) when every entry is rational and numpy's LU
otherwise (the permutation sum, the definition, is the tests' reference in
``tests/oracles.py``).  The Jacobi eigensolver is implemented directly, one
route per question: the eigenvalues alone on Python lists (for n = 3 the
same sweeps written out on locals), with the eigenvectors in numpy
round-robin sweeps.  ``inverse`` delegates to numpy.

``np`` is the deferred binding of ``calclab._numpy``, so importing this module
(and the polynomial roots it re-exports) does not load numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from typing import Sequence

from ._numpy import np
from .poly import Polynomial, all_roots, cardano, roots_of_unity, solve_quadratic

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


def _det_exact(rows) -> Fraction:
    """Bareiss elimination on the rows cleared of denominators: exact integer division, no gcd."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    scales = [math.lcm(*(v.denominator for v in row)) for row in a]
    a = [[int(v * d) for v in row] for row, d in zip(a, scales)]
    sign, prev = 1, 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        for r in range(col + 1, n):
            ar, q = a[r], a[r][col]
            for c in range(col + 1, n):
                ar[c] = (ar[c] * p - q * a[col][c]) // prev
        prev = p
    return Fraction(sign * a[-1][-1] if n else 1, math.prod(scales))


def resultant(P: Polynomial, Q: Polynomial) -> int | Fraction | complex:
    """Resultant: ``determinant`` of the Sylvester matrix, complex when not exact.

    Vanishes exactly when P and Q share a root.  A constant c has Sylvester
    matrix c I, so Res(c, Q) = c^deg(Q), and two constants have the empty
    matrix, whose determinant is 1.
    """
    if P.is_zero() or Q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    rows, n = _sylvester(P, Q)
    value = determinant(np.array(rows, dtype=object).reshape(n, n))
    return value if isinstance(value, (int, Fraction)) else complex(value)


def discriminant(P: Polynomial) -> complex:
    """Discriminant (-1)^(N(N-1)/2) Res(P, P') / leading coefficient."""
    n = P.degree
    if n < 2:
        raise ValueError("discriminant needs degree >= 2")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    res = resultant(P, P.deriv())
    if isinstance(res, complex):
        return sign * res / complex(P.coefficients[-1])
    value = sign * Fraction(res, P.coefficients[-1])  # an exact res has a rational lead
    return int(value) if value.denominator == 1 else value


def equilateral_test(I: complex, J: complex, K: complex, tol: float = 1e-9) -> bool:
    """True when the counterclockwise triangle IJK is equilateral.

    Tests |I + wJ + w^2 K| <= tol * scale with w, w^2 = roots_of_unity(3)[1:].
    """
    _, w, w2 = roots_of_unity(3)
    value = I + w * J + w2 * K
    scale = max(abs(I), abs(J), abs(K), 1.0)
    return abs(value) <= tol * scale


def determinant(A: np.ndarray) -> int | Fraction | complex:
    """Determinant, by the kind of entry and never by the size.

    Rational entries (int, Fraction, numpy integer) give an exact int or
    Fraction: 26 ms at n = 50 and 0.26 s at n = 100 on entries in [-9, 9],
    where LU takes 0.05-0.2 ms.  Anything else goes to numpy's LU with
    partial pivoting, in complex arithmetic when an entry is complex.
    """
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.dtype.kind in "biu" or (A.dtype == object and all(isinstance(v, numbers.Rational) for v in A.flat)):
        value = _det_exact(A.tolist())
        return int(value) if value.denominator == 1 else value
    if A.dtype == object:
        A = A.astype(float if all(isinstance(v, numbers.Real) for v in A.flat) else complex)
    return np.linalg.det(A)


def inverse(A: np.ndarray) -> np.ndarray:
    """Matrix inverse by numpy's LU.

    Raises ValueError when |det A| <= 1e-12 (max |a_ij|)^n, compared as
    logarithms (``numpy.linalg.slogdet``) so that neither side can overflow.
    """
    A = np.asarray(A, dtype=complex if np.iscomplexobj(A) else float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    scale = float(np.abs(A).max()) or 1.0
    logdet = np.linalg.slogdet(A)[1]
    if logdet - n * math.log(scale) <= math.log(1e-12):
        raise ValueError("matrix is singular to the working tolerance")
    return np.linalg.inv(A)


_MAX_SWEEPS = 100


def symmetric_eigen(A: np.ndarray, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a real symmetric matrix by Jacobi rotations.

    Returns (U, d) with A = U diag(d) U^T, U orthogonal, and d sorted in
    descending order (equal eigenvalues in index order).  A is read into
    lists of Python floats, checked, scaled by an exact power of two and
    sorted in Python.  Each rotation zeroes one off-diagonal pair (p, q),
    with the stable tangent t = 2 a_pq / (e + sign(e) hypot(e, 2 a_pq)),
    e = a_qq - a_pp (t = 0 when a_pq = 0).  A sweep rotates every pair once,
    by the route of the question asked:

    - the eigenvalues with U (this function) in the Brent-Luk round-robin
      order: n - 1 steps (n for odd n) of floor(n/2) disjoint pairs, each
      step applied to all its pairs by a few numpy operations, the rows of
      the working matrix and of U^T rotated together, so a sweep costs
      O(n^3); n <= 1 needs no rotation and takes U = I;
    - the eigenvalues alone (``classify_definiteness``,
      ``diffcalc.classify_critical`` and ``calclab eig``) cyclically row by
      row on the lists, each rotation an O(n) update of two rows and two
      columns, so they load no numpy at any order; at n = 3, the census
      of ``calclab critical`` in three dimensions, the same operations in
      their order, so with their bits, are written out on local variables.

    The eigenvalues of the two questions may therefore differ in their last
    bits.  Sweeps stop once the squared entries above the diagonal sum to at
    most (tol ||A||_F)^2 / 2, that is, once the off-diagonal Frobenius norm
    is at most tol ||A||_F; the sum is taken directly, not as a difference
    of norms.  A 0 x 0 matrix gives an empty U (0 x 0) and d.  Raises
    ValueError for non-square, non-finite or non-symmetric input, and
    ArithmeticError if 100 sweeps do not meet the test or an eigenvalue
    lies past the float range.
    """
    d, V = _jacobi(_square_rows(np.asarray(A, dtype=float)), tol, vectors=True)
    return np.array(V).reshape(len(d), len(d)).T, np.array(d)


def _square_rows(A: np.ndarray) -> list[list[float]]:
    """The rows of a float array as lists; ValueError unless it is a square matrix."""
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return A.tolist()


def _jacobi(rows: list[list[float]], tol: float, vectors: bool) -> tuple[list[float], list[list[float]] | None]:
    """The eigenvalues of :func:`symmetric_eigen` from a list of rows of floats, swept on the
    lists without numpy (n = 3 in :func:`_jacobi3`); when ``vectors`` asks for the rows
    of V = U^T too, in their order, both from the round-robin sweeps in numpy (else None)."""
    n = len(rows)
    if n == 3 and not vectors:
        return _jacobi3(rows, tol), None
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    flat = [v for row in rows for v in row]
    if not all(map(math.isfinite, flat)):
        raise ValueError("matrix has non-finite entries")
    # an exact power-of-two scaling to max |a_ij| in [1/2, 1), so that no
    # square in the norms overflows or underflows to zero
    exponent = math.frexp(max(map(abs, flat), default=0.0))[1]
    a = [[math.ldexp(v, -exponent) for v in row] for row in rows]
    norm = math.hypot(*(v for row in a for v in row)) or 1.0
    if any(abs(a[p][q] - a[q][p]) > tol * norm for p in range(n) for q in range(p)):
        raise ValueError("matrix is not symmetric to the working tolerance")
    a = [[0.5 * (a[p][q] + a[q][p]) for q in range(n)] for p in range(n)]
    bound = 0.5 * (tol * norm) ** 2
    if vectors:
        d, v = _batched_sweeps(a, bound) if n > 1 else ([row[0] for row in a], [[1.0]] * n)
    else:
        for _ in range(_MAX_SWEEPS):
            # bounded: rotations keep the scaled matrix's squares summing to below n^2
            if math.fsum(x * x for p in range(n - 1) for x in a[p][p + 1 :]) <= bound:
                break
            for p in range(n - 1):
                ap = a[p]
                for q in range(p + 1, n):
                    apq = ap[q]
                    if apq == 0.0:
                        continue
                    aq = a[q]
                    app, aqq = ap[p], aq[q]
                    e = aqq - app
                    t = 2.0 * apq / (e + math.copysign(math.hypot(e, 2.0 * apq), e))
                    c = 1.0 / math.sqrt(1.0 + t * t)
                    s = t * c
                    for k in range(n):
                        if k == p or k == q:  # they would write only the 2x2 block, set below
                            continue
                        ak = a[k]
                        akp, akq = ak[p], ak[q]
                        ak[p] = ap[k] = c * akp - s * akq
                        ak[q] = aq[k] = s * akp + c * akq
                    # the exact rotated value of the 2x2 block
                    ap[p], aq[q] = app - t * apq, aqq + t * apq
                    ap[q] = aq[p] = 0.0
        else:
            raise ArithmeticError("Jacobi sweeps did not converge")
        d = [a[i][i] for i in range(n)]
    order = sorted(range(n), key=d.__getitem__, reverse=True)
    try:
        d = [math.ldexp(d[i], exponent) for i in order]
    except OverflowError:
        raise ArithmeticError("an eigenvalue overflows the float range") from None
    return d, [v[i] for i in order] if vectors else None


def _jacobi3(rows: list[list[float]], tol: float) -> list[float]:
    """The eigenvalues of :func:`_jacobi` of order 3: the list route written out on locals.

    It performs the list route's operations in its order, so with its bits
    and errors: the checks, the power-of-two scaling, the symmetrization,
    the sweeps (the stop test, the skip of a zero a_pq, the rotation off the
    2x2 block, then the block's exact value), the stable descending sort and
    the scaling back.  The working matrix stays exactly symmetric: a_pq for
    p <= q is the only copy of entries (p, q) and (q, p).
    """
    row0, row1, row2 = rows
    if len(row0) != 3 or len(row1) != 3 or len(row2) != 3:
        raise ValueError("matrix must be square")
    flat = (*row0, *row1, *row2)
    if not all(map(math.isfinite, flat)):
        raise ValueError("matrix has non-finite entries")
    exponent = math.frexp(max(map(abs, flat)))[1]
    e00, e01, e02, e10, e11, e12, e20, e21, e22 = [math.ldexp(v, -exponent) for v in flat]
    norm = math.hypot(e00, e01, e02, e10, e11, e12, e20, e21, e22) or 1.0
    if abs(e10 - e01) > tol * norm or abs(e20 - e02) > tol * norm or abs(e21 - e12) > tol * norm:
        raise ValueError("matrix is not symmetric to the working tolerance")
    a00, a01, a02 = 0.5 * (e00 + e00), 0.5 * (e01 + e10), 0.5 * (e02 + e20)
    a11, a12, a22 = 0.5 * (e11 + e11), 0.5 * (e12 + e21), 0.5 * (e22 + e22)
    bound = 0.5 * (tol * norm) ** 2
    for _ in range(_MAX_SWEEPS):
        if math.fsum((a01 * a01, a02 * a02, a12 * a12)) <= bound:  # bounded: the scaled squares sum below 9
            break
        if a01 != 0.0:
            e = a11 - a00
            t = 2.0 * a01 / (e + math.copysign(math.hypot(e, 2.0 * a01), e))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            a02, a12 = c * a02 - s * a12, s * a02 + c * a12
            a00, a11, a01 = a00 - t * a01, a11 + t * a01, 0.0
        if a02 != 0.0:
            e = a22 - a00
            t = 2.0 * a02 / (e + math.copysign(math.hypot(e, 2.0 * a02), e))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            a01, a12 = c * a01 - s * a12, s * a01 + c * a12
            a00, a22, a02 = a00 - t * a02, a22 + t * a02, 0.0
        if a12 != 0.0:
            e = a22 - a11
            t = 2.0 * a12 / (e + math.copysign(math.hypot(e, 2.0 * a12), e))
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = t * c
            a01, a02 = c * a01 - s * a02, s * a01 + c * a02
            a11, a22, a12 = a11 - t * a12, a22 + t * a12, 0.0
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    d = (a00, a11, a22)
    try:
        return [math.ldexp(d[i], exponent) for i in sorted(range(3), key=d.__getitem__, reverse=True)]
    except OverflowError:
        raise ArithmeticError("an eigenvalue overflows the float range") from None


@functools.lru_cache(maxsize=16)  # an entry holds about 5 n^2 numbers
def _round_robin(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Index arrays for the steps of one Brent-Luk sweep, read-only.

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
        step = (np.r_[P, Q], np.r_[Q, P], np.r_[P, P], np.r_[Q, Q], np.repeat([1.0, -1.0], len(P)))
        for a in step:
            a.setflags(write=False)
        steps.append(step)
        ring.insert(1, ring.pop())
    return tuple(steps)


def _batched_sweeps(a: list[list[float]], bound: float) -> tuple[list[float], list[list[float]]]:
    """Round-robin Jacobi of order n >= 2, one numpy step per set of disjoint pairs;
    returns the diagonal and V = U^T (rows of V are the columns of U).

    The working matrix and V sit side by side in one n x 2n array [A | V],
    so a step rotates the rows of both by one ``_rotate``, then the
    columns of the A half by another.
    """
    n = len(a)
    AV = np.hstack([np.array(a), np.eye(n)])
    work = AV[:, :n]  # views: they follow the in-place updates
    diag = work.diagonal()
    steps = _round_robin(n)
    upper = np.triu_indices(n, 1)
    k = len(steps[0][0])
    rows, cols = (np.empty((k, 2 * n)), np.empty((k, 2 * n))), (np.empty((n, k)), np.empty((n, k)))
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
            _rotate(AV, 0, PQ, QP, c[:, None], s[:, None], *rows)
            _rotate(work, 1, PQ, QP, c, s, *cols)
    else:
        raise ArithmeticError("Jacobi sweeps did not converge")
    return diag.tolist(), AV[:, n:].tolist()


def _rotate(X, axis, PQ, QP, c, s, a, b) -> None:
    """Along axis, X[PQ] = X[PQ] c - X[QP] s in place, through the buffers a and b.

    Fresh n x n temporaries past the allocator's mmap threshold are paged
    in anew at every step (at n = 160 that more than doubled the solve), so
    the gathers go to buffers allocated once per solve.
    """
    X.take(PQ, axis=axis, out=a, mode="clip")  # the indices are valid; "raise" would buffer out
    X.take(QP, axis=axis, out=b, mode="clip")
    a *= c
    b *= s
    a -= b
    if axis:
        X[:, PQ] = a
    else:
        X[PQ] = a


def classify_definiteness(A: np.ndarray) -> str:
    """Sign pattern of the eigenvalues of a symmetric matrix.

    Eigenvalues within +/- 1e-10 ||A|| of zero count as zero.  Returns one
    of: pos_def, pos_semi, neg_def, neg_semi, indefinite, zero (also for
    the 0 x 0 matrix, which has no eigenvalues).
    """
    A = np.asarray(A, dtype=float)
    d = _jacobi(_square_rows(A), 1e-10, vectors=False)[0]
    band = 1e-10 * (float(np.linalg.norm(A)) or 1.0)
    pos = sum(v > band for v in d)
    neg = sum(v < -band for v in d)
    zero = len(d) - pos - neg
    if pos == 0 and neg == 0:
        return "zero"
    if neg == 0:
        return "pos_def" if zero == 0 else "pos_semi"
    if pos == 0:
        return "neg_def" if zero == 0 else "neg_semi"
    return "indefinite"


def fourier_matrix(N: int) -> np.ndarray:
    """The N x N matrix (w^{ij}), w = exp(2 pi i/N), indices from 0: point ij mod N of :func:`roots_of_unity`."""
    idx = np.arange(N)
    return np.array(roots_of_unity(N))[np.outer(idx, idx) % N]


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
