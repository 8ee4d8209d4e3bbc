"""Small dense linear algebra over generic (float-or-jet) scalars.

Matrices are lists of lists; dimensions here are chart dimensions (<= 4 or
so), so plain Gaussian elimination with partial pivoting on base values is
both fast enough and jet-transparent. A float multiplier that is zero skips
its row update, in jet matrices too: jet arithmetic keeps a float zero a float
(:mod:`pbh.jets`), so a diagonal jet matrix's inverse has float zeros.

Batched entries (see :mod:`pbh.jets`) take every branch by the scalar rule per
entry: the pivot is the first row with the largest |base value|, and a
multiplier skips when it is zero in every entry. When all entries agree the
elimination proceeds batched; when they disagree, or some pivot is zero, it
raises :class:`BatchSplit` so the caller can evaluate the entries one at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import BatchSplit, SingularMatrixError
from .jets import is_structural_zero, same_in_every_entry, value


def mat_mul(A, B, mul):
    n, m, k = len(A), len(B[0]), len(B)
    return [[sum((mul(A[i][l], B[l][j]) for l in range(k)), 0.0) for j in range(m)]
            for i in range(n)]


def nonzero_entries(A) -> list:
    """(i, j, A[i][j]), row by row, for the entries of A that are not structural zeros."""
    return [(i, j, a) for i, row in enumerate(A) for j, a in enumerate(row)
            if not is_structural_zero(a)]


def _pivot(a, col):
    """(row, is_zero) of the pivot of column `col`: the first row at or below
    `col` with the largest |base value|."""
    mags = [abs(value(a[r][col])) for r in range(col, len(a))]
    if np.ndarray not in map(type, mags):
        k = max(range(len(mags)), key=mags.__getitem__)
        return col + k, mags[k] == 0.0
    mags = np.array(np.broadcast_arrays(*mags))
    rows = mags.argmax(axis=0)
    if (rows != rows[0]).any() or not (mags[rows[0]] > 0.0).all():
        raise BatchSplit(f"batch entries disagree on the pivot of column {col}")
    return col + int(rows[0]), False


def _skips(f) -> bool:
    """Whether a row update by multiplier f is skipped: f is a float zero."""
    return isinstance(f, (float, np.ndarray)) and same_in_every_entry(f == 0.0)


def solve(A, B):
    """Solve A X = B for X; B is a matrix (list of rows). Partial pivoting on base values."""
    n = len(A)
    a = [list(row) for row in A]
    b = [list(row) for row in B]
    for col in range(n):
        piv, zero = _pivot(a, col)
        if zero:
            raise SingularMatrixError(f"zero pivot in column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if _skips(f):
                continue
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
            for c in range(len(b[0])):
                b[r][c] = b[r][c] - f * b[col][c]
    x = [[None] * len(b[0]) for _ in range(n)]
    for r in range(n - 1, -1, -1):
        inv = 1.0 / a[r][r]
        for c in range(len(b[0])):
            s = b[r][c]
            for k in range(r + 1, n):
                s = s - a[r][k] * x[k][c]
            x[r][c] = s * inv
    return x


def inverse(A):
    n = len(A)
    eye = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    return solve(A, eye)


def det(A):
    n = len(A)
    a = [list(row) for row in A]
    sign = 1.0
    for col in range(n):
        piv, zero = _pivot(a, col)
        if zero:
            return 0.0 * a[0][0]
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] = a[r][c] - f * a[col][c]
    d = a[0][0]
    for i in range(1, n):
        d = d * a[i][i]
    return sign * d
