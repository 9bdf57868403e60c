"""Exact integer and rational linear algebra.

Everything here works with plain Python integers (arbitrary precision) or
`fractions.Fraction`; no floating point is ever used.  Matrices are lists of
lists in row-major order.  These routines back the lattice layer: exact
signatures of symmetric forms, matrix products and inverses, and a
Fincke-Pohst style bounded enumeration whose search radius is certified by a
rational LDL^T factorisation.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def signature(gram):
    """Exact signature (n_plus, n_minus, n_zero) of a symmetric matrix over Q.

    Computed by congruence reduction (symmetric Gaussian elimination); when no
    nonzero diagonal entry is available, a row/column addition creates one.
    """
    g = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    while g:
        n = len(g)
        piv = next((i for i in range(n) if g[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(n) for j in range(i + 1, n) if g[i][j] != 0),
                None,
            )
            if pair is None:
                zero += n
                break
            i, j = pair
            for k in range(n):
                g[i][k] += g[j][k]
            for k in range(n):
                g[k][i] += g[k][j]
            piv = i
        d = g[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest = [k for k in range(n) if k != piv]
        g = [[g[k][l] - g[k][piv] * g[piv][l] / d for l in rest] for k in rest]
    return pos, neg, zero


def ldl(a):
    """LDL^T factorisation of a positive definite symmetric rational matrix.

    Returns (diag, lower) with unit lower triangular `lower` and positive
    rational pivots `diag`; v^T a v = sum_j diag[j] * (v_j + sum_{i>j}
    lower[i][j] v_i)^2.  Raises ValueError when `a` is not positive definite;
    either way the pivots are an exact certificate.
    """
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag = []
    for j in range(n):
        d = work[j][j] - sum(lower[j][k] ** 2 * diag[k] for k in range(j))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(j + 1, n):
            s = work[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = s / d
    return diag, lower


def _coordinate_window(center, radius_sq):
    """All integers m with (m + center)^2 <= radius_sq, as a closed range.

    `center` and `radius_sq` are Fractions, radius_sq >= 0.  The window is
    computed with integer square roots only, so it is exact.
    """
    q = center.denominator
    p = center.numerator
    scaled = radius_sq * q * q
    root = isqrt(scaled.numerator // scaled.denominator)
    lo_num, hi_num = -root - p, root - p
    lo = -((-lo_num) // q)
    hi = hi_num // q
    return lo, hi


def enumerate_quadratic(a, bound):
    """All integer vectors v with v^T a v <= bound, for positive definite a.

    Fincke-Pohst bounded search on the exact LDL^T factorisation.  The output
    includes the zero vector and both members of each +-v pair; order is
    unspecified (callers sort).
    """
    n = len(a)
    if bound < 0:
        return []
    diag, lower = ldl(a)
    results = []
    v = [0] * n

    def extend(j, remaining):
        if j < 0:
            results.append(tuple(v))
            return
        center = sum(lower[i][j] * v[i] for i in range(j + 1, n))
        if not isinstance(center, Fraction):
            center = Fraction(center)
        lo, hi = _coordinate_window(center, remaining / diag[j])
        for m in range(lo, hi + 1):
            v[j] = m
            w = m + center
            extend(j - 1, remaining - diag[j] * w * w)
        v[j] = 0

    extend(n - 1, Fraction(bound))
    return results


def mat_inverse(a):
    """Exact inverse of a square rational matrix (Gauss-Jordan over Q)."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        d = work[col][col]
        work[col] = [x / d for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]
