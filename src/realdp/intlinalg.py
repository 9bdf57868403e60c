"""Exact integer linear algebra; no floating point is ever used.

Matrices are sequences of rows in row-major order; the catalogue stores its
embeddings and conjugations as tuples of row tuples.  These routines back the
lattice layer: the strict integer and rational checks every library
constructor applies to its input, the primitive integer representative of a
rational vector, the one dot product of the library (`dot`, which
matrix-vector products, lattice pairings and the linking-number signs all
use), and a Fincke-Pohst enumeration over the integers certified by the
leading principal minors of a fraction-free (Bareiss) elimination.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul


def int_tuple(values) -> tuple:
    """`values` as a tuple, each a plain int.

    Nothing is coerced: a bool, float, Fraction or string raises ValueError
    instead of being truncated by int().  One check covers the whole tuple,
    since coefficient vectors are built for every enumerated lattice point.
    """
    values = tuple(values)
    if not all(type(c) is int for c in values):
        bad = next(c for c in values if type(c) is not int)
        raise ValueError(f"expected an integer, got {bad!r}")
    return values


def rational_tuple(values) -> tuple:
    """`values` as a tuple, each an int or a Fraction, returned as given.

    A bool, float or string raises ValueError: a float is not exact, and
    "p/q" strings are a CLI format parsed by the CLI alone.
    """
    values = tuple(values)
    if not all(type(c) is int or type(c) is Fraction for c in values):
        bad = next(c for c in values if type(c) is not int and type(c) is not Fraction)
        raise ValueError(f"expected an integer or Fraction, got {bad!r}")
    return values


def primitive_vector(values) -> tuple:
    """The positive multiple of a nonzero int/Fraction vector whose entries
    are coprime integers.

    It represents the ray, and the polynomial up to a positive factor, where
    only signs matter: Sturm counts, root multiplicities and the sides of a
    hyperplane.  A zero vector raises ZeroDivisionError; callers check first.
    """
    den = lcm(*[c.denominator for c in values])
    ints = [c.numerator * (den // c.denominator) for c in values]
    g = gcd(*ints)
    return tuple([c // g for c in ints])


def dot(u, v):
    """sum_i u_i v_i for two vectors of one length."""
    return sum(map(mul, u, v))


def mat_vec(a, v):
    return [dot(row, v) for row in a]


def _bareiss(a):
    """Fraction-free elimination of a symmetric integer matrix (Bareiss 1968).

    Row k is returned as it stands after k steps, each dividing exactly by the
    previous pivot; the pivot r[k][k] is the leading principal minor D_(k+1).
    By Sylvester all minors are positive exactly when `a` is positive
    definite, so they certify the signature; a minor <= 0 raises ValueError.
    """
    n = len(a)
    rows = [list(int_tuple(row)) for row in a]
    for k in range(n):
        pivot, prev = rows[k][k], rows[k - 1][k - 1] if k else 1
        if pivot <= 0:
            raise ValueError("matrix is not positive definite")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (pivot * rows[i][j] - rows[i][k] * rows[k][j]) // prev
    return rows


def enumerate_quadratic(a, bound):
    """All integer vectors v with v^T a v <= bound, for a positive definite
    integer matrix a.

    Fincke-Pohst search on the Bareiss rows r and minors D_k (D_0 = 1):
    v^T a v = sum_k (sum_{j>=k} r[k][j] v_j)^2 / (D_k D_(k+1)).  All terms are
    scaled by one integer lcm, so each window needs only isqrt and floor
    division, and the open windows sit on an explicit stack.  The output
    includes the zero vector and both members of each +-v pair; order is
    unspecified (callers sort).  The elimination runs even for a negative
    bound, so a form that is not positive definite always raises ValueError.
    """
    n = len(a)
    rows = _bareiss(a)
    if bound < 0:
        return []
    minors = [1] + [rows[k][k] for k in range(n)]
    scale = lcm(*[d * e for d, e in zip(minors, minors[1:])])
    weights = [scale // (d * e) for d, e in zip(minors, minors[1:])]
    results = []
    v = [0] * n
    stack = [_window(rows, weights, v, n - 1, scale * bound)]
    while stack:
        frame = stack[-1]
        k, m, hi, budget, c = frame
        if m > hi:
            stack.pop()
            continue
        frame[1] = m + 1
        v[k] = m
        if k:
            s = rows[k][k] * m + c
            stack.append(_window(rows, weights, v, k - 1, budget - weights[k] * s * s))
        else:
            results.append(tuple(v))
    return results


def _window(rows, weights, v, k, budget):
    """Frame [k, lo, hi, budget, c] of coordinate k: [lo, hi] holds the
    integers m with weights[k] (D_(k+1) m + c)^2 <= budget, where c is
    sum_{j>k} rows[k][j] v_j; the search advances lo."""
    c = dot(rows[k][k + 1:], v[k + 1:])
    r = isqrt(budget // weights[k])
    p = rows[k][k]
    return [k, -((r + c) // p), (r - c) // p, budget, c]
