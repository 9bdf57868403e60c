"""Exact integer and rational linear algebra.

Everything here works with plain Python integers (arbitrary precision) or
`fractions.Fraction`; no floating point is ever used.  Matrices are lists of
lists in row-major order.  These routines back the lattice layer: the strict
integer and rational checks every library constructor applies to its input,
the primitive integer representative of a rational vector, matrix-vector
products, and a Fincke-Pohst style bounded enumeration whose
search radius is certified by a rational LDL^T factorisation.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


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
    """`values` as a tuple of Fractions, each given as an int or a Fraction.

    A bool, float or string raises ValueError: a float is not exact, and
    "p/q" strings are a CLI format parsed by the CLI alone.  The result holds
    Fractions even for int input, so callers dividing with `/` stay exact.
    """
    values = tuple(values)
    if not all(type(c) is int or type(c) is Fraction for c in values):
        bad = next(c for c in values if type(c) is not int and type(c) is not Fraction)
        raise ValueError(f"expected an integer or Fraction, got {bad!r}")
    return tuple(Fraction(c) for c in values)


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


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


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
    unspecified (callers sort).  The factorisation runs even for a negative
    bound, so a form that is not positive definite always raises ValueError.
    """
    n = len(a)
    diag, lower = ldl(a)
    if bound < 0:
        return []
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
