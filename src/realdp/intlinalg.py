"""Exact integer linear algebra; no floating point is ever used.

Matrices are sequences of rows in row-major order; the catalogue stores its
embeddings and conjugations as tuples of row tuples.  This leaf module holds
`Value`, the base of the library's immutable value types, and the routines
that back the lattice layer: the strict integer and rational checks every
library constructor applies to its input, the primitive integer
representative of a rational vector, the one named dot product of the
library (`dot`; `mat_vec` and `ClassVector.dot`, which serve every class
query, write the row product inline instead of calling it per row), the one
determinant, for small matrices, and a Fincke-Pohst enumeration over the
integers certified by the leading principal minors of a fraction-free
(Bareiss) elimination.  `fincke_pohst` runs the elimination once per form
and keeps its rows, minors and weights in a `FinckePohst` record, which
every enumeration of that form walks.  The enumeration recurses once per
coordinate, so its depth is the rank, through the module-level `_descend`,
which no call leaves in a reference cycle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import NamedTuple


class Value:
    """Base of the library's immutable value types.

    A subclass's annotated names are its fields.  Its constructor takes them
    by position or by name, sets them and runs the subclass's
    `__post_init__`, which checks them and may normalise them with
    `object.__setattr__`; afterwards assignment raises AttributeError.
    Equality, hash and repr read the fields alone (the hash is that of their
    tuple), so a value a `cached_property` keeps on the instance changes none.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        # Compiled once per class: a generic `*args` constructor is a third
        # slower, and a ClassVector is built per enumerated lattice point.
        sets = "".join(f"_set(self, {name!r}, {name}); " for name in cls._fields)
        namespace = {"_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(cls._fields)}): {sets}self.__post_init__()", namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = namespace["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


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
    g = gcd(*[c.numerator for c in values])
    den = lcm(*[c.denominator for c in values])
    return tuple([c.numerator // g * (den // c.denominator) for c in values])


def dot(u, v):
    """sum_i u_i v_i for two vectors of one length."""
    return sum(map(mul, u, v))


def mat_vec(a, v):
    """The product a v; each row is paired with v inline, with no call."""
    return [sum(map(mul, row, v)) for row in a]


def determinant(a):
    """Determinant of a square matrix of ints or Fractions, the one of the
    library: closed form at 3 x 3, else expansion along the first row with
    zero entries skipped, down to 3 x 3 minors; enough for the real pairing
    matrices of the catalogue, of rank at most 5, and the maximal minors of
    the normals of a subspace in `topology`."""
    if len(a) == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    if not a:
        return 1
    return sum(
        (-1) ** j * x * determinant([row[:j] + row[j + 1:] for row in a[1:]])
        for j, x in enumerate(a[0])
        if x
    )


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


class FinckePohst(NamedTuple):
    """A positive definite integer form a, prepared once for any number of
    `enumerate_quadratic` calls by `fincke_pohst`.

    `rows` are the Bareiss rows r of a and `minors` their pivots, the leading
    principal minors D_1, ..., D_n: all positive, they certify that a is
    positive definite.  With D_0 = 1,
    v^T a v = sum_k (sum_{j>=k} r[k][j] v_j)^2 / (D_k D_(k+1)); `scale` is
    the lcm of the denominators D_k D_(k+1) and `weights[k]` is
    scale / (D_k D_(k+1)), so scale v^T a v is an integer sum of weighted
    squares.
    """
    rows: tuple
    minors: tuple
    weights: tuple
    scale: int


def fincke_pohst(a) -> FinckePohst:
    """The Fincke-Pohst set-up of a symmetric integer matrix `a`.  The
    elimination raises ValueError unless `a` is positive definite, whatever
    bound it is later searched with."""
    rows = _bareiss(a)
    minors = tuple([rows[k][k] for k in range(len(a))])
    products = [d * e for d, e in zip((1,) + minors, minors)]
    scale = lcm(*products)
    return FinckePohst(tuple(map(tuple, rows)), minors, tuple([scale // p for p in products]), scale)


def enumerate_quadratic(form: FinckePohst, bound):
    """All integer vectors v with v^T a v <= bound, for the positive definite
    form a that `form` prepares.

    The search walks the stored set-up and computes no elimination, minor or
    lcm: scaled by `form.scale`, each coordinate's range needs only isqrt
    and floor division.  `_descend` fixes one coordinate per call, so the
    recursion is as deep as the rank; it is a module-level function, not a
    closure over itself, so no call leaves a reference cycle.  The output
    includes the zero vector and both members of each +-v pair; order is
    unspecified (callers sort).  A negative bound gives no vector.
    """
    if bound < 0:
        return []
    n = len(form.rows)
    results = []
    _descend(form.rows, form.weights, [0] * n, n - 1, form.scale * bound, results)
    return results


def _descend(rows, weights, v, k, budget, results):
    """Set v_k to each integer m with weights[k] (D_(k+1) m + c)^2 <= budget,
    where c is sum_{j>k} rows[k][j] v_j, and search coordinates k - 1 down to
    0 with what is left of the budget; each complete v goes to `results`."""
    p = rows[k][k]
    c = dot(rows[k][k + 1:], v[k + 1:])
    r = isqrt(budget // weights[k])
    for m in range(-((r + c) // p), (r - c) // p + 1):
        v[k] = m
        if k:
            s = p * m + c
            _descend(rows, weights, v, k - 1, budget - weights[k] * s * s, results)
        else:
            results.append(tuple(v))
