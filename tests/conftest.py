"""Shared fixtures and exact-geometry helpers for the test suite."""

from fractions import Fraction

import pytest

from realdp.topology import GreatSubsphere, HypersurfaceSpec, PLCycle
from realdp.conic import BinaryForm, diagonal_matrix

from oracles import mat_inverse, mat_mul


def sphere_quadric():
    """x1^2 + x2^2 + x3^2 - x0^2: real part is the unit sphere in the x0 = 1 chart."""
    return HypersurfaceSpec(
        2,
        (
            ((0, 2, 0, 0), 1),
            ((0, 0, 2, 0), 1),
            ((0, 0, 0, 2), 1),
            ((2, 0, 0, 0), -1),
        ),
    )


def empty_quadric():
    return HypersurfaceSpec(
        2,
        (((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1), ((0, 0, 0, 2), 1)),
    )


def form_product(p, q):
    """The product of two forms stored as {exponents: coefficient} dicts."""
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def nested_spheres(*radii):
    """The product of the spheres x1^2 + x2^2 + x3^2 = r^2 in the x0 = 1 chart."""
    form = {(0, 0, 0, 0): 1}
    for r in radii:
        form = form_product(form, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (2, 0, 0, 0): -r * r})
    return form


def square_cycle(radius, shift=0):
    """PL oval (a square) of the given radius around (shift, 0) in the x0 = 1
    chart of RP^2; vertices avoid the coordinate walls."""
    r = Fraction(radius)
    pts = [
        (1, r + shift, r),
        (1, -r + shift, r),
        (1, -r + shift, -r),
        (1, r + shift, -r),
    ]
    return PLCycle(2, "sphere", tuple(pts))


def pseudoline_cycle():
    """A PL model of a projective line in general position."""
    return PLCycle(
        2, "antipode",
        ((1, Fraction(1, 3), Fraction(1, 7)), (Fraction(-1, 5), 1, Fraction(1, 2))),
    )


def chart_origin():
    """The point [1:0:0] of RP^2 as a codimension-2 subspace."""
    return GreatSubsphere(2, ((0, 1, 0), (0, 0, 1)))


def chart_axis():
    """A line of RP^2 through the chart origin."""
    return GreatSubsphere(2, ((0, 0, 1),))


def refine_cycle(cycle, weight=2):
    """Insert an interior point (weight*p + q as rays) on every segment."""
    pts = list(cycle.points)
    out = []
    n = len(pts)
    for i, p in enumerate(pts):
        out.append(p)
        if cycle.closure == "sphere":
            q = pts[(i + 1) % n]
        else:
            q = pts[i + 1] if i + 1 < n else tuple(-x for x in pts[0])
        out.append(tuple(weight * a + b for a, b in zip(p, q)))
    return PLCycle(cycle.ambient, cycle.closure, tuple(out))


def cayley_rotation(rng, n):
    """Random rational rotation (I - S)(I + S)^-1 for a small skew matrix S."""
    skew = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            skew[i][j], skew[j][i] = val, -val
    i_plus = [[Fraction(int(i == j)) + skew[i][j] for j in range(n)] for i in range(n)]
    i_minus = [[Fraction(int(i == j)) - skew[i][j] for j in range(n)] for i in range(n)]
    return mat_mul(i_minus, mat_inverse(i_plus))


def rotate_vector(rot, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in rot)


def rotate_cycle(rot, cycle):
    return PLCycle(cycle.ambient, cycle.closure, tuple(rotate_vector(rot, p) for p in cycle.points))


def rotate_subspace(rot, sub):
    # Points transform by R, so normals transform by (R^-1)^T = R.
    return GreatSubsphere(sub.ambient, tuple(rotate_vector(rot, n) for n in sub.normals))


def worked_conic_matrix():
    """diag(uv, u^2 - v^2, u^2 - 4v^2) with splitting (1, 1, 1)."""
    return diagonal_matrix(
        (1, 1, 1),
        (
            BinaryForm(2, (0, 1, 0)),
            BinaryForm(2, (-1, 0, 1)),
            BinaryForm(2, (-4, 0, 1)),
        ),
    )


def degenerate_fiber_matrix():
    """diag(1, 1, u^3 v - u v^3) with splitting (0, 0, 2): fibers at -1, 0, 1, infinity."""
    return diagonal_matrix(
        (0, 0, 2),
        (
            BinaryForm(0, (1,)),
            BinaryForm(0, (1,)),
            BinaryForm(4, (0, -1, 0, 1, 0)),
        ),
    )


def assert_value_semantics(build, fields, changed, cached=None):
    """The contract of an immutable value type.

    Two values from `build()` are equal, with equal hashes and reprs; the
    hash is that of the tuple of `fields` and the repr is
    `Name(field=value, ...)`.  `changed`, a value with one field changed,
    compares unequal.  Assigning or deleting a field raises AttributeError.
    `cached`, the name of a value a `cached_property` keeps on the
    instance, once computed leaves equality, hash and repr alone.
    """
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(getattr(a, name) for name in fields))
    values = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == repr(b) == f"{type(a).__name__}({values})"
    assert a != changed and not a == changed
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and repr(a) == repr(b)
    if cached is not None:
        before = repr(a), hash(a)
        getattr(a, cached)
        assert cached in vars(a) and cached not in vars(b)
        assert a == b and (repr(a), hash(a)) == before == (repr(b), hash(b))
