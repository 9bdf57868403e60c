"""sympy (optional) as the oracle for conic-bundle discriminants: the
discriminant is the determinant of the section matrix, and its factored
rendering expands back to it."""

import random
from fractions import Fraction

import pytest

from realdp import conic

from conftest import degenerate_fiber_matrix, worked_conic_matrix

sympy = pytest.importorskip("sympy")

U, V = sympy.symbols("u v")
SPLITTINGS = ((0, 1, 1), (1, 1, 1), (0, 1, 2), (1, 1, 2))


def _expr(form):
    return sum(c * U**i * V ** (form.degree - i) for i, c in enumerate(form.coeffs))


def _general_section(rng):
    a = rng.choice(SPLITTINGS)
    entries = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            d = a[i] + a[j]
            entries[i][j] = entries[j][i] = conic.BinaryForm(d, tuple(rng.randint(-3, 3) for _ in range(d + 1)))
    return conic.ConicMatrix(a, tuple(tuple(row) for row in entries))


def _constructed_section(rng):
    split = [rng.randint(1, 2) for _ in range(3)]
    pool = rng.sample(sorted({Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3, 7)}), 2 * sum(split))
    lists, start = [], 0
    for a in split:
        lists.append(pool[start:start + 2 * a])
        start += 2 * a
    return conic.construct_section(*split, lists)


def _sections():
    rng = random.Random(2021)
    worked = [worked_conic_matrix(), degenerate_fiber_matrix()]
    return worked + [_general_section(rng) for _ in range(25)] + [_constructed_section(rng) for _ in range(25)]


@pytest.mark.parametrize("matrix", _sections())
def test_discriminant_is_the_determinant_and_its_rendering_expands_to_it(matrix):
    disc = conic.discriminant(matrix)
    det = sympy.Matrix(3, 3, [_expr(q) for row in matrix.entries for q in row]).det()
    assert sympy.expand(det - _expr(disc)) == 0
    rendered = sympy.sympify(conic.factored_str(disc).replace("^", "**"), locals={"u": U, "v": V})
    assert sympy.expand(rendered - _expr(disc)) == 0
