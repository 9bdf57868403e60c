"""Independent checks of the univariate polynomial module.

sympy (optional) is the oracle for real-root counts and squarefree
decompositions; hypothesis draws products of low-degree factors with forced
repetitions, which random coefficient vectors almost never produce.
"""

from fractions import Fraction

import pytest

from realdp import realroots

sympy = pytest.importorskip("sympy")
st = pytest.importorskip("hypothesis.strategies")
from hypothesis import given, settings  # noqa: E402  (after the skip check)

X = sympy.Symbol("x")
SMALL_INTS = st.integers(-6, 6)
SMALL_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def factored_polynomials(draw, coeffs, domain):
    """A sympy Poly of degree <= 8: a nonzero constant times linear and
    quadratic factors, each raised to a power from 1 to 3."""
    poly = sympy.Poly(draw(coeffs.filter(bool)), X, domain=domain)
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.lists(coeffs, min_size=1, max_size=2))
        factor = sympy.Poly([draw(coeffs.filter(bool))] + low[::-1], X, domain=domain)
        power = draw(st.integers(1, 3))
        if poly.degree() + power * factor.degree() > 8:
            break
        poly *= factor**power
    return poly


def _coefficients(poly):
    """Low-degree-first Python coefficients: ints when integral."""
    out = []
    for c in reversed(poly.all_coeffs()):
        c = sympy.Rational(c)
        out.append(int(c.p) if c.q == 1 else Fraction(int(c.p), int(c.q)))
    return tuple(out)


def _check_against_sympy(poly):
    coeffs = _coefficients(poly)
    profile = realroots.root_profile(coeffs)
    roots = sympy.real_roots(poly)
    _, sqf = poly.sqf_list()
    assert profile.real == len(roots)
    assert profile.distinct == len(set(roots))
    assert profile.squarefree == all(m == 1 for _, m in sqf)
    parts = realroots.squarefree_decomposition(coeffs)
    assert sorted((realroots.degree(g), i) for g, i in parts) == sorted(
        (f.degree(), m) for f, m in sqf
    )
    assert realroots.sturm_count(coeffs) == profile.distinct
    assert realroots.sturm_count(coeffs, with_multiplicity=True) == profile.real


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(factored_polynomials(SMALL_INTS, "ZZ"))
def test_root_profile_matches_sympy_integer(poly):
    _check_against_sympy(poly)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(factored_polynomials(SMALL_RATIONALS, "QQ"))
def test_root_profile_matches_sympy_rational(poly):
    _check_against_sympy(poly)
