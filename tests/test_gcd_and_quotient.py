"""The integer-only gcd, exact quotient and squarefree decomposition of
`realroots` against the arithmetic over Q of `tests/oracles.py`: Euclid's
monic gcd (`gcd_over_q`) and long division (`divmod_poly`), on seeded
products with negative leading coefficients and repeated factors."""

import math
import random
from fractions import Fraction
from itertools import combinations

from realdp import realroots
from realdp.intlinalg import primitive_vector

from oracles import divmod_poly, gcd_over_q


def _factor(rng):
    """An integer polynomial of degree 1 to 3 with either leading sign."""
    low = [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
    return realroots.normalize(low + [rng.choice((-3, -2, -1, 1, 2, 4))])


def _product(rng, factors):
    """A constant of either sign times the factors, each to a power 1 to 3."""
    poly = (rng.choice((-6, -1, 1, 2, 9)),)
    for f in factors:
        for _ in range(rng.choice((1, 1, 2, 3))):
            poly = realroots.mul(poly, f)
    return poly


def _is_int_poly(p):
    return type(p) is tuple and all(type(c) is int for c in p)


def test_gcd_poly_is_the_primitive_part_of_the_gcd_over_q():
    """p = common * a and q = common * b with repeated factors, either
    order, a constant or zero q among them: `gcd_poly` is the monic gcd
    over Q scaled to coprime integers, so its leading coefficient is
    positive."""
    rng = random.Random(20251)
    kinds = set()
    for _ in range(400):
        common = _product(rng, [_factor(rng) for _ in range(rng.randint(0, 2))])
        p = realroots.mul(common, _product(rng, [_factor(rng) for _ in range(rng.randint(0, 3))]))
        q = realroots.mul(common, _product(rng, [_factor(rng) for _ in range(rng.randint(0, 3))]))
        if rng.random() < 0.05:
            q = (0,)
        for a, b in ((p, q), (q, p)):
            got = realroots.gcd_poly(a, b)
            assert _is_int_poly(got) and got[-1] > 0 and math.gcd(*got) == 1, (a, b)
            assert got == primitive_vector(gcd_over_q(a, b)), (a, b)
            if any(b):
                assert realroots.coprime(a, b) == (gcd_over_q(a, b) == (1,)), (a, b)
        kinds.add(min(realroots.degree(realroots.gcd_poly(p, q)), 3))
    assert kinds == {0, 1, 2, 3}


def test_exact_quotient_matches_divmod_poly():
    """A product p = q r of integer polynomials, q primitive: the integer
    long division gives r, the quotient of the division over Q, whose
    remainder is zero."""
    rng = random.Random(20252)
    for _ in range(400):
        q = primitive_vector(_product(rng, [_factor(rng) for _ in range(rng.randint(0, 3))]))
        r = _product(rng, [_factor(rng) for _ in range(rng.randint(0, 3))])
        if rng.random() < 0.2:
            r = (0,) * rng.randint(1, 3) + r  # a root at 0
        p = realroots.mul(q, r)
        quot = realroots._exact_quotient(p, q)
        assert _is_int_poly(quot), (p, q)
        assert (quot, ()) == divmod_poly(p, q) and quot == realroots.normalize(r), (p, q)


def test_exact_quotient_is_none_exactly_on_a_remainder():
    """A primitive q against p = q r + e, e zero or a seeded perturbation
    of degree below, at or above deg q, and p shorter than q: None comes
    back exactly when the division over Q leaves a nonzero remainder, and
    otherwise the quotient over Q, integral by Gauss's lemma."""
    rng = random.Random(20254)
    outcomes = set()
    for _ in range(600):
        q = primitive_vector(_product(rng, [_factor(rng) for _ in range(rng.randint(1, 3))]))
        if q[-1] < 0 and rng.random() < 0.5:
            q = realroots.neg(q)
        p = realroots.mul(q, _product(rng, [_factor(rng) for _ in range(rng.randint(0, 2))]))
        if rng.random() < 0.6:
            e = [rng.randint(-3, 3) for _ in range(rng.randint(1, len(p) + 1))]
            p = realroots.add(p, e)
        if rng.random() < 0.1:
            p = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, len(q) - 1)))
        if not realroots.normalize(p):
            continue
        p = realroots.normalize(p)
        quot, rem = divmod_poly(p, q)
        got = realroots._exact_quotient(p, q)
        assert (got is None) == bool(rem), (p, q)
        if got is not None:
            assert _is_int_poly(got) and got == quot, (p, q)
        outcomes.add((got is None, len(p) < len(q)))
    assert outcomes == {(False, False), (True, False), (True, True)}


def test_squarefree_parts_are_primitive_integer_tuples():
    """Products with repeated factors, as integers and scaled by a Fraction:
    every part is a primitive integer tuple, squarefree and coprime to the
    others over Q, and the parts to their multiplicities multiply back to
    the input up to a constant factor."""
    rng = random.Random(20253)
    repeated = 0
    for _ in range(300):
        poly = _product(rng, [_factor(rng) for _ in range(rng.randint(1, 3))])
        if realroots.degree(poly) < 1:
            continue
        for coeffs in (poly, tuple(Fraction(c, 6) for c in poly)):
            parts = realroots.squarefree_decomposition(coeffs)
            back = (1,)
            for part, i in parts:
                assert _is_int_poly(part) and math.gcd(*part) == 1 and realroots.degree(part) > 0, coeffs
                assert gcd_over_q(part, realroots.derivative(part)) == (1,), coeffs
                for _ in range(i):
                    back = realroots.mul(back, part)
            for (f, _), (g, _) in combinations(parts, 2):
                assert gcd_over_q(f, g) == (1,), coeffs
            assert primitive_vector(back) in (primitive_vector(poly), realroots.neg(primitive_vector(poly))), coeffs
        repeated += any(i > 1 for _, i in parts)
    assert repeated > 100


def test_exact_division_keeps_ints():
    """The oracle's division over Q keeps ints while it divides exactly."""
    quot, rem = divmod_poly(realroots.mul((3, 2), (-1, 5)), (-1, 5))
    assert quot == (3, 2) and rem == ()
    assert all(type(c) is int for c in quot)
    quot, rem = divmod_poly((1, 0, 1), (1, 2))
    assert quot == (Fraction(-1, 4), Fraction(1, 2)) and rem == (Fraction(5, 4),)


def test_remainders_end_after_a_linear_element_in_closed_form():
    """Seeded pairs (a, b), b = b0 + b1 x with b1 of either sign and a of
    degree 1 to 8, with degree gaps, a multiple of b a third of the time:
    after b, `_remainders` yields the negated primitive part of the
    pseudo-remainder of a by b, -1 or 1, read in closed form, and when
    that remainder is zero it yields nothing, so the sequence ends at b."""
    rng = random.Random(3101)
    seen = set()
    for _ in range(800):
        b = (rng.randint(-9, 9), rng.choice((-7, -4, -2, -1, 1, 2, 3, 5)))
        n = rng.randint(1, 8)
        if rng.random() < 1 / 3:
            a = realroots.mul(b, tuple([rng.randint(-6, 6) for _ in range(n - 1)] + [rng.choice((-2, 1, 3))]))
        else:
            a = tuple([rng.choice((0, rng.randint(-20, 20))) for _ in range(n)] + [rng.choice((-3, -1, 1, 2, 5))])
        rem = realroots._pseudo_remainder(a, b)
        expected = [tuple([-c // math.gcd(*rem) for c in rem])] if rem else []
        assert list(realroots._remainders(a, b)) == expected, (a, b)
        seen.add((n % 2, b[1] < 0, expected[0][0] if rem else 0))
    assert seen == {(parity, negative, last) for parity in (0, 1) for negative in (False, True) for last in (-1, 0, 1)}


def test_gcd_poly_returns_a_shared_rational_linear_factor():
    """p and q are multiples of den x - num (num / den in lowest terms), of
    either sign and not primitive, by products of factors, kept when their
    gcd over Q is linear: `gcd_poly` returns den x - num, and the remainder
    sequence of p and q ends at a linear element, the tail's value 0."""
    rng = random.Random(3102)
    kept = 0
    for _ in range(300):
        num, den = rng.randint(-12, 12), rng.randint(1, 9)
        common = math.gcd(num, den)
        factor = (-num // common, den // common)
        p = realroots.mul(factor, _product(rng, [_factor(rng) for _ in range(rng.randint(0, 3))]))
        q = realroots.mul(factor, _product(rng, [_factor(rng) for _ in range(rng.randint(0, 3))]))
        if realroots.degree(gcd_over_q(p, q)) != 1:
            continue
        assert realroots.gcd_poly(p, q) == factor, (p, q)
        a, b = (p, q) if len(p) >= len(q) else (q, p)
        last = b
        for last in realroots._remainders(a, b):
            pass
        assert len(last) == 2, (p, q)
        kept += 1
    assert kept > 250
