"""`realroots.root_profile` (one Sturm chain per multiplicity level of degree
above two, the sign of the discriminant below) against a Sturm chain at
every level, against the squarefree-decomposition reference and against
polynomials built from known factors, the early-exit test
`real_rooted_profile` against `root_profile`, and the integer Sturm chains
against the chains over Q and, element by element, against the
pseudo-division chain through `divmod_poly`.
Needs neither sympy nor hypothesis; sympy, where installed, also counts the
real roots."""

import math
import random
from fractions import Fraction

import pytest

from realdp import realroots
from realdp.intlinalg import primitive_vector

from oracles import (
    _real_rooted_by_whole_chain,
    root_profile_by_chains,
    root_profile_by_decomposition,
    sturm_chain_by_division,
    sturm_sequence_over_q,
)

# Pairwise coprime quadratics without real roots, low degree first.
NONREAL_QUADRATICS = ((1, 0, 1), (2, 0, 1), (1, 1, 1), (1, -2, 2), (Fraction(1, 4), 0, 3))


def _factored(rng):
    """(polynomial, multiplicity of each distinct real root, repeated root)"""
    poly = (Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5))),)
    real = {}
    for _ in range(rng.randint(0, 4)):
        root = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        power = rng.randint(1, 3)
        real[root] = real.get(root, 0) + power
        for _ in range(power):
            poly = realroots.mul(poly, (-root, 1))
    repeated = any(m > 1 for m in real.values())
    for quadratic in rng.sample(NONREAL_QUADRATICS, rng.randint(0, 2)):
        power = rng.randint(1, 3)
        repeated = repeated or power > 1
        for _ in range(power):
            poly = realroots.mul(poly, quadratic)
    return poly, real, repeated


def test_root_profile_matches_decomposition_reference():
    rng = random.Random(20211)
    for _ in range(400):
        poly, real, repeated = _factored(rng)
        expected = realroots.RootProfile(sum(real.values()), len(real), not repeated)
        assert realroots.root_profile(poly) == expected, poly
        assert root_profile_by_decomposition(poly) == expected, poly
        scale = math.lcm(*(c.denominator for c in poly))
        integer = tuple(int(c * scale) for c in poly)  # same roots, int coefficients
        assert realroots.root_profile(integer) == expected, integer


def test_real_rooted_profile_is_root_profile_when_every_root_is_real():
    """Products of linear factors to powers 1 to 3 and of nonreal quadratics,
    so several multiplicity levels occur, with integer coefficients of
    either leading sign."""
    try:
        import sympy
    except ImportError:
        sympy = None
    rng = random.Random(20261)
    real_rooted = 0
    for _ in range(400):
        poly, _, _ = _factored(rng)
        scale = math.lcm(*(c.denominator for c in poly))
        g = tuple(int(c * scale) for c in poly)
        profile = realroots.root_profile(g)
        if profile.real == realroots.degree(g):
            assert realroots.real_rooted_profile(g) == profile, g
            real_rooted += 1
        else:
            assert realroots.real_rooted_profile(g) is None, g
        if sympy is not None:
            x = sympy.Symbol("x")
            roots = sympy.real_roots(sympy.Poly(list(reversed(g)), x))
            assert (len(roots) == realroots.degree(g)) == (realroots.real_rooted_profile(g) is not None)
    assert 50 < real_rooted < 350


def test_real_rooted_profile_of_multiples_with_a_negative_leading_coefficient():
    """The test runs its remainders from g and g' themselves, not from their
    primitive parts, so it meets contents of 2 to 60 and a negative leading
    coefficient: the same profile as `root_profile`, or None exactly when a
    root is not real."""
    rng = random.Random(20262)
    real_rooted = 0
    for _ in range(400):
        poly, _, _ = _factored(rng)
        scale = math.lcm(*(c.denominator for c in poly))
        factor = rng.randint(2, 60) * (-1 if poly[-1] > 0 else 1)
        g = tuple(factor * int(c * scale) for c in poly)
        assert g[-1] < 0 and math.gcd(*g) >= 2
        profile = realroots.root_profile(g)
        if profile.real == realroots.degree(g):
            assert realroots.real_rooted_profile(g) == profile, g
            real_rooted += 1
        else:
            assert realroots.real_rooted_profile(g) is None, g
    assert 50 < real_rooted < 350


def test_quadratics_by_their_discriminant():
    """Every c + b x + a x^2 with |a|, |b|, |c| <= 12 and a != 0, as ints and
    with Fraction coefficients: `root_profile` from the sign of b^2 - 4ac is
    the profile of a Sturm chain at every level, and `real_rooted_profile`
    is None exactly when b^2 - 4ac < 0, else that profile.  Every linear
    polynomial in the box has one simple real root."""
    signs = set()
    for c in range(-12, 13):
        for b in range(-12, 13):
            for a in range(-12, 13):
                if not a:
                    if b:
                        assert realroots.root_profile((c, b)) == (1, 1, True) == realroots.real_rooted_profile((c, b))
                    continue
                disc = b * b - 4 * a * c
                signs.add((disc > 0) - (disc < 0))
                profile = realroots.root_profile((c, b, a))
                assert profile == root_profile_by_chains((c, b, a)), (c, b, a)
                rational = (Fraction(c, 3), Fraction(b, 5), a)
                assert realroots.root_profile(rational) == root_profile_by_chains(rational), rational
                if disc < 0:
                    assert realroots.real_rooted_profile((c, b, a)) is None, (c, b, a)
                else:
                    assert realroots.real_rooted_profile((c, b, a)) == profile, (c, b, a)
    assert signs == {-1, 0, 1}


def test_root_profile_levels_of_degree_two():
    """Lower multiplicity levels of degree one to three, the last level of
    degree at most two read off its discriminant: x^2 (x^2 + 1)^2,
    (x - 1)^3 (x^2 + 1), (x^2 - 2)^2 (x^2 + 1) and x^3 (x^2 - 4)^2 (x + 3)^2."""
    cases = {
        (0, 0, 1, 0, 2, 0, 1): (2, 1, False),
        realroots.mul(realroots.mul((-1, 1), realroots.mul((-1, 1), (-1, 1))), (1, 0, 1)): (3, 1, False),
        realroots.mul(realroots.mul((-2, 0, 1), (-2, 0, 1)), (1, 0, 1)): (4, 2, False),
        realroots.mul(realroots.mul((0, 0, 0, 1), realroots.mul((-4, 0, 1), (-4, 0, 1))), (9, 6, 1)): (9, 4, False),
    }
    for poly, expected in cases.items():
        assert realroots.root_profile(poly) == expected == root_profile_by_chains(poly), poly
        assert realroots.root_profile(poly) == root_profile_by_decomposition(poly), poly


def test_real_rooted_profile_stops_at_the_first_sign_flip(monkeypatch):
    """(t - 1) ... (t - 8) (t^2 + 1): every degree of the Sturm chain occurs,
    but the third remainder flips the leading sign, so the test takes three
    pseudo-remainders where the whole chain takes eight, its last, constant
    element read in closed form.  On (t - 1) ...
    (t - 10), which passes, it takes eight: the sign of the last, constant
    element is read off the quadratic and linear ones."""
    g = (1, 0, 1)
    for root in range(1, 9):
        g = realroots.mul(g, (-root, 1))
    steps = []
    remainder = realroots._pseudo_remainder
    monkeypatch.setattr(realroots, "_pseudo_remainder", lambda a, b: steps.append(1) or remainder(a, b))
    assert [realroots.degree(f) for f in realroots.sturm_sequence(g)] == list(range(10, -1, -1))
    assert len(steps) == 8
    steps.clear()
    assert realroots.real_rooted_profile(g) is None
    assert len(steps) == 3
    steps.clear()
    g = (1,)
    for root in range(1, 11):
        g = realroots.mul(g, (-root, 1))
    assert realroots.real_rooted_profile(g) == (10, 10, True)
    assert len(steps) == 8


def _random_polynomial(rng):
    """A random integer polynomial of degree 3 to 12 from one of five
    families: a product of real linear factors with random multiplicities,
    the same times an irreducible quadratic, a product of one squared
    quadratic and linear factors, a sparse c0 + c1 x^k + x^n with its
    degree gaps, and a dense random one; multiplied by -1 or a random
    factor half of the time."""
    family = rng.choice(("real", "complex", "square", "sparse", "dense"))
    n = rng.randint(3, 12)
    if family == "sparse":
        k = rng.randint(0, n - 2)
        g = [0] * (n + 1)
        g[0], g[k], g[n] = rng.randint(-9, 9), rng.randint(-9, 9), 1
        g = tuple(g) if any(g[:n]) else (1,) + tuple(g[1:])
    elif family == "dense":
        g = tuple([rng.randint(-20, 20) for _ in range(n)] + [rng.choice((-3, -1, 1, 2))])
    else:
        g = (1,)
        if family == "complex":
            g = (rng.randint(1, 9), rng.randint(-1, 1), 1)
        elif family == "square":
            quad = (rng.randint(-9, -1), rng.randint(-3, 3), 1)  # two real roots
            g = realroots.mul(quad, quad)
        while realroots.degree(g) < n:
            root = (rng.randint(-6, 6), rng.randint(1, 3))
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                g = realroots.mul(g, (-root[0], root[1]))
    if rng.random() < 0.5:
        factor = rng.choice((-1, -2, 3, -7))
        g = tuple([factor * c for c in g])
    return g


def test_real_rooted_profile_matches_the_whole_chain():
    """3,000 random polynomials of degree 3 to 12 (`_random_polynomial`):
    the test agrees with the whole primitive Sturm chain, and the cases
    cover chains that end at degree 0, 1 and 2, negative leading
    coefficients, refutations and degree gaps in the chain."""
    rng = random.Random(28)
    seen = {"end 0": 0, "end 1": 0, "end 2": 0, "negative": 0, "refuted": 0, "gap": 0}
    for _ in range(3000):
        g = _random_polynomial(rng)
        expected = _real_rooted_by_whole_chain(g)
        assert realroots.real_rooted_profile(g) == expected, g
        degrees = [realroots.degree(f) for f in realroots.sturm_sequence(primitive_vector(g))]
        if expected is None:
            seen["refuted"] += 1
        else:
            seen[f"end {min(degrees[-1], 3)}"] = seen.get(f"end {min(degrees[-1], 3)}", 0) + 1
        seen["negative"] += g[-1] < 0
        seen["gap"] += any(a - b > 1 for a, b in zip(degrees, degrees[1:]))
    assert min(seen.values()) >= 40, seen


def test_real_rooted_profile_of_constants_and_zero():
    assert realroots.real_rooted_profile((-5,)) == (0, 0, True)
    assert realroots.real_rooted_profile((0, 0, 1)) == (2, 1, False)
    assert realroots.real_rooted_profile((1, 0, 1)) is None
    with pytest.raises(ValueError):
        realroots.real_rooted_profile((0, 0))


def _positive_multiple(p, q):
    """Whether p = c q for a positive rational c."""
    ratio = Fraction(p[-1], q[-1])
    return len(p) == len(q) and ratio > 0 and all(a == ratio * b for a, b in zip(p, q))


def test_sturm_sequence_is_a_positive_multiple_of_the_chain_over_q():
    """On every multiplicity level that `root_profile` visits."""
    rng = random.Random(20211)
    for _ in range(400):
        poly = _factored(rng)[0]
        scale = math.lcm(*(c.denominator for c in poly))
        for coeffs in (poly, tuple(int(c * scale) for c in poly)):
            while realroots.degree(coeffs) > 0:
                chain = realroots.sturm_sequence(primitive_vector(coeffs))
                over_q = sturm_sequence_over_q(coeffs)
                assert len(chain) == len(over_q), coeffs
                for element, reference in zip(chain, over_q):
                    assert all(type(c) is int for c in element), coeffs
                    assert _positive_multiple(element, reference), coeffs
                coeffs = over_q[-1]


def test_sturm_sequence_is_the_division_chain():
    """Random int and Fraction polynomials, products with repeated roots,
    either leading sign, degree gaps and constants, on every multiplicity
    level."""
    rng = random.Random(20263)
    polys = [(1, 0, 0, 0, 1), (-1, 0, 0, 0, 0, 0, 2), (7,), (Fraction(-2, 3),), (0, 0, 0, -5)]
    for _ in range(300):
        low = tuple(rng.randint(-30, 30) for _ in range(rng.randint(1, 9)))
        polys.append(low + (rng.choice((-3, -1, 2, 5)),))
        low = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(1, 7)))
        polys.append(low + (Fraction(-1, 2),))
        poly, _, _ = _factored(rng)
        polys += [poly, realroots.neg(poly)]
    for poly in polys:
        coeffs = realroots.normalize(poly)
        while True:
            chain = realroots.sturm_sequence(primitive_vector(coeffs))
            assert chain == sturm_chain_by_division(coeffs), coeffs
            assert all(type(c) is int for element in chain for c in element), coeffs
            if realroots.degree(chain[-1]) < 1:
                break
            coeffs = chain[-1]


def test_root_profile_of_constants_and_zero():
    assert realroots.root_profile((5,)) == (0, 0, True)
    assert realroots.root_profile((Fraction(-1, 3), 0, 0)) == (0, 0, True)
    with pytest.raises(ValueError):
        realroots.root_profile((0, 0))
