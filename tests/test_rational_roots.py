"""`realroots.rational_roots` (Sturm isolation on the lattice n / lc) against the
divisor trial division it replaced and against the search that bisects at
midpoints, on polynomials built from known factors: the same root sets, each
root's multiplicity, and the cofactor that the linear factors multiply back
to the polynomial; the closed form below degree three on every quadratic
of a coefficient box, and the search that stops at a cofactor of degree
two; the `conic discriminant` cases whose constant terms that
trial division could not factor; and `realroots.deflate`, the exact division
by a linear factor, against the long division over Q of
`oracles.divmod_poly`."""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from realdp import realroots
from realdp.cli import main
from realdp.conic import analyze, construct_section, discriminant, factored_str

from oracles import divmod_poly, rational_roots_by_bisection, rational_roots_by_divisors

# Irreducible over Q: two without real roots, two with irrational real roots.
QUADRATICS = ((1, 0, 1), (2, 1, 3), (-2, 0, 1), (-7, 2, 3))


def _by_size(roots):
    """The order of the divisor loops: (|P|, Q), the positive root first."""
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def assert_roots_divide_out(poly, expected):
    """`rational_roots(poly)` gives each root of `expected` once, in lowest
    terms with a positive denominator and with its multiplicity, and the
    factors (den x - num)^mult times the cofactor give back the polynomial.
    Returns the roots found."""
    roots, cofactor = realroots.rational_roots(poly)
    assert {Fraction(num, den): mult for num, den, mult in roots} == expected, poly
    assert len(roots) == len(expected), poly
    product = cofactor
    for num, den, mult in roots:
        assert den > 0 and math.gcd(num, den) == 1, poly
        for _ in range(mult):
            product = realroots.mul(product, (-num, den))
    assert product == realroots.normalize(poly), poly
    return {Fraction(num, den) for num, den, _ in roots}


def _factored(rng):
    """(integer polynomial, {rational root: multiplicity}) from linear
    factors Q x - P with repeated roots, +-P/Q pairs and one |P| over several
    Q, times irreducible quadratics and a content."""
    poly = (rng.choice((1, -1, 2, -6)),)
    numerator = rng.choice((1, 2, 3, 4, 6))
    roots = {Fraction(rng.choice((-1, 1)) * numerator, q) for q in rng.sample((1, 2, 3, 5), rng.randint(1, 3))}
    for _ in range(rng.randint(0, 2)):
        root = Fraction(rng.choice((1, 2, 3, 4, 6)), rng.choice((1, 2, 3, 5)))
        roots.update((root, -root) if rng.random() < 0.5 else (root,))
    multiplicity = {}
    for root in roots:
        multiplicity[root] = rng.choice((1, 1, 1, 2, 3)) if len(roots) < 4 else 1
        for _ in range(multiplicity[root]):
            poly = realroots.mul(poly, (-root.numerator, root.denominator))
    for quadratic in rng.sample(QUADRATICS, rng.randint(0, 2)):
        poly = realroots.mul(poly, quadratic)
    return poly, multiplicity


def test_rational_roots_match_divisor_trial_division():
    rng = random.Random(6061)
    for _ in range(150):
        poly, multiplicity = _factored(rng)
        found = assert_roots_divide_out(poly, multiplicity)
        assert set(rational_roots_by_divisors(realroots.primitive_part(poly)[1])) == found, poly


def _with_roots(rng, roots, quadratics):
    """(integer polynomial, {rational root: multiplicity}): the linear
    factors of the roots, each now and then repeated, times the quadratics
    and a content."""
    poly = (rng.choice((1, -1, 3, -10)),)
    multiplicity = {}
    for root in roots:
        multiplicity[root] = rng.choice((1, 1, 1, 2, 3))
        for _ in range(multiplicity[root]):
            poly = realroots.mul(poly, (-root.numerator, root.denominator))
    for quadratic in quadratics:
        poly = realroots.mul(poly, quadratic)
    return poly, multiplicity


def _irreducible_quadratic(rng, monic):
    while True:
        c, b, a = rng.randint(-30, 30), rng.randint(-30, 30), 1 if monic else rng.randint(1, 12)
        if c and math.gcd(a, b, c) == 1 and (b * b - 4 * a * c < 0 or math.isqrt(b * b - 4 * a * c) ** 2 != b * b - 4 * a * c):
            return (c, b, a)


def _clustered(rng):
    """Roots p/q, q <= 49, near one centre between 1/2500 and 10^4 (log
    uniform); below 1/49 the denominators carry a further factor 50."""
    centre = math.exp(rng.uniform(math.log(1 / 2500), math.log(10**4)))
    scale = 1 if centre >= 1 / 49 else 50
    sign = rng.choice((-1, 1))
    roots = set()
    for _ in range(rng.randint(1, 5)):
        q = rng.randint(1, 49) * scale
        p = max(1, round(centre * q) + rng.randint(-2, 2))
        roots.add(Fraction(sign * p, q) if rng.random() < 0.9 else Fraction(-sign * p, q))
    quadratics = [_irreducible_quadratic(rng, False) for _ in range(rng.randint(0, 2))]
    return _with_roots(rng, roots, quadratics)


def _on_split_points(rng):
    """Roots on split points n / lc of the search, n = 0, +-2^k or +-3 2^k.
    The quadratics are monic and the roots dyadic, so lc is a power of two
    and every root is on a split point; or one more root 2^k / q with q odd
    makes lc = q 2^j, and that root is on a split point."""
    pool = [Fraction(0)]
    pool += [Fraction(s * m << k) for s in (-1, 1) for m in (1, 3) for k in range(15)]
    pool += [Fraction(s, 1 << k) for s in (-1, 1) for k in range(1, 7)]
    roots = set(rng.sample(pool, rng.randint(1, 5)))
    if rng.random() < 0.5:
        roots.add(Fraction(rng.choice((-1, 1)) << rng.randint(0, 12), rng.choice((3, 5, 7, 9, 25, 49))))
    quadratics = [_irreducible_quadratic(rng, True) for _ in range(rng.randint(0, 2))]
    return _with_roots(rng, roots, quadratics)


def test_rational_roots_match_the_midpoint_bisection():
    """2,400 seeded polynomials: clustered roots of all sizes, roots on split
    points, repeated roots and irreducible quadratic factors."""
    rng = random.Random(20214)
    for _ in range(1200):
        for build in (_clustered, _on_split_points):
            poly, multiplicity = build(rng)
            found = assert_roots_divide_out(poly, multiplicity)
            assert set(rational_roots_by_bisection(poly)) == found, poly


@pytest.mark.parametrize(
    "poly, roots",
    [
        # roots on bisection points of the grid
        (realroots.mul(realroots.mul((2, 1), (1, 2)), (-2, 1)), {"-1/2": 1, "2": 1, "-2": 1}),
        # sqrt(2) = 1.41421... next to 7/5 and 141/100
        (realroots.mul(realroots.mul((-2, 0, 1), (-7, 5)), (-141, 100)), {"7/5": 1, "141/100": 1}),
        # (x + 1)(2x^2 - 2x - 5): the fraction with denominator <= 2 nearest
        # the root (1 - sqrt(11))/2 = -1.158... is the root -1
        ((10, 14, 0, -4), {"-1": 1}),
        ((3, 2), {"-3/2": 1}),
        # a denominator of 61 bits, next to a root of denominator 1
        (realroots.mul(realroots.mul((-5, 2**61 - 1), (1, 1)), (1, 0, 1)), {"-1": 1, "5/2305843009213693951": 1}),
        ((-4, 6), {"2/3": 1}),
        ((0, -1, 1), {"0": 1, "1": 1}),
        ((0, 0, 0, 5), {"0": 3}),
        # (x - 1)^2 (x + 1) and (2x - 3)^3 (x^2 + 1)
        ((1, -1, -1, 1), {"1": 2, "-1": 1}),
        (realroots.mul((1, 0, 1), (-27, 54, -36, 8)), {"3/2": 3}),
        ((1, 0, 1), {}),
        ((5,), {}),
        ((-3, 0, 0), {}),
    ],
)
def test_rational_roots_edge_cases(poly, roots):
    assert_roots_divide_out(poly, {Fraction(r): mult for r, mult in roots.items()})


def _roots_by_divisors(poly):
    """`rational_roots_by_divisors`, with the root 0 of a zero constant
    term."""
    zeros = next(i for i, c in enumerate(poly) if c)
    roots = set(rational_roots_by_divisors(poly[zeros:])) if len(poly) - zeros > 1 else set()
    return roots | {Fraction(0)} if zeros else roots


def test_quadratics_and_linear_polynomials_in_closed_form(monkeypatch):
    """Every c + b x + a x^2 with |a|, |b|, |c| <= 12 and a != 0, and every
    linear c + b x in the box: the roots of the rational root test, double
    exactly when b^2 - 4ac = 0, each divided out of the polynomial, and no
    Sturm chain built."""
    def no_chain(*args):
        raise AssertionError("a Sturm chain was built")

    monkeypatch.setattr(realroots, "sturm_sequence", no_chain)
    kinds = set()
    for c in range(-12, 13):
        for b in range(-12, 13):
            for a in range(-12, 13):
                poly = realroots.normalize((c, b, a))
                if realroots.degree(poly) < 1:
                    continue
                double = a and b * b - 4 * a * c == 0
                expected = {root: 2 if double else 1 for root in _roots_by_divisors(poly)}
                assert_roots_divide_out(poly, expected)
                kinds.add((realroots.degree(poly), len(expected), bool(double)))
    assert kinds == {(1, 1, False), (2, 0, False), (2, 1, True), (2, 2, False)}


def test_low_degree_cofactor_is_read_off_as_deflation_leaves_it():
    """Seeded linears and quadratics with rational roots, a third of the
    quadratics with a double root, each times a constant of either sign, so
    not primitive when the constant or a root's unreduced fraction has a
    factor: `_low_degree_roots` finds every root with its multiplicity, and
    the cofactor it reads off the leading coefficient is the one that
    dividing each root out by `deflate` leaves."""
    rng = random.Random(3103)
    kinds = set()
    for _ in range(600):
        pairs = [(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(rng.randint(1, 2))]
        if len(pairs) == 2 and rng.random() < 1 / 3:
            pairs[1] = pairs[0]
        poly = (rng.choice((-6, -2, -1, 1, 3, 4)),)
        for num, den in pairs:
            poly = realroots.mul(poly, (-num, den))
        roots, cofactor = realroots._low_degree_roots(poly, [])
        assert sorted(Fraction(num, den) for num, den, mult in roots for _ in range(mult)) == sorted(
            Fraction(num, den) for num, den in pairs), poly
        deflated = poly
        for num, den, mult in roots:
            for _ in range(mult):
                deflated = realroots.deflate(deflated, num, den)
        assert cofactor == deflated and len(cofactor) == 1, poly
        kinds.add((len(pairs), len(roots), poly[-1] < 0, math.gcd(*poly) > 1))
    assert kinds == {(degree, count, negative, wide) for degree, count in ((1, 1), (2, 1), (2, 2))
                     for negative in (False, True) for wide in (False, True)}


def test_search_stops_at_a_cofactor_of_degree_two(monkeypatch):
    """Products of 3 to 6 rational linear factors, some repeated, times 1, a
    constant or an irreducible quadratic: the roots of the midpoint
    bisection, each with its multiplicity.  The search stops once the
    cofactor left has degree two, so on four or six distinct simple roots it
    isolates two or four and the closed form finds the other two."""
    rng = random.Random(20231)
    for _ in range(600):
        roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(3, 6))]
        if rng.random() < 0.4:
            roots[-1] = roots[0]
        poly = rng.choice(((1,), (rng.choice((-6, -1, 2, 15)),), rng.choice(QUADRATICS)))
        multiplicity = {}
        for root in roots:
            multiplicity[root] = multiplicity.get(root, 0) + 1
            poly = realroots.mul(poly, (-root.numerator, root.denominator))
        found = assert_roots_divide_out(poly, multiplicity)
        assert set(rational_roots_by_bisection(poly)) == found, poly
    isolated, isolate = [], realroots._isolate
    monkeypatch.setattr(realroots, "_isolate", lambda *args: isolated.append(args) or isolate(*args))
    for roots, searched in (((1, 2, 3, 4), 2), ((-3, Fraction(1, 2), 5, Fraction(-7, 3), 8, 11), 4)):
        isolated.clear()
        poly = (1,)
        for root in map(Fraction, roots):
            poly = realroots.mul(poly, (-root.numerator, root.denominator))
        assert_roots_divide_out(poly, {Fraction(root): 1 for root in roots})
        assert len(isolated) == searched


def test_rational_roots_of_zero_polynomial_raises():
    with pytest.raises(ValueError):
        realroots.rational_roots((0, 0))


@pytest.mark.parametrize(
    "constant, rendered",
    [
        (2**43 - 1, "(u - v)*(u + v)*(u - 2*v)*(u + 2*v)*(u^2 + 8796093022207*v^2)"),
        (2**61 - 1, "(u - v)*(u + v)*(u - 2*v)*(u + 2*v)*(u^2 + 2305843009213693951*v^2)"),
    ],
)
def test_conic_discriminant_with_large_constant_term(capsys, tmp_path, constant, rendered):
    """diag(u^2 + c v^2, u^2 - v^2, u^2 - 4 v^2): the divisor loops ran to
    sqrt(c), 0.4 s for the 43-bit c and past 20 s for the 61-bit one."""
    forms = ([constant, 0, 1], [-1, 0, 1], [-4, 0, 1])
    entries = [[{"degree": 2, "coeffs": forms[i] if i == j else [0, 0, 0]} for j in range(3)] for i in range(3)]
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"splitting": [1, 1, 1], "entries": entries}))
    start = time.perf_counter()
    code = main(["conic", "discriminant", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 0
    assert capsys.readouterr().out == rendered + "\n"


def test_degree_twelve_section_with_an_81_bit_constant_term():
    """The degree-12 diagonal section on the numerators 33 and the primes
    97 to 149 over the denominators 1, 5, 7, 25 and 49."""
    numerators = (33, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149)
    denominators = (1, 5, 7, 25, 49, 1, 5, 7, 25, 49, 1, 5)
    signs = (1, -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1)
    roots = [Fraction(s * p, q) for s, p, q in zip(signs, numerators, denominators)]
    start = time.perf_counter()
    matrix = construct_section(2, 2, 2, [roots[0:4], roots[4:8], roots[8:12]])
    disc = discriminant(matrix)
    rendered = factored_str(disc)
    result = analyze(matrix)
    assert time.perf_counter() - start < 1
    assert abs(disc.coeffs[0]).bit_length() == 81
    factors = []
    for root in _by_size(roots):
        lead = "u" if root.denominator == 1 else f"{root.denominator}*u"
        factors.append(f"({lead} {'-' if root > 0 else '+'} {abs(root.numerator)}*v)")
    assert rendered == "*".join(factors)
    assert (result.total_fibers, result.real_fibers, result.squarefree, result.s) == (12, 12, True, 6)


def test_deflate_matches_divmod_poly():
    """Divisible and non-divisible integer polynomials, linear factors
    den x - num with negative num, den > 1, num = 0 and num/den not in
    lowest terms, and polynomials with a zero constant term."""
    rng = random.Random(20265)
    for _ in range(500):
        num, den = rng.randint(-12, 12), rng.randint(1, 9)
        poly = tuple(rng.randint(-20, 20) for _ in range(rng.randint(0, 6))) + (rng.choice((-4, 1, 3)),)
        if rng.random() < 0.3:
            poly = (0,) + poly
        if rng.random() < 0.6:
            poly = realroots.mul(poly, (-num, den))
        quot, rem = divmod_poly(poly, (-num, den))
        integral = not rem and all(type(c) is int for c in quot)
        assert realroots.deflate(poly, num, den) == (quot if integral else None), (poly, num, den)
    assert realroots.deflate((-6, 1, 1), -3, 1) == (-2, 1)  # (x + 3)(x - 2)
    assert realroots.deflate((0, -3, 2), 3, 2) == (0, 1)  # x (2x - 3)
    assert realroots.deflate((-3, 2), 3, 2) == (1,)
    assert realroots.deflate((-3, 4), 3, 2) is None  # (4x - 3) / (2x - 3) is not a polynomial
    assert realroots.deflate((-2, 0, 4), 1, 2) is None  # 4x^2 - 2 = (2x - 1)(2x + 1) - 1
