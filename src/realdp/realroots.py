"""Univariate integer polynomials and exact real-root counting.

The one module with univariate polynomial arithmetic.  Polynomials are tuples
of int coefficients, low degree first, trailing zeros stripped; every
division is exact over Z, and the root counts scale a rational input to its
primitive integer multiple, which keeps every root.  A polynomial of degree
at most two gets every answer in closed form: the sign of its discriminant
b^2 - 4ac gives its real-root counts (`_low_degree_profile`, for
`root_profile` and `real_rooted_profile`), and one `math.isqrt` of it its
rational roots (`_low_degree_roots`).  Above degree two, `root_profile` runs
one Sturm chain per multiplicity level of degree above two, which gives the
real-root count with multiplicity, the distinct count and the squarefree flag
together.  Sturm chains hold primitive integer polynomials, each a positive
multiple of the classical chain's element, since the counts read only signs.
They are division-free: each remainder is an integer pseudo-remainder, and
one gcd removes its content, except that every sequence ends in closed form:
the constant after a linear element is the sign of the element before it at
the linear one's root (`_remainders`).  The same primitive remainder
sequence, run on two polynomials, ends in their gcd (`gcd_poly`), a constant
exactly when they are coprime.  By Gauss's lemma an exact quotient of
primitive polynomials is integral (`_exact_quotient`).
`real_rooted_profile`, the test whether every root is real, stops at the
first remainder that breaks the full-length pattern (degrees falling by one,
leading coefficients of one sign).
`rational_roots` isolates the real roots with the same chains on the lattice
n / lc, lc the leading coefficient.  It splits an interval at 0 when it
straddles 0 and at a power of two when its ends lie far apart on one side, so
a root of b bits is reached in about log b steps before plain bisection takes
over.  The chain is scaled to the lattice once, highest degree first with a
running power of lc, and every sign on the lattice comes from an inline
integer Horner loop, so the search makes no call per evaluation; its counts
at the ends of the first interval are those at -infinity and +infinity, read
off leading coefficients as in `root_profile`.  `deflate` divides a rational
root out by exact integer long division, once per root found, so
`rational_roots` returns each root's multiplicity and the cofactor, which
keeps no rational root; the search stops once that cofactor has degree at
most two and reads its roots off in closed form, and with them its constant
cofactor, the leading coefficient over a product of denominators.
`root_profile` and `rational_roots` take a chain their caller already holds,
so one chain serves both questions about one polynomial; `conic` keeps the
chain of each part of degree above two of a discriminant on its form, built
by `sturm_sequence` from the primitive part with no second content pass.

Tuples on hot paths are built from lists, not generators: CPython 3.11
builds a tuple from a generator at size ten and shrinks it, which moves
tuples from one per-size free list into the others, and after a few
thousand calls these hold about 2 MB.
"""

from __future__ import annotations

from math import gcd, isqrt
from operator import ne
from typing import NamedTuple

from .intlinalg import primitive_vector


def normalize(coeffs):
    p = list(coeffs)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def degree(p) -> int:
    """Degree of a normalised polynomial; the zero polynomial has degree -1."""
    return len(p) - 1


def add(p, q):
    if len(p) < len(q):
        p, q = q, p
    return normalize([a + q[i] if i < len(q) else a for i, a in enumerate(p)])


def neg(p):
    return tuple([-c for c in p])


def mul(p, q):
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return normalize(out)


def derivative(p):
    return normalize([i * c for i, c in enumerate(p)][1:])


def deflate(p, num: int, den: int):
    """The quotient of a nonzero integer polynomial p by den x - num, den > 0,
    when it divides p over Z, else None.  For num / den in lowest terms
    den x - num is primitive, so None means that num / den is not a root."""
    return _exact_quotient(p, (-num, den))


def _exact_quotient(p, q):
    """p / q for nonzero integer polynomials when q divides p over Z, else
    None.  By Gauss's lemma a primitive q that divides p over Q divides it
    over Z.

    Long division from the top coefficient, each quotient coefficient an
    integer division by lc(q): a remainder there, or a nonzero coefficient
    left below deg q at the end, means that q does not divide p over Z.
    """
    lead, dq = q[-1], len(q) - 1
    rem = list(p)
    quot = []
    while len(rem) > dq:
        c, r = divmod(rem.pop(), lead)
        if r:
            return None
        quot.append(c)
        k = len(rem) - dq
        for i in range(dq):
            rem[k + i] -= c * q[i]
    if any(rem):
        return None
    quot.reverse()
    return tuple(quot)


def primitive_part(p):
    """(c, q) with p = c q for a nonzero integer polynomial p, where q has
    coprime coefficients and a positive leading coefficient."""
    p = normalize(p)
    q = primitive_vector(p)
    if q[-1] < 0:
        q = neg(q)
    return p[-1] // q[-1], q


def gcd_poly(p, q):
    """The greatest common divisor of two integer polynomials, not both
    zero: the last element of their primitive remainder sequence, as a
    primitive polynomial with a positive leading coefficient."""
    a, b = normalize(p), normalize(q)
    if len(a) < len(b):
        a, b = b, a
    for b in _remainders(a, b):
        pass
    return primitive_part(b or a)[1]


def coprime(p, q) -> bool:
    """Whether two nonzero integer polynomials have no common root over C."""
    return degree(gcd_poly(p, q)) == 0


def squarefree_decomposition(p):
    """[(g_i, i)] with p = c * prod g_i^i, the g_i primitive, squarefree
    and coprime.

    One gcd with the derivative settles a squarefree p; each further
    multiplicity level costs one more gcd (Musser's algorithm)."""
    p = normalize(p)
    if degree(p) < 1:
        return []
    p = primitive_vector(p)
    out = []
    t = gcd_poly(p, derivative(p))
    v = _exact_quotient(p, t)
    i = 1
    while degree(t) > 0:
        w = gcd_poly(t, v)
        part = _exact_quotient(v, w)
        if degree(part) > 0:
            out.append((part, i))
        v = w
        t = _exact_quotient(t, w)
        i += 1
    if degree(v) > 0:
        out.append((v, i))
    return out


def _pseudo_remainder(a, b):
    """A positive multiple of the remainder of a by b over Q, for integer
    polynomials with deg b >= 0; a itself when deg a < deg b.

    Each step cancels the top coefficient of rem as
    |lc(b)| rem - sign(lc(b)) lc(rem) x^k b, so nothing is divided and each
    step scales the remainder by |lc(b)| > 0.
    """
    if b[-1] < 0:
        b = neg(b)
    lead, db = b[-1], len(b) - 1
    rem = list(a)
    while len(rem) > db:
        top = rem.pop()
        k = len(rem) - db
        rem = [lead * c for c in rem]
        for i in range(db):
            rem[k + i] -= top * b[i]
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _remainders(a, b):
    """The negated primitive parts of the pseudo-remainders of a by b, of b
    by that, and so on, for integer polynomials a and b with deg b >= 0.
    The sequence stops after a constant or before a zero remainder, so its
    last element, or b when it is empty, is gcd(a, b) up to a factor.

    The constant after a linear b = b0 + b1 x is read in closed form, with
    no pseudo-division and no gcd: the remainder of a by b over Q is
    a(-b0 / b1), and b1^n a(-b0 / b1) = sum a_i (-b0)^i b1^(n - i), n =
    deg a, is an integer of that sign times sign(b1)^n.  A primitive
    constant is -1 or 1; when the value is 0, b divides a and ends the
    sequence.
    """
    while degree(b) > 1:
        rem = _pseudo_remainder(a, b)
        if not rem:
            return
        g = -gcd(*rem)
        a, b = b, tuple([c // g for c in rem])
        yield b
    if len(b) == 2:
        b0, b1 = b
        value, power = 0, 1
        for c in reversed(a):
            value = value * -b0 + c * power
            power *= b1
        if b1 < 0 and len(a) % 2 == 0:  # b1^n < 0 for an odd n
            value = -value
        if value:
            yield (-1,) if value > 0 else (1,)


def sturm_sequence(q):
    """The Sturm chain of a primitive integer polynomial q with no trailing
    zeros, as a primitive pseudo-remainder sequence (Collins 1967; Brown and
    Traub 1971): q, the primitive part of q', then `_remainders` of the two,
    each a positive multiple of the element over Q.  The last element is
    gcd(q, q') up to a positive factor."""
    d = derivative(q)
    if not d:
        return [q]
    b = primitive_vector(d)
    return [q, b, *_remainders(q, b)]


def _sign_changes(signs):
    return sum(map(ne, signs, signs[1:]))


def _infinity_variations(chain):
    """Sign changes of a chain at -infinity and at +infinity, read off the
    leading coefficients and the degrees."""
    at_minus = [(f[-1] > 0) == (len(f) % 2 == 1) for f in chain]  # odd length: even degree
    at_plus = [f[-1] > 0 for f in chain]
    return _sign_changes(at_minus), _sign_changes(at_plus)


class RootProfile(NamedTuple):
    real: int  # real roots counted with multiplicity
    distinct: int  # distinct real roots
    squarefree: bool  # no repeated root, real or complex


def _low_degree_profile(g):
    """`root_profile` of a nonzero polynomial of degree at most 2, read off
    the sign of the discriminant b^2 - 4ac of a quadratic c + b x + a x^2."""
    if len(g) < 3:
        return RootProfile(len(g) - 1, len(g) - 1, True)
    c, b, a = g
    disc = b * b - 4 * a * c
    if disc > 0:
        return RootProfile(2, 2, True)
    return RootProfile(2, 1, False) if disc == 0 else RootProfile(0, 0, True)


def root_profile(coeffs, chain=None) -> RootProfile:
    """Real-root counts and squarefreeness of a nonzero polynomial.

    The Sturm chain of g counts the distinct real roots of g (sign changes at
    -infinity minus those at +infinity), and its last element is gcd(g, g'),
    whose roots are those of g with multiplicity one less.  Summing the counts
    over these levels counts every real root with its multiplicity.  A level
    of degree at most two needs no chain: `_low_degree_profile` reads it off
    the sign of its discriminant.  A caller that already holds the chain of
    the primitive part of `coeffs` passes it as `chain`, and the first level
    reads it instead of building it again.
    """
    g = normalize(coeffs)
    if not g:
        raise ValueError("zero polynomial")
    counts = []
    while degree(g) > 2:
        if chain is None:
            chain = sturm_sequence(primitive_vector(g))
        at_minus, at_plus = _infinity_variations(chain)
        counts.append(at_minus - at_plus)
        g, chain = chain[-1], None
    last = _low_degree_profile(g)
    if not counts:
        return last
    return RootProfile(sum(counts) + last.real, counts[0], len(counts) == 1 and degree(g) == 0)


def sturm_count(coeffs, with_multiplicity: bool = False) -> int:
    """Real roots of a rational polynomial over the whole line.

    With `with_multiplicity`, a root of multiplicity m counts m times.
    """
    roots = root_profile(coeffs)
    return roots.real if with_multiplicity else roots.distinct


def real_rooted_profile(coeffs) -> RootProfile | None:
    """`root_profile(coeffs)` when every root of a nonzero integer
    polynomial is real, else None.

    Let g have degree n and gcd(g, g') degree m, so g has n - m distinct
    roots.  The Sturm chain of g counts its distinct real roots as the sign
    changes at -infinity minus those at +infinity, and has at most n - m + 1
    elements, so the count reaches n - m exactly when the chain has full
    length: each degree one below the one before, down to m, and every
    leading coefficient of the sign of lc(g).  The chain stops at the first
    degree gap or sign flip, so a nonreal root is usually found after a few
    remainders.  The roots of gcd(g, g') are roots of g, so the lower
    multiplicity levels then hold only real roots, and the counts follow
    from n and m alone.

    Only degrees and signs are read, so the test negates g when lc(g) < 0
    and runs `_remainders` from n g - x g' (degree below n) and g': each
    remainder is a positive multiple of the one from g and g' or their
    primitive parts, so after its content is removed the sequence is the
    primitive chain from its third element on, its last constant read in
    closed form.  Below degree three, all roots are real exactly when the
    discriminant is not negative (`_low_degree_profile`).
    """
    g = normalize(coeffs)
    if not g:
        raise ValueError("zero polynomial")
    if degree(g) < 3:
        roots = _low_degree_profile(g)
        return roots if roots.real == degree(g) else None
    if g[-1] < 0:
        g = neg(g)
    n, last = degree(g), derivative(g)
    for f in _remainders(normalize([(n - i) * c for i, c in enumerate(g[:-1])]), last):
        if len(f) != len(last) - 1 or f[-1] < 0:
            return None
        last = f
    common = degree(last)  # the degree of gcd(g, g')
    return RootProfile(n, n - common, common == 0)


def _variations(grid, n):
    """Sign changes of the scaled chain at n, zeros skipped.  Each element
    holds its coefficients highest degree first and is evaluated by an inline
    Horner loop."""
    changes, positive = 0, None
    for g in grid:
        acc = 0
        for c in g:
            acc = acc * n + c
        if acc:
            if positive is not None and (acc > 0) != positive:
                changes += 1
            positive = acc > 0
    return changes


def _split(lo, hi):
    """A grid point strictly inside (lo, hi), for hi - lo > 1.

    0 when the interval straddles 0.  When both ends lie on one side of 0 and
    the far end is more than four times the near one plus four, a power of
    two near their geometric mean, so a root of any size is reached in a
    number of steps logarithmic in its bit size.  The midpoint otherwise.
    """
    if lo < 0 < hi:
        return 0
    near, far = (lo, hi) if lo >= 0 else (-hi, -lo)
    if far > 4 * near + 4:
        power = 1 << ((near.bit_length() + far.bit_length()) // 2)
        return power if lo >= 0 else -power
    return (lo + hi) // 2


def _isolate(squarefree, lo, hi):
    """(n, squarefree(n)) for the grid point n, with the one root of
    `squarefree` (coefficients highest degree first) in (lo, hi] lying in
    (n - 1, n]; split at `_split` on signs."""
    at_hi = 0
    for c in squarefree:
        at_hi = at_hi * hi + c
    while hi - lo > 1 and at_hi:
        mid = _split(lo, hi)
        at_mid = 0
        for c in squarefree:
            at_mid = at_mid * mid + c
        if at_mid and (at_mid > 0) != (at_hi > 0):
            lo = mid
        else:
            hi, at_hi = mid, at_mid
    return hi, at_hi


def _low_degree_roots(f, roots):
    """(roots, cofactor) for a nonzero integer polynomial f of degree at
    most 2: `roots` extended by the rational roots of f, in lowest terms and
    each with its multiplicity, and f with them divided out.  Both come back
    unchanged when f has a higher degree.

    A linear c + b x has the root -c / b.  A quadratic c + b x + a x^2 has
    rational roots exactly when its discriminant b^2 - 4ac is a square r^2,
    and they are (-b + r) / 2a and (-b - r) / 2a, one double root when
    r = 0.  With every root found, f is lc(f) times the product of the
    (x - num / den)^mult, so its cofactor is the constant
    lc(f) / prod den^mult, integral by Gauss's lemma.
    """
    if len(f) == 2:
        found = [(-f[0], f[1], 1)]
    elif len(f) == 3:
        c, b, a = f
        disc = b * b - 4 * a * c
        if disc < 0 or (r := isqrt(disc)) * r != disc:
            return roots, f
        found = [(r - b, 2 * a, 2)] if r == 0 else [(r - b, 2 * a, 1), (-r - b, 2 * a, 1)]
    else:
        return roots, f
    lead = f[-1]
    for num, den, mult in found:
        common = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den = num // common, den // common
        lead //= den**mult
        roots.append((num, den, mult))
    return roots, (lead,)


def rational_roots(coeffs, chain=None):
    """(roots, cofactor) of a nonzero integer polynomial f: one
    (num, den, mult) per distinct rational root num / den in lowest terms,
    den > 0, in the order the search finds them, and f divided by every
    (den x - num)^mult, integral by Gauss's lemma.

    A polynomial of degree at most two is solved in closed form by
    `_low_degree_roots`, with one `math.isqrt`.  Above that, the chain of
    the squarefree part g is a chain of primitive integer polynomials, and
    every rational root P/Q of g has Q dividing lc = |lc(g)|.
    Read at y = lc x, each chain element is an integer polynomial whose sign
    at an integer n is its sign at n / lc, and each rational root is an
    integer n.  So the chain isolates the real roots in unit intervals
    (n - 1, n], split at `_split`, and n / lc is a root exactly when the
    scaled g, G, vanishes at n.  An interval with one root is narrowed on the
    signs of G alone.  `deflate` divides each root out of f once when f is
    squarefree, else until it fails.  The search stops as soon as the
    cofactor left has degree at most two, and `_low_degree_roots` finishes
    it, so a polynomial with four rational roots isolates only two.  Every
    sign test is an inline integer Horner evaluation, and the cost is
    polynomial in the degree and the bit size (Basu, Pollack and Roy,
    Algorithms in Real Algebraic Geometry, ch. 10).  A caller that already
    holds the chain of the primitive part of f passes it as `chain`.
    """
    f = normalize(coeffs)
    if not f:
        raise ValueError("zero polynomial")
    if degree(f) < 3:
        return _low_degree_roots(f, [])
    if chain is None:
        chain = sturm_sequence(primitive_vector(f))
    squarefree = degree(chain[-1]) == 0
    if not squarefree:  # divided by gcd(f, f'): the chain of the squarefree part
        chain = [_exact_quotient(g, chain[-1]) for g in chain]
    lc = abs(chain[0][-1])
    powers = [1]
    for _ in chain[0][1:]:
        powers.append(powers[-1] * lc)
    grid = [[c * power for c, power in zip(reversed(g), powers)] for g in chain]
    # 2^top / lc exceeds the Cauchy bound, so the chain changes sign at
    # -2^top and 2^top as often as at -infinity and +infinity
    top = (lc + max([abs(c) for c in chain[0]])).bit_length()
    at_minus, at_plus = _infinity_variations(chain)
    stack = [(-1 << top, at_minus, 1 << top, at_plus)]
    roots = []
    while stack and len(f) > 3:
        lo, v_lo, hi, v_hi = stack.pop()
        count = v_lo - v_hi  # distinct roots in (lo, hi]
        if not count:
            continue
        if count > 1 and hi - lo > 1:
            mid = _split(lo, hi)
            v_mid = _variations(grid, mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
            continue
        n, at_n = _isolate(grid[0], lo, hi)
        if not at_n:
            common = gcd(n, lc)
            num, den = n // common, lc // common
            f, mult = deflate(f, num, den), 1
            while not squarefree and (quot := deflate(f, num, den)) is not None:
                f, mult = quot, mult + 1
            roots.append((num, den, mult))
    return _low_degree_roots(f, roots)
