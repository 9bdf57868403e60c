"""Minimal conic bundles over the projective line.

A rank-3 split bundle O(a1) + O(a2) + O(a3) carries plane-conic fibers; a
symmetric 3x3 matrix of binary forms with deg q_ij = a_i + a_j cuts out a
conic-bundle surface inside the projectivised bundle.  This module covers:

  * the six Diophantine conditions a divisor D = aF - bK on a minimal conic
    bundle with s sphere components must satisfy to come from a finite
    real-fibered morphism to the plane, and the distinguished solution
    (a, b) = (s - 2, 1);
  * the identities that intersection numbers on the projectivised bundle
    (H^3 = c, H^2 E = 1, E^2 = 0) yield for the surface of class 2H + aE,
    in closed form: K_X^2 = 8 - 3a - 2c, s = 3(a/2) + c, and the
    restriction (s - 2)F - K of the tautological class;
  * discriminants of conic-bundle sections: the determinant is a binary form
    of degree 2(a1 + a2 + a3) whose roots on P^1 (infinity included) mark the
    singular fibers.  `analyze` reports s, half the number of real singular
    fibers; s counts the sphere components only for a minimal section, whose
    real singular fibers are all pairs of conjugate lines meeting in a real
    point.  A `ConicMatrix` computes its discriminant once and keeps it, and
    a `BinaryForm` keeps, once asked, its split c u^m v^k h_1 ... h_r with
    the Sturm chain of each h_i of degree above two, so `analyze` (the
    real-root counts) and `factored_str` (the rational roots) of one
    discriminant share one determinant and one chain per such part.  A part
    of degree at most two gets no chain: `realroots` answers both questions
    about it from its discriminant b^2 - 4ac.  A general form has one part
    h; the discriminant p1 p2 p3 of a diagonal section, built as that
    product, keeps one part per nonconstant p_i and is analysed factor by
    factor, with no chain of the full product.  `analyze` tests squarefree parts for
    a common root with `realroots.coprime` and runs no rational-root search:
    the search costs more than the `coprime` calls it would replace, and
    only `factored_str` needs its roots;
  * the diagonal section p1 x1^2 + p2 x2^2 + p3 x3^2 built from prescribed
    simple real roots.

Binary forms store integer coefficients with index i holding the coefficient
of u^i v^(d-i); dehomogenising at v = 1 is then the identity on coefficient
lists, and the point at infinity [1:0] is a root exactly when the top
coefficient vanishes.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .intlinalg import Value, int_tuple, rational_tuple
from . import realroots


class BinaryForm(Value):
    degree: int
    coeffs: tuple

    def __post_init__(self):
        (degree,), coeffs = int_tuple((self.degree,)), int_tuple(self.coeffs)
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if len(coeffs) != degree + 1:
            raise ValueError("need degree + 1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def infinity_multiplicity(self) -> int:
        """Multiplicity of the root at [1:0], i.e. the v-adic valuation gap."""
        if self.is_zero():
            raise ValueError("zero form")
        return self.degree + 1 - len(realroots.normalize(self.coeffs))

    @cached_property
    def _split_roots(self) -> _SplitRoots:
        """This nonzero form as c u^m v^k h with one part h, built on first
        use and kept on the instance; not a field, so equality, hash and repr
        ignore it."""
        return _split_product((self,))


class _SplitRoots(NamedTuple):
    """A nonzero form c u^m v^k h_1 ... h_r with each h_i primitive,
    nonconstant and nonzero at [0:1] and [1:0]: the content c, the
    multiplicities m of the root [0:1] and k of the root [1:0], and one pair
    (h_i, Sturm chain of h_i) per part, dehomogenised.  A part of degree at
    most two has None for its chain, since `realroots` reads its roots off
    its discriminant."""
    content: int
    at_zero: int
    at_infinity: int
    parts: tuple


def _split_product(forms) -> _SplitRoots:
    """The split of the product of nonzero forms with one part per
    nonconstant h_i: contents multiply and multiplicities add."""
    content, at_zero, at_infinity, parts = 1, 0, 0, []
    for form in forms:
        c, poly = realroots.primitive_part(form.coeffs)
        low = next(i for i, x in enumerate(poly) if x)
        content *= c
        at_zero += low
        at_infinity += form.infinity_multiplicity()
        if len(poly) - low > 1:
            part = poly[low:]
            parts.append((part, realroots.sturm_sequence(part) if len(part) > 3 else None))
    return _SplitRoots(content, at_zero, at_infinity, tuple(parts))


def _form(degree: int, poly) -> BinaryForm:
    """The form of the given degree whose dehomogenisation is poly."""
    return BinaryForm(degree, tuple(poly) + (0,) * (degree + 1 - len(poly)))


def zero_form(degree: int) -> BinaryForm:
    return _form(int_tuple((degree,))[0], ())


def form_from_roots(degree: int, roots) -> BinaryForm:
    """The form of the given degree with the given rational roots t = u/v,
    one per degree, and no root at infinity: the product of q u - p v over
    the roots p/q, primitive by Gauss's lemma."""
    if len(roots) != int_tuple((degree,))[0]:
        raise ValueError("number of roots must equal the degree")
    poly = (1,)
    for rho in rational_tuple(roots):
        poly = realroots.mul(poly, (-rho.numerator, rho.denominator))
    return _form(degree, poly)


class ConicMatrix(Value):
    splitting: tuple
    entries: tuple  # 3x3, symmetric, entries[i][j] a BinaryForm of degree a_i + a_j

    def __post_init__(self):
        a = int_tuple(self.splitting)
        if len(a) != 3 or not (a[0] <= a[1] <= a[2]):
            raise ValueError("splitting must be three integers a1 <= a2 <= a3")
        if a[0] + a[0] < 0:
            raise ValueError("splitting degrees a_i + a_j must all be nonnegative")
        entries = tuple(tuple(row) for row in self.entries)
        if len(entries) != 3 or any(len(row) != 3 for row in entries):
            raise ValueError("entries must form a 3x3 matrix")
        for i in range(3):
            for j in range(3):
                q = entries[i][j]
                if not isinstance(q, BinaryForm):
                    raise ValueError("entries must be binary forms")
                if q.degree != a[i] + a[j]:
                    raise ValueError(
                        f"entry ({i},{j}) must have degree {a[i] + a[j]}, got {q.degree}"
                    )
                if q.coeffs != entries[j][i].coeffs:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "splitting", a)
        object.__setattr__(self, "entries", entries)

    def is_diagonal(self) -> bool:
        """Whether every off-diagonal entry is zero; the matrix is symmetric,
        so the entries above the diagonal decide."""
        q = self.entries
        return q[0][1].is_zero() and q[0][2].is_zero() and q[1][2].is_zero()

    @cached_property
    def _discriminant(self) -> BinaryForm:
        """`discriminant(self)`, computed on first use and kept on the
        instance; not a field, so equality, hash and repr ignore it."""
        return _determinant(self)


def diagonal_matrix(splitting, forms) -> ConicMatrix:
    a = int_tuple(splitting)
    entries = [[zero_form(a[i] + a[j]) for j in range(3)] for i in range(3)]
    for i in range(3):
        entries[i][i] = forms[i]
    return ConicMatrix(a, tuple(tuple(row) for row in entries))


# ---------------------------------------------------------------------------
# Necessary conditions and the distinguished divisor


class BundleConditionReport(NamedTuple):
    s: int
    a: int
    b: int
    c1: bool  # b >= 1
    c2: bool  # a >= -1
    c3: bool  # s = b ((4 - s) b + 2a)
    c4: bool  # a + (4 - s) b <= 2
    c5: bool  # a = s b (mod 2)
    c6: bool  # 2a > b (s - 4)

    @property
    def passed(self) -> bool:
        return self.c1 and self.c2 and self.c3 and self.c4 and self.c5 and self.c6

    def conditions_dict(self):
        return {f"c{i}": getattr(self, f"c{i}") for i in range(1, 7)}


def necbundle_conditions(s: int, a: int, b: int) -> BundleConditionReport:
    """The six conditions on D = aF - bK over a minimal conic bundle with s
    sphere components (K.K = 8 - 2s, F.K = -2, F.F = 0)."""
    s, a, b = int_tuple((s, a, b))
    if s < 1:
        raise ValueError("s must be at least 1")
    return BundleConditionReport(
        s, a, b,
        b >= 1,
        a >= -1,
        s == b * ((4 - s) * b + 2 * a),
        a + (4 - s) * b <= 2,
        (a - s * b) % 2 == 0,
        2 * a > b * (s - 4),
    )


def candidate_divisor(s: int):
    """The distinguished solution D = (s - 2)F - K, (a, b) = (s - 2, 1), with
    its invariants.

    On <F, K> (F.F = 0, F.K = -2, K.K = 8 - 2s), D.D = 4(s - 2) + 8 - 2s = 2s
    and D.K = -2(s - 2) - (8 - 2s) = -4.  So adjunction gives the sectional
    genus (D.D + D.K)/2 + 1 = s - 1, and Riemann-Roch the lower bound
    (D.D - D.K)/2 + 1 = s + 3 for the dimension of global sections.
    """
    if int_tuple((s,))[0] < 2:
        raise ValueError("need at least two sphere components")
    return {"a": s - 2, "b": 1, "genus": s - 1, "ell_lower_bound": s + 3}


# ---------------------------------------------------------------------------
# Intersection numbers on the projectivised bundle


def surface_class_identities(a: int, c: int):
    """Invariants of the surface X of class 2H + aE (a even) in the plane
    bundle P(E) over P^1 with deg E = c, in closed form.

    On P(E), with H the tautological class and E a fiber, H^3 = c,
    H^2 E = 1 and E^2 = 0 (Fulton, Intersection Theory, ch. 3), and
    K_P = -3H + (c - 2)E.  Adjunction gives K_X = (K_P + X)|_X with
    K_P + X = -H + (c - 2 + a)E, so K_X^2 = (K_P + X)^2 X = 8 - 3a - 2c,
    which is 8 - 2s for s = 3(a/2) + c.  The tautological class H + (a/2)E
    of the normalised bundle restricts to X as xF + yK, F = E|_X a fiber:
    its degree 2 on F is -2y, so y = -1, and its degree -4 on K_X is
    -2x + y(8 - 2s), so x = s - 2 and the restriction is (s - 2)F - K.
    """
    a, c = int_tuple((a, c))
    if a % 2:
        raise ValueError("the surface class must be 2H + aE with a even")
    s = 3 * (a // 2) + c
    return {"KX2": 8 - 3 * a - 2 * c, "s": s, "x": s - 2, "y": -1}


# ---------------------------------------------------------------------------
# Discriminants


def discriminant(matrix: ConicMatrix) -> BinaryForm:
    """Determinant of the section matrix: a binary form of degree 2(a1+a2+a3)
    whose zero locus on P^1 is the set of singular fibers.  It is computed
    once per matrix and kept on it, so every call returns the same form."""
    return matrix._discriminant


def _determinant(matrix: ConicMatrix) -> BinaryForm:
    """The product p1 p2 p3 of a diagonal section, else the cofactor
    expansion along the first row, run on the coefficient tuples; only the
    result is built as a form.  A nonzero product keeps its split with one
    part per nonconstant p_i, so no Sturm chain of the whole product is
    built."""
    mul, add, neg = realroots.mul, realroots.add, realroots.neg
    q = [[f.coeffs for f in row] for row in matrix.entries]
    if matrix.is_diagonal():
        det = _form(2 * sum(matrix.splitting), mul(mul(q[0][0], q[1][1]), q[2][2]))
        if not det.is_zero():
            det.__dict__["_split_roots"] = _split_product([matrix.entries[i][i] for i in range(3)])
        return det

    def minor(j, k):  # rows 1 and 2, columns j and k
        return add(mul(q[1][j], q[2][k]), neg(mul(q[1][k], q[2][j])))

    det = add(add(mul(q[0][0], minor(1, 2)), neg(mul(q[0][1], minor(0, 2)))), mul(q[0][2], minor(0, 1)))
    return _form(2 * sum(matrix.splitting), det)


def _roots_on_p1(form: BinaryForm):
    """(real roots on P^1 counted with multiplicity, squarefree on P^1) for a
    nonzero form; a root at infinity is the point [1:0].  Real roots add up
    over the parts, and the form is squarefree when every part is and the
    parts are pairwise coprime."""
    split = form._split_roots
    profiles = [realroots.root_profile(part, chain) for part, chain in split.parts]
    real = sum(roots.real for roots in profiles) + split.at_zero + split.at_infinity
    squarefree = (split.at_zero <= 1 and split.at_infinity <= 1
                  and all(roots.squarefree for roots in profiles)
                  and all(realroots.coprime(p, q) for (p, _), (q, _) in combinations(split.parts, 2)))
    return real, squarefree


class FiberAnalysis(NamedTuple):
    total_fibers: int
    real_fibers: int | None
    squarefree: bool
    s: int | None
    smooth_necessary: bool
    smooth_exact: bool | None  # populated only for diagonal sections


def analyze(matrix: ConicMatrix) -> FiberAnalysis:
    """Singular fibers of a conic-bundle section.

    total_fibers is the degree of the discriminant, its roots on P^1 with
    multiplicity, and real_fibers the real ones (`_roots_on_p1`).  A zero
    discriminant has no root count (real_fibers None) and is not
    squarefree.  When the discriminant is squarefree the surface can be
    smooth and s = real_fibers / 2, half the number of real singular fibers;
    otherwise s is None.  s is the number of sphere components only for a
    minimal section, where every real singular fiber is a pair of conjugate
    lines; a real singular fiber can also be a pair of real lines.  For a
    diagonal section squarefreeness decides smoothness (smooth_exact); in
    general it is only necessary (smooth_necessary, smooth_exact None).
    """
    disc = discriminant(matrix)
    real, squarefree = (None, False) if disc.is_zero() else _roots_on_p1(disc)
    if squarefree and real % 2:
        raise RuntimeError("odd real root count for a squarefree real form")
    s = real // 2 if squarefree else None
    smooth_exact = squarefree if matrix.is_diagonal() else None
    return FiberAnalysis(disc.degree, real, squarefree, s, squarefree, smooth_exact)


def construct_section(a1: int, a2: int, a3: int, root_lists) -> ConicMatrix:
    """Diagonal section p1 x1^2 + p2 x2^2 + p3 x3^2 from prescribed roots.

    Each root list holds 2 a_i distinct rationals and the three lists are
    pairwise disjoint, so every p_i has only simple real zeros and the p_i
    are pairwise coprime: the section has 2(a1 + a2 + a3) simple real
    singular fibers and s = a1 + a2 + a3, half their number.  s counts
    sphere components only when the section is minimal; the fiber at a root
    of p_i is a pair of real lines when the other two p_j differ in sign
    there.
    """
    split = int_tuple((a1, a2, a3))
    if any(a < 1 for a in split):
        raise ValueError("splitting degrees must be positive")
    if len(root_lists) != 3:
        raise ValueError("need three root lists")
    lists = [rational_tuple(roots) for roots in root_lists]
    for a, roots in zip(split, lists):
        if len(roots) != 2 * a:
            raise ValueError("root list length must be twice the splitting degree")
        if len(set(roots)) != len(roots):
            raise ValueError("roots within a list must be distinct")
    if len(set().union(*lists)) != sum(len(roots) for roots in lists):
        raise ValueError("root lists must be pairwise disjoint")
    pairs = sorted(zip(split, lists), key=lambda t: t[0])
    forms = [form_from_roots(2 * a, roots) for a, roots in pairs]
    return diagonal_matrix(tuple(a for a, _ in pairs), forms)


# ---------------------------------------------------------------------------
# Pretty factorisation for output


def factor_low_degree(form: BinaryForm):
    """Factor an integer form into pieces of degree <= 2 when possible.

    Returns (content, [(factor, multiplicity), ...]) or None when the
    cofactor left after removing u, v and rational linear factors still has
    degree above two.  Each factor is the coefficient tuple of a form of
    degree len(factor) - 1, primitive with integer coefficients (Gauss's
    lemma); no `BinaryForm` is built for it.  The u- and v-powers come
    first, then the linear factors by (|num|, den) for the root num / den,
    the positive root first.  The rational roots are found part by part,
    each with its multiplicity and the part's cofactor, and a root shared by
    parts has the sum of its multiplicities.  The cofactor is the product of
    the parts' cofactors.
    """
    if form.is_zero():
        return None
    split = form._split_roots
    factors = []
    if split.at_zero:
        factors.append(((0, 1), split.at_zero))  # u
    if split.at_infinity:
        factors.append(((1, 0), split.at_infinity))  # v
    multiplicity = {}
    rest = (1,)
    for part, chain in split.parts:
        roots, cofactor = realroots.rational_roots(part, chain)
        for num, den, mult in roots:
            multiplicity[num, den] = multiplicity.get((num, den), 0) + mult
        rest = realroots.mul(rest, cofactor)
    if realroots.degree(rest) > 2:
        return None
    for num, den in sorted(multiplicity, key=lambda root: (abs(root[0]), root[1], root[0] < 0)):
        factors.append(((-num, den), multiplicity[num, den]))
    if realroots.degree(rest) > 0:
        factors.append((rest, 1))
    return split.content, factors


def form_str(form: BinaryForm) -> str:
    """Expanded rendering like 'u^3*v - u*v^3'."""
    return _expanded(form.coeffs)


@lru_cache(maxsize=None)
def _monomials(degree):
    """The strings of u^i v^(degree - i), i = 0 .. degree, built once per
    degree: the monomial alone ('' for i = degree = 0) and after a
    coefficient ('*u^2*v', or '' for the constant)."""
    monomials = []
    for i in range(degree + 1):
        u = "" if i == 0 else "u" if i == 1 else f"u^{i}"
        v = "" if i == degree else "v" if i == degree - 1 else f"v^{degree - i}"
        monomial = f"{u}*{v}" if u and v else u + v
        monomials.append((monomial, "*" + monomial if monomial else ""))
    return monomials


def _expanded(coeffs) -> str:
    """`form_str` of the form of degree len(coeffs) - 1 with these
    coefficients."""
    if not any(coeffs):
        return "0"
    monomials = _monomials(len(coeffs) - 1)
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c:
            monomial, after = monomials[i]
            body = monomial if (c == 1 or c == -1) and monomial else f"{abs(c)}{after}"
            sign = ("- " if c < 0 else "+ ") if terms else ("-" if c < 0 else "")
            terms.append(sign + body)
    return " ".join(terms)


def factored_str(form: BinaryForm) -> str:
    """Factored rendering when a full degree <= 2 factorisation is found,
    the expanded polynomial otherwise.  A content of 1 or -1 in front of
    factors prints as nothing or a leading minus sign."""
    result = factor_low_degree(form)
    if result is None:
        return form_str(form)
    content, factors = result
    parts = []
    for factor, mult in factors:
        base = _expanded(factor)
        if sum(1 for c in factor if c) > 1:
            base = f"({base})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if not parts:
        return str(content)
    return {1: "", -1: "-"}.get(content, f"{content}*") + "*".join(parts)
