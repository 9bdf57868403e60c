"""Minimal conic bundles over the projective line.

A rank-3 split bundle O(a1) + O(a2) + O(a3) carries plane-conic fibers; a
symmetric 3x3 matrix of binary forms with deg q_ij = a_i + a_j cuts out a
conic-bundle surface inside the projectivised bundle.  This module covers:

  * the six Diophantine conditions a divisor D = aF - bK on a minimal conic
    bundle with s sphere components must satisfy to come from a finite
    real-fibered morphism to the plane, and the distinguished solution
    (a, b) = (s - 2, 1);
  * intersection numbers of divisor classes on the projectivised bundle
    (H^3 = c, H^2 E = 1, E^2 = 0) and the identities they yield for the
    surface (K_X^2 = 8 - 3a - 2c, the restriction of the tautological class);
  * discriminants of conic-bundle sections: the determinant is a binary form
    of degree 2(a1 + a2 + a3) whose roots on P^1 (infinity included) mark the
    singular fibers, 2s of them for a smooth surface with s spheres;
  * the diagonal section p1 x1^2 + p2 x2^2 + p3 x3^2 built from prescribed
    simple real roots.

Binary forms store integer coefficients with index i holding the coefficient
of u^i v^(d-i); dehomogenising at v = 1 is then the identity on coefficient
lists, and the point at infinity [1:0] is a root exactly when the top
coefficient vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import int_tuple, rational_tuple
from .lattice import IntLattice, adjunction_genus, riemann_roch_dim
from . import realroots


@dataclass(frozen=True)
class BinaryForm:
    degree: int
    coeffs: tuple

    def __post_init__(self):
        coeffs = int_tuple(self.coeffs)
        if int_tuple((self.degree,))[0] < 0:
            raise ValueError("degree must be nonnegative")
        if len(coeffs) != self.degree + 1:
            raise ValueError("need degree + 1 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        return _form(self.degree, realroots.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinaryForm(self.degree, realroots.neg(self.coeffs))

    def __mul__(self, other):
        return _form(self.degree + other.degree, realroots.mul(self.coeffs, other.coeffs))

    def effective_degree(self) -> int:
        """Largest i with a nonzero u^i coefficient (-1 for the zero form)."""
        return realroots.degree(realroots.normalize(self.coeffs))

    def infinity_multiplicity(self) -> int:
        """Multiplicity of the root at [1:0], i.e. the v-adic valuation gap."""
        if self.is_zero():
            raise ValueError("zero form")
        return self.degree - self.effective_degree()


def _form(degree: int, poly) -> BinaryForm:
    """The form of the given degree whose dehomogenisation is poly."""
    return BinaryForm(degree, tuple(poly) + (0,) * (degree + 1 - len(poly)))


def zero_form(degree: int) -> BinaryForm:
    return _form(degree, ())


def form_from_roots(degree: int, roots) -> BinaryForm:
    """Primitive integer form of the given degree with the given rational
    roots (as points [p : q] of P^1 with t = u/v = p/q) and no root at
    infinity; requires len(roots) == degree."""
    if len(roots) != degree:
        raise ValueError("number of roots must equal the degree")
    form = BinaryForm(0, (1,))
    for rho in rational_tuple(roots):
        form = form * BinaryForm(1, (-rho.numerator, rho.denominator))
    return form


@dataclass(frozen=True)
class ConicMatrix:
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
        return all(self.entries[i][j].is_zero() for i in range(3) for j in range(3) if i != j)


def diagonal_matrix(splitting, forms) -> ConicMatrix:
    a = int_tuple(splitting)
    entries = [[zero_form(a[i] + a[j]) for j in range(3)] for i in range(3)]
    for i in range(3):
        entries[i][i] = forms[i]
    return ConicMatrix(a, tuple(tuple(row) for row in entries))


# ---------------------------------------------------------------------------
# Necessary conditions and the distinguished divisor


@dataclass(frozen=True)
class BundleConditionReport:
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


def conic_bundle_lattice(s: int) -> IntLattice:
    """Real Picard lattice <F, K> of a minimal conic bundle with s spheres."""
    return IntLattice(2, ("F", "K"), ((0, -2), (-2, 8 - 2 * s)))


def candidate_divisor(s: int):
    """The distinguished solution (a, b) = (s - 2, 1) with its invariants.

    Returns a dict with the coefficients, the sectional genus s - 1 computed
    by adjunction in <F, K>, and the Riemann-Roch lower bound s + 3 for the
    dimension of global sections.
    """
    if s < 2:
        raise ValueError("need at least two sphere components")
    lat = conic_bundle_lattice(s)
    d = lat.vector((s - 2, -1))
    k = lat.vector((0, 1))
    genus = adjunction_genus(d, k)
    bound = riemann_roch_dim(d, k)
    return {"a": s - 2, "b": 1, "genus": genus, "ell_lower_bound": bound}


# ---------------------------------------------------------------------------
# Intersection numbers on the projectivised bundle


def intersection_number(c: int, x, y, z) -> int:
    """Degree of x.y.z on the plane bundle P(E) over P^1 with deg E = c.

    Each divisor class is its pair of coefficients on H (the tautological
    class) and E (a fiber).  The degree is the trilinear form fixed by
    H^3 = c, H^2 E = 1 and E^2 = 0 (Fulton, Intersection Theory, ch. 3).
    """
    (c,), (xh, xe), (yh, ye), (zh, ze) = (int_tuple(v) for v in ((c,), x, y, z))
    return c * xh * yh * zh + xh * yh * ze + xh * ye * zh + xe * yh * zh


def surface_class_identities(a: int, c: int):
    """Invariants of the surface X of class 2H + aE (a even), from
    intersection numbers on the plane bundle.

    Each number is asserted against its closed form: K_X^2 = 8 - 3a - 2c,
    s = 3(a/2) + c, and the restriction of the tautological class of the
    normalised bundle (the twist by a/2) to X equals (s - 2) F - K.
    """
    a, c = int_tuple((a, c))
    if a % 2:
        raise ValueError("the surface class must be 2H + aE with a even")
    b = a // 2
    x_class = (2, a)
    kx = (-1, c - 2 + a)  # K_P + X with K_P = -3H + (c - 2)E
    kx2 = intersection_number(c, kx, kx, x_class)
    assert kx2 == 8 - 3 * a - 2 * c
    s = 3 * b + c
    h_tw = (1, b)  # tautological class of the normalised bundle
    fiber_deg = intersection_number(c, h_tw, (0, 1), x_class)  # equals (xF + yK).F = -2y
    assert fiber_deg % 2 == 0
    y = -fiber_deg // 2
    assert y == -1
    k_deg = intersection_number(c, h_tw, kx, x_class)  # equals (xF + yK).K = -2x + y(8 - 2s)
    num = y * (8 - 2 * s) - k_deg
    assert num % 2 == 0
    x = num // 2
    assert x == s - 2
    return {"KX2": kx2, "s": s, "x": x, "y": y}


# ---------------------------------------------------------------------------
# Discriminants


def discriminant(matrix: ConicMatrix) -> BinaryForm:
    """Determinant of the section matrix: a binary form of degree 2(a1+a2+a3)
    whose zero locus on P^1 is the set of singular fibers."""
    q = matrix.entries
    return (
        q[0][0] * (q[1][1] * q[2][2] - q[1][2] * q[2][1])
        - q[0][1] * (q[1][0] * q[2][2] - q[1][2] * q[2][0])
        + q[0][2] * (q[1][0] * q[2][1] - q[1][1] * q[2][0])
    )


def _roots_on_p1(form: BinaryForm):
    """(real roots on P^1 counted with multiplicity, squarefree on P^1) for a
    nonzero form; a root at infinity is the point [1:0]."""
    roots = realroots.root_profile(form.coeffs)
    inf_mult = form.infinity_multiplicity()
    return roots.real + inf_mult, roots.squarefree and inf_mult <= 1


@dataclass(frozen=True)
class FiberAnalysis:
    total_fibers: int
    real_fibers: int | None
    squarefree: bool
    s: int | None
    smooth_necessary: bool
    smooth_exact: bool | None  # populated only for diagonal sections


def analyze(matrix: ConicMatrix) -> FiberAnalysis:
    """Singular-fiber count of a conic-bundle section.

    total_fibers counts discriminant roots on P^1 with multiplicity (the
    degree of the determinant); real_fibers adds the Sturm count of the
    dehomogenisation and the multiplicity at infinity.  When the discriminant
    is squarefree the surface can be smooth and s = real_fibers / 2 is the
    number of sphere components; otherwise s is undetermined.  For diagonal
    sections smoothness is decided exactly (each p_i squarefree on P^1 and
    the p_i pairwise coprime); in general squarefreeness is only necessary.
    """
    disc = discriminant(matrix)
    if disc.is_zero():
        return FiberAnalysis(disc.degree, None, False, None, False,
                             False if matrix.is_diagonal() else None)
    total = disc.degree
    real, squarefree = _roots_on_p1(disc)
    if squarefree and real % 2:
        raise RuntimeError("odd real root count for a squarefree real form")
    s = real // 2 if squarefree and real % 2 == 0 else None
    smooth_exact = squarefree if matrix.is_diagonal() else None
    return FiberAnalysis(total, real, squarefree, s, squarefree, smooth_exact)


def construct_section(a1: int, a2: int, a3: int, root_lists) -> ConicMatrix:
    """Diagonal section p1 x1^2 + p2 x2^2 + p3 x3^2 from prescribed roots.

    Each root list holds 2 a_i distinct rationals and the three lists are
    pairwise disjoint, so every p_i has only simple real zeros and the p_i
    are pairwise coprime: the section has 2(a1 + a2 + a3) simple real
    singular fibers and s = a1 + a2 + a3.
    """
    split = [a1, a2, a3]
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
    seen = set()
    for roots in lists:
        for r in roots:
            if r in seen:
                raise ValueError("root lists must be pairwise disjoint")
            seen.add(r)
    pairs = sorted(zip(split, lists), key=lambda t: t[0])
    forms = [form_from_roots(2 * a, roots) for a, roots in pairs]
    return diagonal_matrix(tuple(a for a, _ in pairs), forms)


# ---------------------------------------------------------------------------
# Pretty factorisation for output


def factor_low_degree(form: BinaryForm):
    """Factor an integer form into pieces of degree <= 2 when possible.

    Returns (content, [(factor_form, multiplicity), ...]) or None when the
    cofactor left after removing u, v and rational linear factors still has
    degree above two.  Every factor is primitive with integer coefficients
    (Gauss's lemma), and the u- and v-powers come first.
    """
    if form.is_zero():
        return None
    content, poly = realroots.primitive_part(form.coeffs)
    low = next(i for i, c in enumerate(poly) if c)
    factors = []
    if low:
        factors.append((BinaryForm(1, (0, 1)), low))  # u
    inf_mult = form.degree - realroots.degree(poly)
    if inf_mult:
        factors.append((BinaryForm(1, (1, 0)), inf_mult))  # v
    poly = poly[low:]
    for root in realroots.rational_roots(poly):
        lin = (-root.numerator, root.denominator)
        mult = 0
        while True:
            quot, rem = realroots.divmod_poly(poly, lin)
            if rem:
                break
            poly = quot
            mult += 1
        factors.append((BinaryForm(1, lin), mult))
    rest_deg = realroots.degree(poly)
    if rest_deg > 2:
        return None
    if rest_deg > 0:
        # homogenise the cofactor back to the missing degree
        factors.append((BinaryForm(rest_deg, poly), 1))
    return content, factors


def form_str(form: BinaryForm) -> str:
    """Expanded rendering like 'u^3*v - u*v^3'."""
    if form.is_zero():
        return "0"
    terms = []
    for i in range(form.degree, -1, -1):
        c = form.coeffs[i]
        if not c:
            continue
        ju = i
        jv = form.degree - i
        monomial = "*".join(
            part
            for part in (
                "u" if ju == 1 else f"u^{ju}" if ju else "",
                "v" if jv == 1 else f"v^{jv}" if jv else "",
            )
            if part
        )
        mag = abs(c)
        body = monomial if mag == 1 and monomial else (f"{mag}*{monomial}" if monomial else str(mag))
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    return " ".join(terms)


def factored_str(form: BinaryForm) -> str:
    """Factored rendering when a full degree <= 2 factorisation is found,
    the expanded polynomial otherwise."""
    result = factor_low_degree(form)
    if result is None:
        return form_str(form)
    content, factors = result
    parts = [] if content == 1 else [str(content)]
    for factor, mult in factors:
        base = form_str(factor)
        if sum(1 for c in factor.coeffs if c) > 1:
            base = f"({base})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    return "*".join(parts) if parts else "1"
