"""Hyperbolicity certification and piecewise-linear linking numbers.

A hypersurface X in P^3 is hyperbolic with respect to a point e not on X when
every real line through e meets X only in real points; the restriction of the
defining form to the line x + t e is a degree-d polynomial in t (the leading
coefficient is the value at e, hence nonzero), and hyperbolicity asks for d
real roots counted with multiplicity.  A seeded sampler tests random rational
lines: a failed line is an exact refutation, survival of all trials is
statistical support only, save for the quadrics below.  A positive rescaling
changes no root's reality or multiplicity, so the form's coefficients, the
center and each sampled point are primitive integer vectors, and
restrictions are computed over Z.

The center is fixed for a whole check, so the restriction comes from the
polar forms X_k = D_e^k X / k! (Garding 1959), D_e the derivative along e:
X(x + t e) = sum_k t^k X_k(x).  A trial is integer-only: it draws four
(num, den) pairs, clears their denominators into an integer point x on their
ray, and moves x along its line to its primitive point w on the hyperplane
x_j = 0, j the first coordinate with e_j != 0.  The polar forms are needed
on x_j = 0 alone; they are computed once per check, one x_j-slice of X at a
time, as coefficient lists in a triangular monomial layout, which is the
plan of every restriction: each monomial value at w is one product of a
value one degree lower and one coordinate, and each X_k(w) one sum of
coefficient times value.  The restriction at w is the one at x after an
affine change of parameter, so every root keeps its reality and
multiplicity, and the verdict, the witness and the boundary contacts are
those of the restriction at x.  The test of a line is
`realroots.real_rooted_profile`, which stops at the first Sturm remainder
that shows a nonreal root.

A quadric's verdict on a trial is the sign of the integer ternary form
D(w) = X_1(w)^2 - 4 X(e) X_0(w) at its w != 0: when D is positive definite
on x_j = 0 (Sylvester's criterion), every line meets X in two distinct real
points, and the check returns this proof without drawing a line.

Linking numbers are degrees of projections.  The center E (a point of RP^2,
a line of RP^3) is cut out by two independent linear equations, and a
hyperplane L containing E by one equation n lying in their span; c is the
first equation of E not parallel to n.  Projection from E sends a point x
off E to [x . n : x . c] in the pencil RP^1 of hyperplanes through E, and L
is the point [0 : 1].  The linking number of a PL cycle with E is the degree
of this map on the cycle: the signed count of the cycle's crossings of L.
Points of cycles are nonzero rational vectors read as rays on S^n, stored as
primitive integer vectors like the normals of E and L; a segment is the
nonnegative span of consecutive rays, and the cycle closes back to its first
ray or its antipode.  A segment from p to q crosses L where alpha = p . n and
beta = q . n differ in sign, at the ray of +-(beta p - alpha q), on the side
of beta (p . c) - alpha (q . c).  No Python function runs per vertex: x . n
is one comprehension over the vertices, written out term by term, and the
crossings are where a C-level comparison of consecutive signs differs;
x . c is read only at crossing ends and at vertices on L.  The hyperplane
contains the center when the three normals are dependent, all 3 x 3 minors
of their matrix zero: one determinant in RP^2, four in RP^3; the normals
of a subspace are independent when one of their maximal minors is nonzero.
Non-transversal input is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, compress
from math import gcd, lcm
from operator import mul, ne
from typing import NamedTuple

from . import realroots
from .intlinalg import Value, _bareiss, determinant, dot, int_tuple, primitive_vector, rational_tuple

# ---------------------------------------------------------------------------
# Deterministic rational sampling

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64 update)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def rational(self) -> tuple:
        """(num, den), not reduced, with num in [-10^4, 10^4] from the next
        64-bit word and den in [1, 10^4] from the one after it."""
        state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        num = (z ^ (z >> 31)) % 20001 - 10000
        self.state = state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return num, (z ^ (z >> 31)) % 10000 + 1


# ---------------------------------------------------------------------------
# Hypersurfaces in P^3 and the all-real-roots test


class HypersurfaceSpec(Value):
    """Homogeneous form in four variables, stored as sparse monomials."""

    degree: int
    terms: tuple  # ((e0, e1, e2, e3), int or Fraction) pairs, stored with coprime ints

    def __post_init__(self):
        if int_tuple((self.degree,))[0] < 0:
            raise ValueError("degree must be nonnegative")
        terms = tuple(self.terms)
        clean = []
        for (exps, _), coeff in zip(terms, rational_tuple(c for _, c in terms)):
            exps = int_tuple(exps)
            if len(exps) != 4 or any(e < 0 for e in exps):
                raise ValueError("monomials use four nonnegative exponents")
            if sum(exps) != self.degree:
                raise ValueError("all monomials must have the declared total degree")
            if coeff:
                clean.append((exps, coeff))
        if clean:  # a positive factor keeps every root: store coprime integers
            clean = zip([exps for exps, _ in clean], primitive_vector([c for _, c in clean]))
        object.__setattr__(self, "terms", tuple(clean))

    def restrict_to_line(self, x, plan):
        """Coefficients (low to high) of t |-> X(x + t e), X as stored, for
        an integer point x on x_j = 0 and the plan (j, polar) of
        `_plane_polar_forms` of X at e.  In their layout the values of
        degree n are those of degree n - 1 times y0, the last n of them
        times y1 and the last one times y2, y the coordinates other than
        x_j, and each coefficient is one sum of coefficient times value."""
        j, polar = plan
        y0, y1, y2 = x[:j] + x[j + 1:]
        out, values = [], [1]
        for n, coeffs in enumerate(reversed(polar)):
            if n:
                last = values[-n:]
                values = [*[v * y0 for v in values], *[v * y1 for v in last], last[-1] * y2]
            out.append(sum(map(mul, coeffs, values)))
        return tuple(out[::-1])


def _point(coords, what):
    """A point of P^3, four rationals not all zero, as a primitive integer vector."""
    point = rational_tuple(coords)
    if len(point) != 4:
        raise ValueError(f"{what} needs four coordinates, got {len(point)}")
    if not any(point):
        raise ValueError(f"{what} must be a nonzero point")
    return primitive_vector(point)


def _plane_polar_forms(x: HypersurfaceSpec, e):
    """j, the first coordinate with e_j != 0, and the polar forms X_0, ...,
    X_d of X at a center e (checked by the caller) on x_j = 0, in the other
    coordinates y: X_k as the list of its coefficients, y0^a y1^b y2^c at
    s (s + 1) / 2 + c for s = b + c.  With S_m the slice of X of x_j-degree
    m and e' the rest of e, X(w + t e) = sum_m (e_j t)^m S_m(w + t e') on
    x_j = 0, so X_k sums e_j^m D_e'^(k-m) S_m / (k-m)!, each derivative
    divided exactly by its order, one slice at a time: only C(d + 3, 3)
    coefficients are held.  The top form is the constant X(e), the top
    coefficient of every restriction, so a line's degree drops exactly when
    the center lies on X."""
    d = x.degree
    j = next(i for i, ei in enumerate(e) if ei)
    f0, f1, f2 = e[:j] + e[j + 1:]
    forms = [[0] * ((d - k + 1) * (d - k + 2) // 2) for k in range(d + 1)]
    slices = {}
    for exps, c in x.terms:
        m, (_, b, c2) = exps[j], exps[:j] + exps[j + 1:]
        if m not in slices:
            slices[m] = [0] * len(forms[m])
        slices[m][(b + c2) * (b + c2 + 1) // 2 + c2] += c
    for m, part in slices.items():
        scale = e[j] ** m
        for k in range(m, d + 1):
            n = d - k  # part is the (k - m)-th polar form, of degree n
            forms[k] = [f + scale * c for f, c in zip(forms[k], part)]
            if k == d:
                break
            derived, i = [], k - m + 1
            for s in range(n):  # derived block s from block s + 1 of part
                lo, hi = s * (s + 1) // 2, (s + 1) * (s + 2) // 2
                derived += [(f0 * (n - s) * part[lo + c] + f1 * (s + 1 - c) * part[hi + c]
                             + f2 * (c + 1) * part[hi + c + 1]) // i for c in range(s + 1)]
            part = derived
    if not forms[d][0]:
        raise ValueError("center on hypersurface")
    return j, tuple(forms)


def _plane_point(e, j, p):
    """The primitive point w of the line through e and an integer point p
    on x_j = 0: e_j p - p_j e over its content, zero when p is a multiple of
    e.  X(p + t e) = e_j^(-d) X(e_j p - p_j e + u e) for u = p_j + e_j t, and
    dividing by the content rescales u, so every root keeps its reality and
    multiplicity."""
    ej, pj = e[j], p[j]
    w = [ej * pi - pj * ei for pi, ei in zip(p, e)]
    g = gcd(*w) or 1
    return [c // g for c in w]


def _definite_line_discriminant(polar) -> bool:
    """Whether D(w) = X_1(w)^2 - 4 X(e) X_0(w), the discriminant of a
    quadric on the line w + u e, is positive definite on x_j = 0, from the
    forms of `_plane_polar_forms`.

    Its matrix is l l^T - 2 X(e) H, l the coefficients of X_1 and H the
    Hessian of X_0: a term q y_a y_b takes 2 X(e) q from entries (a, b) and
    (b, a), so 4 X(e) q when a = b.  `intlinalg._bareiss` raises unless
    every leading minor is positive.
    """
    lin, (q00, q01, q02, q11, q12, q22), (top,) = polar[1], polar[0], polar[2]
    h = 2 * top
    quad = [[2 * q00, q01, q02], [q01, 2 * q11, q12], [q02, q12, 2 * q22]]
    try:
        _bareiss([[a * b - h * q for b, q in zip(lin, row)] for a, row in zip(lin, quad)])
    except ValueError:
        return False
    return True


def all_real_restriction(x: HypersurfaceSpec, e, p) -> bool:
    """Whether the line through p and e meets X only in real points.

    Roots count with multiplicity, so tangent lines (boundary contact) still
    pass when every root is real.
    """
    e, p = _point(e, "center"), _point(p, "sample point")
    if p in (e, realroots.neg(e)):
        raise ValueError("sample point coincides with the center")
    plan = _plane_polar_forms(x, e)
    return realroots.real_rooted_profile(x.restrict_to_line(_plane_point(e, plan[0], p), plan)) is not None


class HyperbolicityVerdict(NamedTuple):
    refuted: bool
    witness: tuple | None
    trial: int | None
    trials: int
    boundary_contacts: int


def hyperbolicity_check(x: HypersurfaceSpec, e, trials: int, seed: int) -> HyperbolicityVerdict:
    """Seeded random-line test of hyperbolicity with respect to e.

    Refutation (some line with a nonreal intersection) is exact and reports
    the first witness by trial index; surviving all trials is statistical
    support, not a proof, except for a quadric whose line discriminant is
    positive definite: then every line meets X in two distinct real points,
    a proof that covers all `trials` lines requested, and none is drawn.
    Trials with a multiple real root are tolerated and tallied as boundary
    contacts.  Each trial draws four rationals as integer pairs, clears
    their denominators with one lcm, and draws again when they are zero or
    a multiple of e; its line is restricted at `_plane_point`.  Fractions
    are built only for the witness.
    """
    trials, seed = int_tuple((trials, seed))
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    e = _point(e, "center")  # with e = 0 every sample point would be parallel to e
    plan = j, polar = _plane_polar_forms(x, e)
    if x.degree == 2 and _definite_line_discriminant(polar):
        return HyperbolicityVerdict(False, None, None, trials, 0)
    rng = SplitMix64(seed)
    boundary = 0
    for trial in range(1, trials + 1):
        while True:
            draws = [rng.rational() for _ in range(4)]
            den = lcm(*[d for _, d in draws])
            if any(w := _plane_point(e, j, [n * (den // d) for n, d in draws])):
                break
        roots = realroots.real_rooted_profile(x.restrict_to_line(w, plan))
        if roots is None:
            return HyperbolicityVerdict(True, tuple([Fraction(n, d) for n, d in draws]), trial, trials, boundary)
        if roots.distinct < x.degree:
            boundary += 1
    return HyperbolicityVerdict(False, None, None, trials, boundary)


# ---------------------------------------------------------------------------
# PL cycles and linking numbers


def _check_ambient(ambient) -> None:
    """Raise ValueError unless cycles and centers may live in RP^ambient."""
    if int_tuple((ambient,))[0] not in (2, 3):
        raise ValueError("ambient projective space must be RP^2 or RP^3")


class GreatSubsphere(Value):
    """Linear subspace of RP^n given by independent normal vectors."""

    ambient: int
    normals: tuple

    def __post_init__(self):
        _check_ambient(self.ambient)
        normals = tuple(rational_tuple(n) for n in self.normals)
        if any(len(n) != self.ambient + 1 for n in normals):
            raise ValueError("normals must have ambient + 1 coordinates")
        if not _independent(normals):
            raise ValueError("normals must be linearly independent")
        object.__setattr__(self, "normals", tuple(primitive_vector(n) for n in normals))


def _independent(vectors) -> bool:
    """Whether k rational vectors are linearly independent: whether one of
    the k x k minors of their matrix, one per k of their coordinates, is
    nonzero.  Three vectors, the hyperplane's normal and the center's two of
    every `linking_number` call, take `determinant` in closed form."""
    return any(map(determinant, combinations(zip(*vectors), len(vectors))))


class PLCycle(Value):
    """Closed PL curve in RP^n, stored as rays (primitive integer vectors).

    closure = "sphere": the last point is joined to the first, so the curve
    closes up on S^n and is null-homotopic in RP^n.  closure = "antipode":
    the last point is joined to the antipode of the first, so the curve
    closes up only in RP^n, where it is not null-homotopic.
    """

    ambient: int
    closure: str
    points: tuple

    def __post_init__(self):
        _check_ambient(self.ambient)
        if self.closure not in ("sphere", "antipode"):
            raise ValueError("closure must be 'sphere' or 'antipode'")
        pts = tuple(rational_tuple(p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("a cycle needs at least two points")
        if any(len(p) != self.ambient + 1 for p in pts):
            raise ValueError("points must have ambient + 1 coordinates")
        if any(not any(p) for p in pts):
            raise ValueError("points must be nonzero")
        pts = tuple(primitive_vector(p) for p in pts)
        for i, (p, q) in enumerate(zip(pts, pts[1:])):
            if q == realroots.neg(p):
                raise ValueError(f"consecutive points {i}, {i + 1} are antipodal")
        if self.closure == "sphere" and pts[-1] == realroots.neg(pts[0]):
            raise ValueError("closing segment joins antipodal points")
        if self.closure == "antipode" and pts[-1] == pts[0]:
            raise ValueError("antipodal closure needs last point distinct from first")
        object.__setattr__(self, "points", pts)


def _projection(e: GreatSubsphere, chain: GreatSubsphere | None):
    """The normal n of the hyperplane L through the center and the first
    normal c of the center not parallel to n; together they span the
    center's normals, so x lies on the center exactly when x.n = x.c = 0."""
    if len(e.normals) != 2:
        raise ValueError("the center must be cut out by two independent equations")
    if chain is None:
        return e.normals
    if chain.ambient != e.ambient:
        raise ValueError("center and chain live in different ambient spaces")
    if len(chain.normals) != 1:
        raise ValueError("the bounding subspace must be a hyperplane")
    n_l = chain.normals[0]
    if _independent(e.normals + (n_l,)):
        raise ValueError("the hyperplane must contain the center")
    first, second = e.normals  # primitive, so parallel means equal up to sign
    return n_l, second if first in (n_l, realroots.neg(n_l)) else first


def linking_number(cycle: PLCycle, e: GreatSubsphere, chain: GreatSubsphere | None = None) -> int:
    """Degree of the projection from the center e on the cycle: the signed
    count of the stored segments' crossings of the hyperplane L.

    `chain` is L, a hyperplane containing e; when omitted it is the zero set of
    e's first normal.  A segment from p to q with alpha = p.n and beta = q.n of
    opposite signs adds the sign of beta (p.c) - alpha (q.c): x.n is read at
    every vertex in one comprehension, with no call per vertex, the crossings
    are found by comparing consecutive signs with `compress`, and x.c (`dot`)
    is read only at crossing ends and at vertices on L.  Only |lk| is
    meaningful downstream: it does not depend on L for transversal input.  A
    vertex on the center, then a vertex on L, then a crossing through the
    center is rejected with its index in the stored cycle ("perturb input").
    """
    if cycle.ambient != e.ambient:
        raise ValueError("cycle and center live in different ambient spaces")
    n_l, c = _projection(e, chain)
    points = cycle.points
    if len(n_l) == 3:
        n0, n1, n2 = n_l
        alphas = [x0 * n0 + x1 * n1 + x2 * n2 for x0, x1, x2 in points]
    else:
        n0, n1, n2, n3 = n_l
        alphas = [x0 * n0 + x1 * n1 + x2 * n2 + x3 * n3 for x0, x1, x2, x3 in points]
    if 0 in alphas:  # L contains the center, so only these vertices can lie on it
        on_l = [idx for idx, alpha in enumerate(alphas) if not alpha]
        for idx in on_l:
            if not dot(points[idx], c):
                raise ValueError(f"perturb input: cycle vertex {idx} lies on the center")
        raise ValueError(f"perturb input: cycle vertex {on_l[0]} lies on the hyperplane")
    sphere = cycle.closure == "sphere"
    alphas.append(alphas[0] if sphere else -alphas[0])  # at the end closing the cycle
    ends = points[1:] + (points[0] if sphere else realroots.neg(points[0]),)
    positive = [alpha > 0 for alpha in alphas]
    total = 0
    for idx in compress(range(len(points)), map(ne, positive, positive[1:])):
        side = alphas[idx + 1] * dot(points[idx], c) - alphas[idx] * dot(ends[idx], c)
        if side == 0:
            raise ValueError(f"perturb input: segment {idx} crosses the center")
        total += 1 if side > 0 else -1
    return total
