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
X(x + t e) = sum_k t^k X_k(x).  They are computed once per check.  A trial
is integer-only: it draws four (num, den) pairs, clears their denominators
into the primitive ray x, and moves x along its line to the point
w = e_j x - x_j e on the hyperplane x_j = 0, j the first coordinate with
e_j != 0.  Only the polar terms free of x_j are kept, and the trial
evaluates each at w from one power table per coordinate.  The restriction
at w is the one at x after the affine change of parameter u = x_j + e_j t
and a nonzero factor, so every root keeps its reality and multiplicity, and
the verdict, the witness and the boundary contacts are those of the
restriction at x.  The test of a line is `realroots.real_rooted_profile`,
which stops at the first Sturm remainder that shows a nonreal root.

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
of beta (p . c) - alpha (q . c): x . n is read at every vertex, x . c only at
crossing ends and at vertices on L.  Non-transversal input is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def rational(self) -> tuple:
        """(num, den), a rational num / den with num in [-10^4, 10^4] and
        den in [1, 10^4], not reduced."""
        num = self.next_u64() % 20001 - 10000
        return num, self.next_u64() % 10000 + 1


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

    def polar_forms(self, e):
        """[X_0, ..., X_d] with X(x + t e) = sum_k t^k X_k(x), for an integer
        point e, each form stored like `terms`; the terms of X_d sum to X(e).

        X_k = D_e X_(k-1) / k with D_e = sum_i e_i d/dx_i.  The division is
        exact: X_k has integer coefficients, since they are coefficients of
        the expansion of X(x + t e) over Z.
        """
        e = int_tuple(e)
        if len(e) != 4:
            raise ValueError(f"center needs four coordinates, got {len(e)}")
        along = [(i, ei) for i, ei in enumerate(e) if ei]
        forms = [self.terms]
        for k in range(1, self.degree + 1):
            derived = {}
            for exps, coeff in forms[-1]:
                for i, ei in along:
                    if ki := exps[i]:
                        lower = exps[:i] + (ki - 1,) + exps[i + 1:]
                        derived[lower] = derived.get(lower, 0) + coeff * ki * ei
            forms.append(tuple([(exps, c // k) for exps, c in derived.items() if c]))
        return tuple(forms)

    def restrict_to_line(self, x, polar):
        """Coefficients (low to high) of t |-> X(x + t e), X as stored, for
        an integer point x and the polar forms of X at e.  At a point with
        x_j = 0 the forms may keep only their terms free of x_j."""
        tables = []
        for xi in x:
            powers = [1]
            for _ in range(self.degree):
                powers.append(powers[-1] * xi)
            tables.append(powers)
        x0, x1, x2, x3 = tables
        return realroots.normalize(
            [sum([c * x0[a] * x1[b] * x2[f] * x3[g] for (a, b, f, g), c in form]) for form in polar]
        )


def _point(coords, what):
    """A point of P^3, four rationals not all zero, as a primitive integer vector."""
    point = rational_tuple(coords)
    if len(point) != 4:
        raise ValueError(f"{what} needs four coordinates, got {len(point)}")
    if not any(point):
        raise ValueError(f"{what} must be a nonzero point")
    return primitive_vector(point)


def _plane_polar_forms(x: HypersurfaceSpec, e):
    """j, the first coordinate with e_j != 0, and the polar forms of X at a
    center e (checked by the caller) keeping only their terms free of x_j.

    The top form is the constant X(e), the top coefficient of every
    restriction, so a line's degree drops exactly when the center lies on X.
    Equal monomials may repeat in `terms`, so X(e) is the sum of its terms.
    """
    polar = x.polar_forms(e)
    if not sum([c for _, c in polar[-1]]):
        raise ValueError("center on hypersurface")
    j = next(i for i, ei in enumerate(e) if ei)
    return j, tuple([tuple([term for term in form if not term[0][j]]) for form in polar])


def _line_test(x: HypersurfaceSpec, e, j, polar):
    """The test of the lines through a center e, given `_plane_polar_forms`
    of X at e: a function of a primitive point p off e that returns
    `realroots.real_rooted_profile` of X on the line through p and e.

    The line is restricted at its point w = e_j p - p_j e on the hyperplane
    x_j = 0, where only the polar terms free of x_j survive.  As
    w + u e = e_j (p + t e) for u = p_j + e_j t, X(p + t e) = e_j^(-d)
    X(w + u e): an affine change of parameter, which keeps the real roots,
    the distinct roots and every multiplicity.
    """
    ej = e[j]

    def test(p):
        pj = p[j]
        w = [ej * pi - pj * ei for pi, ei in zip(p, e)]
        return realroots.real_rooted_profile(x.restrict_to_line(w, polar))

    return test


def _definite_line_discriminant(j, polar) -> bool:
    """Whether D(w) = X_1(w)^2 - 4 X(e) X_0(w), the discriminant of a
    quadric on the line w + u e, is positive definite on x_j = 0.

    Its matrix is l l^T - 2 X(e) H, l the coefficients of X_1 and H the
    Hessian of X_0: a term q x_a x_b takes 2 X(e) q from entries (a, b) and
    (b, a), so 4 X(e) q when a = b.  Row and column j are zero and dropped;
    `intlinalg._bareiss` raises unless every leading minor is positive.
    """
    lin = [0] * 4
    for exps, c in polar[1]:
        lin[exps.index(1)] += c
    h = 2 * sum([c for _, c in polar[2]])
    m = [[a * b for b in lin] for a in lin]
    for exps, q in polar[0]:
        a, b = [i for i, k in enumerate(exps) for _ in range(k)]
        m[a][b] -= h * q
        m[b][a] -= h * q
    try:
        _bareiss([row[:j] + row[j + 1:] for row in m[:j] + m[j + 1:]])
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
    return _line_test(x, e, *_plane_polar_forms(x, e))(p) is not None


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
    contacts.  Each trial draws four rationals as integer pairs and takes
    the primitive ray through them: the lcm of the denominators clears them
    and one gcd removes the content, which gives the same vector as
    `primitive_vector` of the reduced Fractions, the unique primitive
    positive multiple.  Fractions are built only for the witness.
    """
    trials, seed = int_tuple((trials, seed))
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    e = _point(e, "center")  # with e = 0 every sample point would be parallel to e
    j, polar = _plane_polar_forms(x, e)
    if x.degree == 2 and _definite_line_discriminant(j, polar):
        return HyperbolicityVerdict(False, None, None, trials, 0)
    test = _line_test(x, e, j, polar)
    rays_of_e = (e, realroots.neg(e))
    rng = SplitMix64(seed)
    boundary = 0
    for trial in range(1, trials + 1):
        while True:
            draws = [rng.rational() for _ in range(4)]
            den = lcm(*[d for _, d in draws])
            ints = [n * (den // d) for n, d in draws]
            if (g := gcd(*ints)) and (ray := tuple([c // g for c in ints])) not in rays_of_e:
                break
        roots = test(ray)
        if roots is None:
            return HyperbolicityVerdict(True, tuple([Fraction(n, d) for n, d in draws]), trial, trials, boundary)
        if roots.distinct < x.degree:
            boundary += 1
    return HyperbolicityVerdict(False, None, None, trials, boundary)


# ---------------------------------------------------------------------------
# PL cycles and linking numbers


class GreatSubsphere(Value):
    """Linear subspace of RP^n given by independent normal vectors."""

    ambient: int
    normals: tuple

    def __post_init__(self):
        if int_tuple((self.ambient,))[0] not in (2, 3):
            raise ValueError("ambient projective space must be RP^2 or RP^3")
        normals = tuple(rational_tuple(n) for n in self.normals)
        if any(len(n) != self.ambient + 1 for n in normals):
            raise ValueError("normals must have ambient + 1 coordinates")
        if not _independent(normals):
            raise ValueError("normals must be linearly independent")
        object.__setattr__(self, "normals", tuple(primitive_vector(n) for n in normals))


def _independent(vectors) -> bool:
    """Whether rational vectors are linearly independent: det(u . v) != 0."""
    return determinant([[dot(u, v) for v in vectors] for u in vectors]) != 0


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
        if int_tuple((self.ambient,))[0] not in (2, 3):
            raise ValueError("ambient projective space must be RP^2 or RP^3")
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
    every vertex, x.c only at crossing ends and at vertices on L.  Only |lk| is
    meaningful downstream: it does not depend on L for transversal input.  A
    vertex on the center, then a vertex on L, then a crossing through the
    center is rejected with its index in the stored cycle ("perturb input").
    """
    if cycle.ambient != e.ambient:
        raise ValueError("cycle and center live in different ambient spaces")
    n_l, c = _projection(e, chain)
    points = cycle.points
    alphas = [dot(p, n_l) for p in points]
    if 0 in alphas:  # L contains the center, so only these vertices can lie on it
        on_l = [idx for idx, alpha in enumerate(alphas) if not alpha]
        for idx in on_l:
            if not dot(points[idx], c):
                raise ValueError(f"perturb input: cycle vertex {idx} lies on the center")
        raise ValueError(f"perturb input: cycle vertex {on_l[0]} lies on the hyperplane")
    sphere = cycle.closure == "sphere"
    ends = points[1:] + (points[0] if sphere else realroots.neg(points[0]),)
    total = 0
    for idx, (alpha, beta) in enumerate(zip(alphas, alphas[1:] + [alphas[0] if sphere else -alphas[0]])):
        if (alpha > 0) != (beta > 0):
            side = beta * dot(points[idx], c) - alpha * dot(ends[idx], c)
            if side == 0:
                raise ValueError(f"perturb input: segment {idx} crosses the center")
            total += 1 if side > 0 else -1
    return total
