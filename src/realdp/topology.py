"""Hyperbolicity certification and piecewise-linear linking numbers.

A hypersurface X in P^3 is hyperbolic with respect to a point e not on X when
every real line through e meets X only in real points; the restriction of the
defining form to the line x + t e is a degree-d polynomial in t (the leading
coefficient is the value at e, hence nonzero), and hyperbolicity asks for d
real roots counted with multiplicity.  A seeded sampler tests random rational
lines: a failed line is an exact refutation, survival of all trials is
statistical support only.  A positive rescaling changes no root's reality or
multiplicity, so the form's coefficients, the center and each sampled point
are primitive integer vectors, and restrictions are computed over Z.

The center is fixed for a whole check, so the restriction comes from the
polar forms X_k = D_e^k X / k! (Garding 1959), D_e the derivative along e:
X(x + t e) = sum_k t^k X_k(x).  They are computed once per check, and a
trial evaluates each X_k at x from one power table per coordinate.  The
test of a line is `realroots.real_rooted_profile`, which stops at the first
Sturm remainder that shows a nonreal root.

Linking numbers are computed on the double cover S^n -> RP^n, n in {2, 3}.
The center E (a point of RP^2, a line of RP^3) is cut out by two independent
linear equations, and a hyperplane L containing E by one equation lying in
their span.  The lift of L is a great subsphere, and W = {x in lift(L) :
x . b >= 0} is the hemisphere bounded by the lift of E, where b spans the
complement of the normal of L inside the span of E's normals.  The linking
number of a PL cycle with E is the signed count of crossings of the full lift
of the cycle through W: a null-homotopic cycle lifts to two antipodal copies,
a cycle closed via the antipode lifts to a single loop of twice the stored
length.  Points of cycles are nonzero rational vectors read as rays and stored
as primitive integer vectors, one per ray, as are the normals of E and L and
b; the geodesic between consecutive rays is their nonnegative span, so
crossing points stay integral and all signs are exact.  Non-transversal
configurations are rejected, never perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import realroots
from .intlinalg import dot, int_tuple, primitive_vector, rational_tuple

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

    def rational(self) -> Fraction:
        """Fraction with numerator in [-10^4, 10^4], denominator in [1, 10^4]."""
        num = self.next_u64() % 20001 - 10000
        den = self.next_u64() % 10000 + 1
        return Fraction(num, den)


# ---------------------------------------------------------------------------
# Hypersurfaces in P^3 and the all-real-roots test


@dataclass(frozen=True)
class HypersurfaceSpec:
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
        an integer point x and the polar forms of X at e."""
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


def _polar_forms(x: HypersurfaceSpec, e):
    """The polar forms of X at a center e (checked by the caller).

    The top form is the constant X(e), the top coefficient of every
    restriction, so a line's degree drops exactly when the center lies on X.
    Equal monomials may repeat in `terms`, so X(e) is the sum of its terms.
    """
    polar = x.polar_forms(e)
    if not sum([c for _, c in polar[-1]]):
        raise ValueError("center on hypersurface")
    return polar


def all_real_restriction(x: HypersurfaceSpec, e, p) -> bool:
    """Whether the line through p and e meets X only in real points.

    Roots count with multiplicity, so tangent lines (boundary contact) still
    pass when every root is real.
    """
    e, p = _point(e, "center"), _point(p, "sample point")
    if p in (e, realroots.neg(e)):
        raise ValueError("sample point coincides with the center")
    return realroots.real_rooted_profile(x.restrict_to_line(p, _polar_forms(x, e))) is not None


@dataclass(frozen=True)
class HyperbolicityVerdict:
    refuted: bool
    witness: tuple | None
    trial: int | None
    trials: int
    boundary_contacts: int


def hyperbolicity_check(x: HypersurfaceSpec, e, trials: int, seed: int) -> HyperbolicityVerdict:
    """Seeded random-line test of hyperbolicity with respect to e.

    Refutation (some line with a nonreal intersection) is exact and reports
    the first witness by trial index; surviving all trials is statistical
    support, not a proof.  Trials with a multiple real root are tolerated and
    tallied as boundary contacts.
    """
    trials, seed = int_tuple((trials, seed))
    if trials < 1:
        raise ValueError("need at least one trial")
    e = _point(e, "center")  # with e = 0 every sample point would be parallel to e
    polar = _polar_forms(x, e)
    rays_of_e = (e, realroots.neg(e))
    rng = SplitMix64(seed)
    boundary = 0
    for trial in range(1, trials + 1):
        while True:
            point = tuple(rng.rational() for _ in range(4))
            if any(point) and (ray := primitive_vector(point)) not in rays_of_e:
                break
        roots = realroots.real_rooted_profile(x.restrict_to_line(ray, polar))
        if roots is None:
            return HyperbolicityVerdict(True, point, trial, trials, boundary)
        if roots.distinct < x.degree:
            boundary += 1
    return HyperbolicityVerdict(False, None, None, trials, boundary)


# ---------------------------------------------------------------------------
# PL cycles on the double cover and linking numbers


@dataclass(frozen=True)
class GreatSubsphere:
    """Linear subspace of RP^n given by independent normal vectors."""

    ambient: int
    normals: tuple

    def __post_init__(self):
        if int_tuple((self.ambient,))[0] not in (2, 3):
            raise ValueError("ambient projective space must be RP^2 or RP^3")
        normals = tuple(rational_tuple(n) for n in self.normals)
        if any(len(n) != self.ambient + 1 for n in normals):
            raise ValueError("normals must have ambient + 1 coordinates")
        if _rank(normals) != len(normals):
            raise ValueError("normals must be linearly independent")
        object.__setattr__(self, "normals", tuple(primitive_vector(n) for n in normals))


def _rank(vectors):
    """Rank by fraction-free elimination (no division, so no Fraction)."""
    rows = [list(v) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            rows[i] = [rows[rank][col] * a - rows[i][col] * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@dataclass(frozen=True)
class PLCycle:
    """Closed PL curve on S^n, stored as rays (primitive integer vectors).

    closure = "sphere": the stored points already close up on the sphere (the
    projection to RP^n is null-homotopic, and the full preimage is this loop
    plus its antipodal copy).  closure = "antipode": the loop continues from
    the last point to the antipode of the first; the full lift traverses the
    stored points and then their antipodes once each.
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

    def lift_segments(self):
        """Segments (as ray pairs) of the full preimage in S^n."""
        pts = self.points
        if self.closure == "sphere":
            loops = [list(pts), [realroots.neg(p) for p in pts]]
        else:
            loops = [list(pts) + [realroots.neg(p) for p in pts]]
        segments = []
        for loop in loops:
            for i, p in enumerate(loop):
                segments.append((p, loop[(i + 1) % len(loop)]))
        return segments


def _hemisphere_frame(e: GreatSubsphere, chain: GreatSubsphere | None):
    """Normal n of L and co-orientation b = (n.n) c - (c.n) n, c a normal of
    the center not parallel to n, as primitive integer vectors."""
    if len(e.normals) != 2:
        raise ValueError("the center must be cut out by two independent equations")
    if chain is None:
        chain = GreatSubsphere(e.ambient, (e.normals[0],))
    if chain.ambient != e.ambient:
        raise ValueError("center and chain live in different ambient spaces")
    if len(chain.normals) != 1:
        raise ValueError("the bounding subspace must be a hyperplane")
    n_l = chain.normals[0]
    span_rank = _rank(e.normals)
    if _rank(e.normals + (n_l,)) != span_rank:
        raise ValueError("the hyperplane must contain the center")
    nn = dot(n_l, n_l)
    for candidate in e.normals:
        b = [nn * c - dot(candidate, n_l) * l for c, l in zip(candidate, n_l)]
        if any(b):
            return n_l, primitive_vector(b)
    raise ValueError("degenerate normals")  # unreachable: normals independent


def linking_number(cycle: PLCycle, e: GreatSubsphere, chain: GreatSubsphere | None = None) -> int:
    """Signed crossing count of the lifted cycle with the hemisphere W.

    `chain` is the hyperplane L containing the center e; when omitted it is
    derived from e's first normal.  Only |lk| is meaningful downstream: it is
    independent of the hemisphere and of the choice of L for transversal
    input.  A vertex on W, a crossing through the boundary of W, or a segment
    inside the supporting hyperplane touching W is rejected with the
    offending segment index ("perturb input").
    """
    if cycle.ambient != e.ambient:
        raise ValueError("cycle and center live in different ambient spaces")
    n_l, b = _hemisphere_frame(e, chain)
    for idx, p in enumerate(cycle.points):
        if all(dot(p, n) == 0 for n in e.normals):
            raise ValueError(f"cycle vertex {idx} lies on the center's lift")
    total = 0
    for idx, (p, q) in enumerate(cycle.lift_segments()):
        alpha, beta = dot(p, n_l), dot(q, n_l)
        if alpha == 0:
            if dot(p, b) >= 0:
                raise ValueError(f"perturb input: vertex of segment {idx} lies on the hemisphere")
            if beta == 0 and dot(q, b) >= 0:
                raise ValueError(f"perturb input: segment {idx} lies in the hemisphere wall")
            continue
        if beta == 0:
            if dot(q, b) >= 0:
                raise ValueError(f"perturb input: vertex of segment {idx} lies on the hemisphere")
            continue
        if (alpha > 0) == (beta > 0):
            continue
        crossing = tuple([beta * pi - alpha * qi for pi, qi in zip(p, q)])
        if beta < 0:
            crossing = realroots.neg(crossing)  # keep the positive combination
        side = dot(crossing, b)
        if side == 0:
            raise ValueError(f"perturb input: segment {idx} crosses the center's lift")
        if side > 0:
            total += 1 if alpha < 0 else -1
    return total
