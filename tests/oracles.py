"""Test-only oracles: brute-force counterparts of library routines.

Box enumeration checks the ellipsoid search of `realdp.search`, and
ClassVector pairings with every (-1)-class, the genus and l(D) from D + K
and D - K, and Di Rocco's very-ampleness test check the integer kernel of
its `check_conditions`.  The blow-up constructor `blow_up` builds a
blown-up model from its base by direct sums of lattices and real bases, and
checks the real basis that the catalogue table declares for each of the 13
blown-up surfaces: field for field, once `rebase` re-presents the blow-ups
of D2 and G2 at a real point in the bases declared for D2_1_0 and G2_1_0,
and on the real side for the blow-ups of Q31, which it builds on
U + <-1>^2k and the catalogue on Z^{1,2k+1}; `quadric_to_plane`, the
change of basis of Bl_1(P^1 x P^1) = Bl_2(P^2), carries the one onto the
other.  The Fincke-Pohst enumeration of the window {c.c = -1, c.K = -1}
checks the (-1)-classes that `catalog.minus_one_curves` writes down from
the classical list, and gives `blow_up` those of U + <-1>^m.  The
conjugation of each surface built from its geometry
(`direct_sum_conjugation`: the conic-bundle swap, the Geiser and Bertini
reflections, the ruling swap and the blow-up direct sums, which
`declared_conjugation` moves to Z^{1,2k+1} for the blow-ups of Q31) checks
the one that `catalog._model` derives from the real lattice.
`combination` forms the class sums and multiples that the library, which
only pairs classes, lacks; Hermite normal forms, integer kernels and fixed
sublattices check that each real lattice is the fixed part of that
conjugation; the Smith normal form checks
primitivity and kernel saturation in the lattice tests; the linking criterion
sums linking numbers over the components of a curve, and the winding number
of the full preimage of a cycle on S^n, summed in floats, checks the signed
`topology.linking_number`, as does the loop that takes both functionals
x.n and x.c at every vertex, which also checks its rejections; that loop
finds c by a 2 x 2 minor and the chain's containment of the center by a
Hermite normal form, not by the library.  Matrix-vector products and
pairings by double loops check `intlinalg.mat_vec` and `ClassVector.dot`,
and the oracles that need such a product take these.  Matrix products,
inverses and signatures check isometries, involutions and the signature
certificate of the class enumeration; the Fincke-Pohst search on a
rational LDL^T factorisation checks the fraction-free one of
`intlinalg.enumerate_quadratic`, and its pivots check the Bareiss minors; a
squarefree decomposition with one Sturm count per part, and a Sturm chain
at every multiplicity level down to degree two, check
`realroots.root_profile` and its closed form for quadratics.  Long
division over Q (`divmod_poly`) and Euclid's gcd over Q (`gcd_over_q`),
arithmetic the integer-only `realroots` does not have, check its exact
quotients over Z and its primitive gcd; the Sturm chain by remainders over
Q checks the integer chains of `realroots.sturm_sequence` up to positive
factors, and the primitive chain by pseudo-division through `divmod_poly`
checks them element by element.  The rational root test by
divisor trial division and the Sturm search that bisects at midpoints check
`realroots.rational_roots`, and the
entry-by-entry smoothness rule for diagonal sections checks `conic.analyze`,
the Leibniz formula on coefficient tuples checks
`conic.discriminant`, and the term-by-term rendering checks the monomial
table of `conic._expanded`.  The real Picard lattice <F, K> of a minimal
conic bundle (`conic_bundle_lattice`) checks by pairings the genus and l(D)
that `conic.candidate_divisor` gives in closed form, and the trilinear
intersection form of the plane bundle (`intersection_number`) derives the
K_X^2, s and restricted tautological class that
`conic.surface_class_identities` gives in closed form.
Expanding each monomial of a hypersurface along a line checks the restriction
by polar forms of `topology.HypersurfaceSpec.restrict_to_line`, and the
four-variable polar forms, filtered to the terms free of x_j, check the
plane forms of `topology._plane_polar_forms`.  The sampler that draws
Fractions from the splitmix64 words, restricts X to each sampled ray with
every four-variable polar term and reads the whole primitive Sturm chain
checks the verdicts of `topology.hyperbolicity_check`, as does the integer
trial loop on the hyperplane x_j = 0 with the same terms, run on every
quadric, definite line discriminant or not, which checks the certificate for
quadrics; neither calls the code it checks.
The library itself never calls these.
"""

import itertools
import math
from fractions import Fraction
from math import gcd, isqrt, lcm

from realdp import realroots, topology
from realdp.catalog import SurfaceModel, _model
from realdp.conic import BinaryForm, ConicMatrix
from realdp.intlinalg import dot, int_tuple, primitive_vector
from realdp.lattice import ClassVector, IntLattice, class_window, enumerate_classes
from realdp.search import ConditionReport, check_conditions
from realdp.topology import GreatSubsphere, HyperbolicityVerdict, PLCycle, linking_number


def _box_vectors(model, radius):
    span = range(-radius, radius + 1)
    for coeffs in itertools.product(span, repeat=model.real_lattice.rank):
        yield model.real_lattice.vector(coeffs)


def self_intersection_candidates(model: SurfaceModel, radius=12):
    """Classes in a coefficient box with D.D = r + 2s (condition c2 alone).

    Plain box search; used as an independent oracle for the ellipsoid
    enumeration and to reproduce the intermediate candidate list of the
    worked degree-2 conic-bundle example.
    """
    target = model.r + 2 * model.s
    return [v for v in _box_vectors(model, radius) if v.dot(v) == target]


def brute_force_search(model: SurfaceModel, radius=12):
    """Oracle double-check of search(): box enumeration + condition filter.

    The self-intersection test (condition c2) runs first so the line pairings
    of c5 are only evaluated on the handful of survivors."""
    target = model.r + 2 * model.s
    return [
        v
        for v in _box_vectors(model, radius)
        if v.dot(v) == target and check_conditions(model, v).passed
    ]


def _positive_on_lines(model: SurfaceModel, d: ClassVector, dk: int) -> bool:
    """c5 for D with D.K = dk: D.K < 0 and D.L > 0 on every (-1)-class L of
    the complexification, each paired with the image of D in complex
    coordinates (all 240 in degree 1, not the model's distinct rows).  On P2
    and Q31, which have none, D.K < 0 stands in for their line and rulings."""
    if dk >= 0:
        return False
    image = model.complex_lattice.vector(mat_vec(model.embedding, d.coeffs))
    return all(image.dot(line) > 0 for line in model.minus_one_classes)


def very_ample(model: SurfaceModel, d: ClassVector) -> bool:
    """Very-ampleness of a class that already satisfies c1..c5.

    Di Rocco, k-very ample line bundles on del Pezzo surfaces, Math. Nachr.
    179 (1996), case k = 1: D is very ample iff D.E >= 1 for every (-1)-curve
    E and D.(-K) >= 3.  Where the code differs: in degrees 3 to 7, D.E >= 1
    already gives D.(-K) >= 3 (Hodge index and the parity of D.D + D.K), so
    only degrees 1 and 2 test it, and in degree 2 it excludes just -K; P2 and
    Q31 have no (-1)-curves, and c5 tests D.K < 0 in place of their line and
    rulings.
    """
    dk = d.dot(model.canonical)
    return _positive_on_lines(model, d, dk) and (model.degree > 2 or dk <= -3)


def _half_plus_one(num: int) -> int:
    if num % 2:
        raise ValueError("odd intersection number")
    return num // 2 + 1


def check_conditions_by_pairings(model: SurfaceModel, d: ClassVector) -> ConditionReport:
    """`search.check_conditions` from ClassVector pairings: c2 to c4 from
    D.D and D.K, c5 over every (-1)-class, the genus D.(D + K)/2 + 1 and
    l(D) = D.(D - K)/2 + 1 from the classes D + K and D - K, and a second c5
    pass inside `very_ample`."""
    k = model.canonical
    dk = d.dot(k)  # first: it also checks that D is a real class
    c2 = d.dot(d) == model.r + 2 * model.s
    c3 = model.r <= dk + 4 <= model.r + 2 * model.s
    c4 = (dk - model.r) % 4 == 0
    c5 = _positive_on_lines(model, d, dk)
    report = ConditionReport(c2, c3, c4, c5)
    if report.passed:
        report = ConditionReport(
            c2, c3, c4, c5,
            genus=_half_plus_one(d.dot(combination((1, d), (1, k)))),
            ell=_half_plus_one(d.dot(combination((1, d), (-1, k)))),
            very_ample=very_ample(model, d),
        )
    return report


def smith_normal_form(m):
    """Elementary divisors d1 | d2 | ... (nonnegative) of an integer matrix.

    Row and column clearing use plain elimination whenever the pivot divides
    the target (this never disturbs the cleared parts) and a unimodular gcd
    combination otherwise (this strictly shrinks |pivot|), so the alternation
    terminates.
    """
    a = [list(r) for r in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors = []
    t = 0
    while t < min(nrows, ncols):
        piv = next(
            ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]),
            None,
        )
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    if a[i][t] % a[t][t] == 0:
                        q = a[i][t] // a[t][t]
                        a[i] = [p - q * r for p, r in zip(a[i], a[t])]
                    else:
                        g, x, y = xgcd(a[t][t], a[i][t])
                        u, v = a[t][t] // g, a[i][t] // g
                        a[t], a[i] = (
                            [x * p + y * q for p, q in zip(a[t], a[i])],
                            [u * q - v * p for p, q in zip(a[t], a[i])],
                        )
            if any(a[t][j] for j in range(t + 1, ncols)):
                for j in range(t + 1, ncols):
                    if a[t][j]:
                        if a[t][j] % a[t][t] == 0:
                            q = a[t][j] // a[t][t]
                            for row in a:
                                row[j] -= q * row[t]
                        else:
                            g, x, y = xgcd(a[t][t], a[t][j])
                            u, v = a[t][t] // g, a[t][j] // g
                            for row in a:
                                row[t], row[j] = (
                                    x * row[t] + y * row[j],
                                    u * row[j] - v * row[t],
                                )
                continue  # column ops may have disturbed the pivot column
            if not any(a[i][t] for i in range(t + 1, nrows)):
                break
        # Enforce divisibility: the pivot must divide every remaining entry.
        offender = next(
            (
                (i, j)
                for i in range(t + 1, nrows)
                for j in range(t + 1, ncols)
                if a[i][j] % a[t][t]
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            a[t] = [p + q for p, q in zip(a[t], a[i])]
            continue
        divisors.append(abs(a[t][t]))
        t += 1
    return divisors


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _hnf_sweep(rows, ncols):
    """One echelon pass: returns (pivot_rows, zero_rows).

    Row operations are unimodular, so the span of `rows` is preserved.  Rows
    longer than `ncols` carry transform bookkeeping in their tail; only the
    first `ncols` entries participate in pivoting.
    """
    pivots = []
    pending = [list(r) for r in rows]
    for col in range(ncols):
        carriers = [r for r in pending if r[col] != 0]
        others = [r for r in pending if r[col] == 0]
        if not carriers:
            pending = others
            continue
        pivot = carriers.pop()
        while carriers:
            r = carriers.pop()
            a, b = pivot[col], r[col]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            new_pivot = [x * p + y * q for p, q in zip(pivot, r)]
            cleared = [u * q - v * p for p, q in zip(pivot, r)]
            pivot = new_pivot
            others.append(cleared)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        pivots.append((col, pivot))
        pending = others
    return pivots, pending


def hnf(rows):
    """Row Hermite normal form of the lattice spanned by `rows`.

    Returns the canonical basis: positive pivots, entries above each pivot
    reduced into [0, pivot), zero rows dropped.  Two generating sets span the
    same lattice iff their HNFs are equal.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return []
    ncols = len(rows[0])
    pivots, _ = _hnf_sweep(rows, ncols)
    basis = [p for _, p in pivots]
    cols = [c for c, _ in pivots]
    for i in reversed(range(len(basis))):
        col = cols[i]
        piv = basis[i][col]
        for j in range(i):
            q = basis[j][col] // piv
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]
    return basis


def kernel_basis(m):
    """HNF basis of the integer kernel {v : m @ v = 0}.

    The kernel of an integer matrix is saturated (the quotient embeds in the
    image, hence is torsion free), so the returned rows are a primitive basis.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    # Left kernel of m^T equals the right kernel of m; track row operations
    # by augmenting with the identity.
    aug = [list(row) + ident for row, ident in zip(transpose(m), identity(ncols))]
    _, zero_rows = _hnf_sweep(aug, nrows)
    kernel = [r[nrows:] for r in zero_rows]
    return hnf(kernel)


def fixed_sublattice(lattice, sigma):
    """Primitive basis of the sublattice of `lattice` fixed by the isometric
    involution with integer matrix `sigma`.

    Returns ClassVectors forming the HNF basis of ker(sigma - id).  The kernel
    of an integer matrix is saturated, so the result is automatically a
    primitive sublattice (torsion-free quotient).
    """
    if not is_involution(sigma) or len(sigma) != lattice.rank:
        raise ValueError("map is not an involution of the lattice")
    if not is_isometry(sigma, lattice.gram, lattice.gram):
        raise ValueError("map is not an isometry")
    n = lattice.rank
    m = [[sigma[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    return [lattice.vector(row) for row in kernel_basis(m)]


def basis_vector(lattice, i) -> ClassVector:
    """The i-th basis vector of `lattice`."""
    return lattice.vector(tuple(int(j == i) for j in range(lattice.rank)))


def combination(*terms) -> ClassVector:
    """The class a1 v1 + a2 v2 + ... of (integer, class) pairs (a, v) on one
    lattice: the library pairs classes and never adds them."""
    lattice = terms[0][1].lattice
    return lattice.vector(tuple(sum(a * v.coeffs[i] for a, v in terms) for i in range(lattice.rank)))


def conic_bundle_lattice(s: int) -> IntLattice:
    """The real Picard lattice <F, K> of a minimal conic bundle with s sphere
    components: F.F = 0, F.K = -2 and K.K = 8 - 2s."""
    return IntLattice(2, ("F", "K"), ((0, -2), (-2, 8 - 2 * s)))


def intersection_number(c: int, x, y, z) -> int:
    """Degree of x.y.z on the plane bundle P(E) over P^1 with deg E = c.

    Each divisor class is its pair of coefficients on H (the tautological
    class) and E (a fiber).  The degree is the trilinear form fixed by
    H^3 = c, H^2 E = 1 and E^2 = 0 (Fulton, Intersection Theory, ch. 3).
    """
    (xh, xe), (yh, ye), (zh, ze) = x, y, z
    return c * xh * yh * zh + xh * yh * ze + xh * ye * zh + xe * yh * zh


def surface_class_identities_by_intersections(a: int, c: int):
    """K_X^2, s and the restriction xF + yK of the normalised tautological
    class H + (a/2)E for the surface X of class 2H + aE (a even), each from
    intersection numbers with K_P = -3H + (c - 2)E: K_X^2 = (K_P + X)^2 X,
    s from K_X^2 = 8 - 2s, y from the degree -2y on the fiber F = E|_X, and
    x from the degree -2x + y(8 - 2s) on K_X = (K_P + X)|_X."""
    surface, kx, h_tw = (2, a), (-1, c - 2 + a), (1, a // 2)
    kx2 = intersection_number(c, kx, kx, surface)
    fiber_deg = intersection_number(c, h_tw, (0, 1), surface)
    assert kx2 % 2 == fiber_deg % 2 == 0
    s, y = (8 - kx2) // 2, -fiber_deg // 2
    num = y * (8 - 2 * s) - intersection_number(c, h_tw, kx, surface)
    assert num % 2 == 0
    return {"KX2": kx2, "s": s, "x": num // 2, "y": y}


def minus_one_classes_by_enumeration(lattice: IntLattice, k: ClassVector) -> tuple:
    """All classes c with c.c = -1 and c.K = -1, in lexicographic order, by
    the Fincke-Pohst enumeration of the window {c.c = -1, c.K = -1}: it
    checks the closed form `catalog.minus_one_curves` on Z^{1,n}, and gives
    `blow_up` the (-1)-classes of its lattices U + <-1>^m."""
    return tuple(enumerate_classes(class_window(lattice, k, -1, -1, -1)))


def rebase(model: SurfaceModel, rows, labels) -> SurfaceModel:
    """`model` with its real lattice presented in a new unimodular basis,
    given by `rows` in the current real coordinates, rebuilt by
    `catalog._model` on the same complex lattice, K and (-1)-classes; on the
    blow-ups of D2 and G2 at one real point it checks the bases that the
    catalogue declares for D2_1_0 and G2_1_0."""
    columns = [mat_vec(model.embedding, row) for row in rows]
    return _model(model.name, model.complex_lattice, model.complex_canonical.coeffs, tuple(labels), columns,
                  model.minus_one_classes)


def _direct_sum(m, block):
    """The block-diagonal matrix of `m` and `block` (tuples of row tuples,
    either may be rectangular)."""
    left, right = len(m[0]), len(block[0]) if block else 0
    return tuple(row + (0,) * right for row in m) + tuple((0,) * left + row for row in block)


def blow_up(base: SurfaceModel, real_points: int = 0, conj_pairs: int = 0) -> SurfaceModel:
    """Blow up a model in `real_points` real points and `conj_pairs` pairs.

    Real centers lie on distinct sphere components; each one turns a sphere
    into a projective plane, and conjugate pairs leave the topology unchanged.
    `_model` reads the new s and r from the real lattice, so more real
    centers than spheres are rejected: a real point of a projective plane
    would produce a Klein bottle component, which is outside the
    sphere/projective-plane regime of the catalogue, and the two identities
    give a negative s.  The pairing and the real basis are the direct sums of
    the base's with a block for the m = a + 2b exceptional classes: -I_m, and
    a unit or pair-sum real basis vector per real class or pair, as
    conjugation fixes each real class and swaps each pair.  A real basis
    vector embedding onto K moves onto the new K.  On Q31 the result lives on
    U + <-1>^m, not on the Z^{1,m+1} of the catalogue.  The (-1)-classes come
    from `minus_one_classes_by_enumeration` on every base, so a blow-up that
    equals a catalogue model checks its closed-form (-1)-classes too.
    """
    a, b = int_tuple((real_points, conj_pairs))
    if a < 0 or b < 0:
        raise ValueError("real_points and conj_pairs must be nonnegative")
    m = a + 2 * b
    if base.degree - m < 1:
        raise ValueError("degree underflow: blow-up would drop the degree below 1")

    def unit(*indices):
        return tuple(int(j in indices) for j in range(m))

    cx_old, k_old = base.complex_lattice, base.complex_canonical.coeffs
    first = 1 + sum(label.startswith("E") for label in cx_old.basis_labels)
    new = [f"E{first + i}" for i in range(m)]
    pairs = [(i, i + 1) for i in range(a, m, 2)]
    gram = _direct_sum(cx_old.gram, [tuple(-x for x in unit(i)) for i in range(m)])
    cx = IntLattice(cx_old.rank + m, cx_old.basis_labels + tuple(new), gram)
    old_columns = tuple(zip(*base.embedding))
    columns = list(_direct_sum(old_columns, [unit(i) for i in range(a)] + [unit(*p) for p in pairs]))
    labels = base.real_lattice.basis_labels + tuple(new[:a] + [f"{new[i]}+{new[j]}" for i, j in pairs])
    k_cx = k_old + (1,) * m
    if k_old in old_columns:
        columns[old_columns.index(k_old)] = k_cx

    name = f"{base.name}_{a}_{2 * b}" + ("_11" if a == 2 else "")
    return _model(name, cx, k_cx, labels, columns, minus_one_classes_by_enumeration(cx, cx.vector(k_cx)))


def quadric_to_plane(n):
    """Bl_1(P^1 x P^1) = Bl_2(P^2) on lattices: the matrix whose columns are
    the images in Z^{1,n} of l1, l2, E1, E2, ..., E(n-1), the basis of
    U + <-1>^(n-1) that `blow_up` gives the quadric's blow-ups, namely
    H - E1, H - E2, H - E1 - E2, E3, ..., En."""
    rulings_and_first = [c + (0,) * (n - 2) for c in ((1, -1, 0), (1, 0, -1), (1, -1, -1))]
    units = [tuple(int(i == j) for i in range(n + 1)) for j in range(3, n + 1)]
    return tuple(zip(*(rulings_and_first + units)))


def geiser_bertini(d: ClassVector, k: ClassVector) -> ClassVector:
    """Reflection fixing K and acting by -1 on its orthogonal complement.

    D |-> -D + 2 (D.K / K.K) K.  On a lattice with K.K = 2 this is the Geiser
    involution, with K.K = 1 the Bertini involution; both are integral because
    2 D.K is divisible by K.K in these two cases.
    """
    kk = k.dot(k)
    if kk not in (1, 2):
        raise ValueError("unsupported degree: K.K must be 1 or 2")
    twice = 2 * d.dot(k)
    assert twice % kk == 0
    return combination((-1, d), (twice // kk, k))


def _conic_bundle_involution(n_exceptional):
    """Conjugation of a minimal conic bundle on Z^{1,n}, n odd.

    Fixes F = H - E1 and K, and swaps the two lines through the first blown-up
    point in every singular fiber: E_j <-> H - E1 - E_j for j >= 2.  Columns
    follow by solving sigma(F) = F, sigma(K) = K.
    """
    half = (n_exceptional + 1) // 2
    cols = []
    cols.append([half, -(half - 1)] + [-1] * (n_exceptional - 1))  # image of H
    cols.append([half - 1, -(half - 2)] + [-1] * (n_exceptional - 1))  # image of E1
    for j in range(2, n_exceptional + 1):
        col = [1, -1] + [0] * (n_exceptional - 1)
        col[j] = -1  # image of E_j is H - E1 - E_j
        cols.append(col)
    return tuple(zip(*cols))


def _anticanonical_reflection(n_exceptional):
    """Matrix of D |-> -D + 2 (D.K / K.K) K on Z^{1,n} (n in {7, 8}, so that
    K.K is 2 or 1): the Geiser or Bertini involution."""
    gram = tuple(tuple((1 if i == 0 else -1) * int(i == j) for j in range(n_exceptional + 1))
                 for i in range(n_exceptional + 1))
    cx = IntLattice(n_exceptional + 1, ("H",) + tuple(f"E{i}" for i in range(1, n_exceptional + 1)), gram)
    k = cx.vector((-3,) + (1,) * n_exceptional)
    cols = [geiser_bertini(basis_vector(cx, j), k).coeffs for j in range(cx.rank)]
    return tuple(zip(*cols))


_MINIMAL_CONJUGATIONS = {
    "P2": lambda: ((1,),),
    "Q31": lambda: ((0, 1), (1, 0)),  # swaps the two rulings
    "D4": lambda: _conic_bundle_involution(5),
    "D2": lambda: _conic_bundle_involution(7),
    "G2": lambda: _anticanonical_reflection(7),
    "B1": lambda: _anticanonical_reflection(8),
}


def direct_sum_conjugation(name):
    """The conjugation of the model that `blow_up` builds under `name`,
    built from its geometry and not from its real lattice.

    A minimal surface has the identity (P2), the swap of the two rulings
    (Q31), the conic-bundle swap E_j <-> H - E1 - E_j (D4, D2) or the Geiser
    or Bertini involution (G2, B1).  A blow-up `<base>_<a>_<2b>` (an optional
    `_11` suffix names where its a real points lie) has the direct sum of the
    base's conjugation with the identity on its a real exceptional classes and
    the swap on each of its b conjugate pairs; a blow-up of a blow-up repeats
    the suffix.
    """
    base, *counts = name.split("_")
    sigma = _MINIMAL_CONJUGATIONS[base]()
    counts = [int(c) for c in counts if c != "11"]
    for a, two_b in zip(counts[::2], counts[1::2]):
        m = a + two_b
        block = [tuple(int(k == i) for k in range(m)) for i in range(a)]
        block += [row for i in range(a, m, 2) for row in (tuple(int(k == i + 1) for k in range(m)),
                                                          tuple(int(k == i) for k in range(m)))]
        sigma = _direct_sum(sigma, block)
    return sigma


def declared_conjugation(name):
    """The conjugation of a catalogued surface on its catalogue lattice,
    built from its geometry and not from its real lattice: the
    `direct_sum_conjugation`, which a blow-up of Q31 has on U + <-1>^2k,
    moved to Z^{1,2k+1} as M sigma M^-1 with M = `quadric_to_plane`."""
    sigma = direct_sum_conjugation(name)
    if not name.startswith("Q31_"):
        return sigma
    m = quadric_to_plane(len(sigma) - 1)
    moved = mat_mul(mat_mul(m, sigma), mat_inverse(m))
    assert all(x.denominator == 1 for row in moved for x in row)
    return tuple(tuple(int(x) for x in row) for row in moved)


def hyperbolicity_from_linking(components, e: GreatSubsphere, chain: GreatSubsphere | None, claimed_degree: int) -> bool:
    """Linking criterion: sum of |lk(component, E)| equals the degree."""
    return sum(abs(linking_number(c, e, chain)) for c in components) == claimed_degree


def _functionals(e: GreatSubsphere, chain: GreatSubsphere | None):
    """n, the normal of the chain (by default e's first normal), and c, the
    first normal of e with a nonzero 2 x 2 minor beside n, so not parallel
    to it."""
    n = e.normals[0] if chain is None else chain.normals[0]
    c = next(m for m in e.normals if any(a * y != b * x for (a, x), (b, y) in itertools.combinations(zip(m, n), 2)))
    return n, c


def winding_of_lift(cycle: PLCycle, e: GreatSubsphere, chain: GreatSubsphere | None) -> int:
    """Winding number about the origin of the image of the full preimage of
    the cycle on S^n under x |-> (x . c, x . n), n the normal of the chain
    (by default e's first normal) and c the first normal of e not parallel
    to n.  The preimage is the stored loop and its antipodal copy for
    "sphere", and one loop through the stored points and then their
    antipodes for "antipode".  The image of a segment is the straight segment
    between the images of its ends, so it sweeps the angle between them;
    the angles are summed with `math.atan2`.  The cycle must avoid e and
    cross L away from e."""
    n, c = _functionals(e, chain)
    antipodes = [tuple(-x for x in p) for p in cycle.points]
    loops = [cycle.points, antipodes] if cycle.closure == "sphere" else [cycle.points + tuple(antipodes)]
    angle = 0.0
    for loop in loops:
        images = [(float(sum(a * b for a, b in zip(p, c))), float(sum(a * b for a, b in zip(p, n)))) for p in loop]
        for (x0, y0), (x1, y1) in zip(images, images[1:] + images[:1]):
            angle += math.atan2(x0 * y1 - y0 * x1, x0 * x1 + y0 * y1)
    return round(angle / (2 * math.pi))


def linking_number_by_images(cycle: PLCycle, e: GreatSubsphere, chain: GreatSubsphere | None = None) -> int:
    """`topology.linking_number` from the image (x.n, x.c) of every vertex:
    two dot products per vertex, a scan of the images for a vertex on the
    center, a second scan for a vertex on L, and a closing image built for
    the last segment.  The center and the chain are checked in the library's
    order and with its messages, the chain's containment of the center by
    the rank of the integer Hermite normal form of the three normals, and n
    and c come from `_functionals`."""
    if cycle.ambient != e.ambient:
        raise ValueError("cycle and center live in different ambient spaces")
    if len(e.normals) != 2:
        raise ValueError("the center must be cut out by two independent equations")
    if chain is not None:
        if chain.ambient != e.ambient:
            raise ValueError("center and chain live in different ambient spaces")
        if len(chain.normals) != 1:
            raise ValueError("the bounding subspace must be a hyperplane")
        if len(hnf(e.normals + chain.normals)) == 3:
            raise ValueError("the hyperplane must contain the center")
    n_l, c = _functionals(e, chain)
    images = [(dot(p, n_l), dot(p, c)) for p in cycle.points]
    for idx, image in enumerate(images):
        if image == (0, 0):
            raise ValueError(f"perturb input: cycle vertex {idx} lies on the center")
    for idx, (alpha, _) in enumerate(images):
        if alpha == 0:
            raise ValueError(f"perturb input: cycle vertex {idx} lies on the hyperplane")
    first = images[0]
    closing = first if cycle.closure == "sphere" else (-first[0], -first[1])
    total = 0
    for idx, ((alpha, a), (beta, b)) in enumerate(zip(images, images[1:] + [closing])):
        if (alpha > 0) != (beta > 0):
            side = beta * a - alpha * b
            if side == 0:
                raise ValueError(f"perturb input: segment {idx} crosses the center")
            total += 1 if side > 0 else -1
    return total


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    """a v by a double loop over row and column indices: the definition that
    `intlinalg.mat_vec` is checked against, so no oracle runs that kernel."""
    out = []
    for i in range(len(a)):
        total = 0
        for j in range(len(v)):
            total += a[i][j] * v[j]
        out.append(total)
    return out


def pairing(gram, x, y):
    """sum_ij x_i g_ij y_j, the definition of `ClassVector.dot`."""
    return sum(x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))


def signature(gram):
    """Exact signature (n_plus, n_minus, n_zero) of a symmetric matrix over Q.

    Computed by congruence reduction (symmetric Gaussian elimination); when no
    nonzero diagonal entry is available, a row/column addition creates one.
    """
    g = [[Fraction(x) for x in row] for row in gram]
    pos = neg = zero = 0
    while g:
        n = len(g)
        piv = next((i for i in range(n) if g[i][i] != 0), None)
        if piv is None:
            pair = next(
                ((i, j) for i in range(n) for j in range(i + 1, n) if g[i][j] != 0),
                None,
            )
            if pair is None:
                zero += n
                break
            i, j = pair
            for k in range(n):
                g[i][k] += g[j][k]
            for k in range(n):
                g[k][i] += g[k][j]
            piv = i
        d = g[piv][piv]
        if d > 0:
            pos += 1
        else:
            neg += 1
        rest = [k for k in range(n) if k != piv]
        g = [[g[k][l] - g[k][piv] * g[piv][l] / d for l in rest] for k in rest]
    return pos, neg, zero


def mat_inverse(a):
    """Exact inverse of a square rational matrix (Gauss-Jordan over Q)."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        d = work[col][col]
        work[col] = [x / d for x in work[col]]
        for i in range(n):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return [row[n:] for row in work]


def ldl(a):
    """LDL^T factorisation of a positive definite symmetric rational matrix.

    Returns (diag, lower) with unit lower triangular `lower` and positive
    rational pivots `diag`; v^T a v = sum_j diag[j] * (v_j + sum_{i>j}
    lower[i][j] v_i)^2.  Raises ValueError when `a` is not positive definite;
    either way the pivots are an exact certificate.
    """
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    diag = []
    for j in range(n):
        d = work[j][j] - sum(lower[j][k] ** 2 * diag[k] for k in range(j))
        if d <= 0:
            raise ValueError("matrix is not positive definite")
        diag.append(d)
        for i in range(j + 1, n):
            s = work[i][j] - sum(lower[i][k] * lower[j][k] * diag[k] for k in range(j))
            lower[i][j] = s / d
    return diag, lower


def _coordinate_window(center, radius_sq):
    """All integers m with (m + center)^2 <= radius_sq, as a closed range.

    `center` and `radius_sq` are Fractions, radius_sq >= 0.  The window is
    computed with integer square roots only, so it is exact.
    """
    q = center.denominator
    p = center.numerator
    scaled = radius_sq * q * q
    root = isqrt(scaled.numerator // scaled.denominator)
    lo_num, hi_num = -root - p, root - p
    lo = -((-lo_num) // q)
    hi = hi_num // q
    return lo, hi


def enumerate_quadratic_over_q(a, bound):
    """All integer vectors v with v^T a v <= bound, for positive definite a.

    Fincke-Pohst bounded search on the exact LDL^T factorisation.  The output
    includes the zero vector and both members of each +-v pair; order is
    unspecified (callers sort).  The factorisation runs even for a negative
    bound, so a form that is not positive definite always raises ValueError.
    """
    n = len(a)
    diag, lower = ldl(a)
    if bound < 0:
        return []
    results = []
    v = [0] * n

    def extend(j, remaining):
        if j < 0:
            results.append(tuple(v))
            return
        center = sum(lower[i][j] * v[i] for i in range(j + 1, n))
        if not isinstance(center, Fraction):
            center = Fraction(center)
        lo, hi = _coordinate_window(center, remaining / diag[j])
        for m in range(lo, hi + 1):
            v[j] = m
            w = m + center
            extend(j - 1, remaining - diag[j] * w * w)
        v[j] = 0

    extend(n - 1, Fraction(bound))
    return results


def zero_class(lattice):
    return lattice.vector((0,) * lattice.rank)


def is_isometry(m, source_gram, target_gram) -> bool:
    """Pairings are preserved exactly: M^T * target_gram * M = source_gram."""
    m = [list(r) for r in m]
    lhs = mat_mul(mat_mul(transpose(m), [list(r) for r in target_gram]), m)
    return lhs == [list(r) for r in source_gram]


def is_involution(m) -> bool:
    """M is square and M * M = I."""
    m = [list(r) for r in m]
    return all(len(r) == len(m) for r in m) and mat_mul(m, m) == identity(len(m))


def _quotient(a, b):
    """Exact a / b: an int when both are ints and b divides a."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def divmod_poly(p, q):
    """(quotient, remainder) of p by q over Q, by long division: ints stay
    ints while each step divides exactly, and a step that does not gives a
    Fraction."""
    q = realroots.normalize(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(realroots.normalize(p))
    dq = len(q) - 1
    quot = [0] * max(len(rem) - dq, 1)
    while len(rem) - 1 >= dq:
        shift = len(rem) - 1 - dq
        factor = _quotient(rem[-1], q[-1])
        quot[shift] = factor
        for i in range(dq):
            rem[shift + i] -= factor * q[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return realroots.normalize(quot), tuple(rem)


def gcd_over_q(p, q):
    """The monic greatest common divisor over Q, by Euclid's algorithm on
    the remainders of `divmod_poly`."""
    a, b = realroots.normalize(p), realroots.normalize(q)
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return tuple(_quotient(c, a[-1]) for c in a)


def sturm_sequence_over_q(p):
    chain = [realroots.normalize(p)]
    d = realroots.derivative(chain[0])
    if d:
        chain.append(d)
        while realroots.degree(chain[-1]) > 0:
            rem = divmod_poly(chain[-2], chain[-1])[1]
            if not rem:
                break
            chain.append(realroots.neg(rem))
    return chain


def sturm_chain_by_division(p):
    """The primitive pseudo-remainder Sturm chain with each remainder taken
    by `divmod_poly` of |lc(b)|^(deg a - deg b + 1) a by b."""
    a = primitive_vector(realroots.normalize(p))
    chain = [a]
    d = realroots.derivative(a)
    if not d:
        return chain
    b = primitive_vector(d)
    chain.append(b)
    while realroots.degree(b) > 0:
        scale = abs(b[-1]) ** (realroots.degree(a) - realroots.degree(b) + 1)
        rem = divmod_poly([scale * c for c in a], b)[1]
        if not rem:
            break
        a, b = b, realroots.neg(primitive_vector(rem))
        chain.append(b)
    return chain


def _distinct_real_roots(g) -> int:
    """Real roots of a squarefree g by Sturm's theorem: sign changes of its
    Sturm chain at -infinity minus those at +infinity."""
    chain = realroots.sturm_sequence(g)
    at_plus = [f[-1] > 0 for f in chain]
    at_minus = [(f[-1] > 0) == (realroots.degree(f) % 2 == 0) for f in chain]
    return realroots._sign_changes(at_minus) - realroots._sign_changes(at_plus)


def root_profile_by_decomposition(coeffs):
    """`realroots.root_profile` computed from one squarefree decomposition
    p = c prod g_i^i and one Sturm count per squarefree part g_i."""
    p = realroots.normalize(coeffs)
    if not p:
        raise ValueError("zero polynomial")
    real = distinct = 0
    squarefree = True
    for g, i in realroots.squarefree_decomposition(p):
        n = _distinct_real_roots(g)
        real += i * n
        distinct += n
        squarefree = squarefree and i == 1
    return realroots.RootProfile(real, distinct, squarefree)


def root_profile_by_chains(coeffs):
    """`realroots.root_profile` with a Sturm chain at every multiplicity
    level of degree above one, quadratics included: the counts at -infinity
    and +infinity of each level's chain, one real root for a linear level."""
    g = realroots.normalize(coeffs)
    counts = []
    while realroots.degree(g) > 1:
        chain = realroots.sturm_sequence(primitive_vector(g))
        at_minus, at_plus = realroots._infinity_variations(chain)
        counts.append(at_minus - at_plus)
        g = chain[-1]
    if realroots.degree(g) == 1:
        counts.append(1)
    return realroots.RootProfile(sum(counts), counts[0] if counts else 0, len(counts) <= 1)


def restrict_by_expansion(x, p, e):
    """Coefficients (low to high) of t |-> X(p + t e), X as stored: each
    monomial is expanded by repeated products of the factors p_i + t e_i."""
    total = ()
    for exps, coeff in x.terms:
        term = (1,)
        for pi, ei, k in zip(p, e, exps):
            for _ in range(k):
                term = realroots.mul(term, (pi, ei))
        total = realroots.add(total, [coeff * c for c in term])
    return total


def polar_forms(x, e):
    """[X_0, ..., X_d] with X(p + t e) = sum_k t^k X_k(p), for an integer
    point e, each form as (exponents, coefficient) pairs over all four
    variables: X_k = D_e X_(k-1) / k with D_e = sum_i e_i d/dx_i, an exact
    division.  `topology` builds only the terms free of x_j instead."""
    e = int_tuple(e)
    along = [(i, ei) for i, ei in enumerate(e) if ei]
    forms = [x.terms]
    for k in range(1, x.degree + 1):
        derived = {}
        for exps, coeff in forms[-1]:
            for i, ei in along:
                if ki := exps[i]:
                    lower = exps[:i] + (ki - 1,) + exps[i + 1:]
                    derived[lower] = derived.get(lower, 0) + coeff * ki * ei
        forms.append(tuple([(exps, c // k) for exps, c in derived.items() if c]))
    return tuple(forms)


def restrict_to_line(x, p, polar):
    """Coefficients (low to high) of t |-> X(p + t e) from `polar_forms` of
    X at e, each term evaluated from one power table per coordinate."""
    tables = []
    for pi in p:
        powers = [1]
        for _ in range(x.degree):
            powers.append(powers[-1] * pi)
        tables.append(powers)
    p0, p1, p2, p3 = tables
    return realroots.normalize(
        [sum([c * p0[a] * p1[b] * p2[f] * p3[g] for (a, b, f, g), c in form]) for form in polar]
    )


def plane_polar_forms(x, e):
    """j, the first coordinate with e_j != 0, and `polar_forms` of X at e
    with only their terms free of x_j; "center on hypersurface" when the
    top form, the constant X(e), is zero."""
    polar = polar_forms(x, e)
    if not sum([c for _, c in polar[-1]]):
        raise ValueError("center on hypersurface")
    j = next(i for i, ei in enumerate(e) if ei)
    return j, tuple([tuple([term for term in form if not term[0][j]]) for form in polar])


def _real_rooted_by_whole_chain(g):
    """`realroots.real_rooted_profile` from the whole primitive Sturm chain:
    every root is real exactly when the chain has full length, each degree
    one below the one before and every leading sign that of lc(g)."""
    chain = realroots.sturm_sequence(primitive_vector(g))
    n = realroots.degree(chain[0])
    if any(realroots.degree(f) != n - i or (f[-1] > 0) != (g[-1] > 0) for i, f in enumerate(chain)):
        return None
    common = realroots.degree(chain[-1])
    return realroots.RootProfile(n, n - common, common == 0)


def splitmix_rationals(seed):
    """The draws of `topology.SplitMix64(seed).rational()`, from the
    splitmix64 generator (Steele, Lea and Flood 2014) one 64-bit word at a
    time: num from one word and den from the next."""
    mask = (1 << 64) - 1
    state = seed & mask
    words = []
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
        if len(words) == 2:
            yield words[0] % 20001 - 10000, words[1] % 10000 + 1
            words = []


def hyperbolicity_by_fraction_draws(x, e, trials, seed):
    """`topology.hyperbolicity_check` with each trial's four draws made
    Fractions, X restricted to their primitive ray with every polar form at
    e, and the line read off the whole primitive Sturm chain."""
    e = primitive_vector(e)
    polar = polar_forms(x, e)
    rays_of_e = (e, realroots.neg(e))
    draws = splitmix_rationals(seed)
    boundary = 0
    for trial in range(1, trials + 1):
        while True:
            point = tuple(Fraction(*next(draws)) for _ in range(4))
            if any(point) and (ray := primitive_vector(point)) not in rays_of_e:
                break
        roots = _real_rooted_by_whole_chain(restrict_to_line(x, ray, polar))
        if roots is None:
            return HyperbolicityVerdict(True, point, trial, trials, boundary)
        if roots.distinct < x.degree:
            boundary += 1
    return HyperbolicityVerdict(False, None, None, trials, boundary)


def hyperbolicity_check_by_trials(x, e, trials, seed):
    """`topology.hyperbolicity_check` with no certificate for definite
    quadrics: the same validation, then every trial draws its ray, moves it
    to w = e_j p - p_j e on the hyperplane x_j = 0, restricts X there with
    the four-variable polar terms free of x_j and reads the whole primitive
    Sturm chain."""
    trials, seed = int_tuple((trials, seed))
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= seed <= topology._MASK:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    e = topology._point(e, "center")  # with e = 0 every sample point would be parallel to e
    j, polar = plane_polar_forms(x, e)
    rays_of_e = (e, realroots.neg(e))
    stream = splitmix_rationals(seed)
    boundary = 0
    for trial in range(1, trials + 1):
        while True:
            draws = [next(stream) for _ in range(4)]
            den = lcm(*[d for _, d in draws])
            ints = [n * (den // d) for n, d in draws]
            if (g := gcd(*ints)) and (ray := tuple([c // g for c in ints])) not in rays_of_e:
                break
        w = [e[j] * pi - ray[j] * ei for pi, ei in zip(ray, e)]
        roots = _real_rooted_by_whole_chain(restrict_to_line(x, w, polar))
        if roots is None:
            return HyperbolicityVerdict(True, tuple([Fraction(n, d) for n, d in draws]), trial, trials, boundary)
        if roots.distinct < x.degree:
            boundary += 1
    return HyperbolicityVerdict(False, None, None, trials, boundary)


def evaluate(p, x):
    """p(x) for a polynomial p with coefficients low degree first, by Horner's
    rule."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def rational_roots_by_divisors(coeffs):
    """Rational roots (as Fractions) of an integer polynomial, constant and
    leading coefficient nonzero, by the rational root test."""
    a0, am = abs(coeffs[0]), abs(coeffs[-1])

    def divisors(n):
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.extend((d, n // d))
            d += 1
        return sorted(set(out))

    roots = []
    for p in divisors(a0):
        for q in divisors(am):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and evaluate(coeffs, cand) == 0:
                    roots.append(cand)
    return roots


def _variations_at(chain, n):
    values = [evaluate(g, n) for g in chain]
    return realroots._sign_changes([v > 0 for v in values if v])


def _isolate_by_bisection(squarefree, lo, hi):
    at_hi = evaluate(squarefree, hi)
    while hi - lo > 1 and at_hi:
        mid = (lo + hi) // 2
        at_mid = evaluate(squarefree, mid)
        if at_mid and (at_mid > 0) != (at_hi > 0):
            lo = mid
        else:
            hi, at_hi = mid, at_mid
    return hi


def rational_roots_by_bisection(coeffs):
    """The roots of `realroots.rational_roots`, as Fractions, by the Sturm
    search on the lattice n / lc that splits every interval at its midpoint."""
    f = realroots.normalize(coeffs)
    if realroots.degree(f) < 1:
        return []
    chain = realroots.sturm_sequence(primitive_vector(f))
    if realroots.degree(chain[-1]) > 0:
        chain = [divmod_poly(g, chain[-1])[0] for g in chain]
    lc = abs(chain[0][-1])
    grid = [[c * lc ** (realroots.degree(g) - i) for i, c in enumerate(g)] for g in chain]
    top = (lc + max(abs(c) for c in chain[0])).bit_length()
    stack = [(-1 << top, _variations_at(grid, -1 << top), 1 << top, _variations_at(grid, 1 << top))]
    roots = []
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        count = v_lo - v_hi
        if not count:
            continue
        if count > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            v_mid = _variations_at(grid, mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
            continue
        if count == 1:
            hi = _isolate_by_bisection(grid[0], lo, hi)
        if evaluate(grid[0], hi) == 0:
            roots.append(Fraction(hi, lc))
    return sorted(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def expanded_by_terms(coeffs) -> str:
    """`conic._expanded` with each monomial joined from its u- and v-power
    strings term by term."""
    if not any(coeffs):
        return "0"
    degree = len(coeffs) - 1
    terms = []
    for i in range(degree, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        ju = i
        jv = degree - i
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


def discriminant_by_leibniz(matrix: ConicMatrix) -> BinaryForm:
    """The determinant of a section matrix by the Leibniz formula, a signed
    sum over the six permutations, on coefficient tuples."""
    q = [[f.coeffs for f in row] for row in matrix.entries]
    det = ()
    for perm in itertools.permutations(range(3)):
        term = realroots.mul(realroots.mul(q[0][perm[0]], q[1][perm[1]]), q[2][perm[2]])
        odd = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3)) % 2
        det = realroots.add(det, realroots.neg(term) if odd else term)
    degree = 2 * sum(matrix.splitting)
    return BinaryForm(degree, det + (0,) * (degree + 1 - len(det)))


def _squarefree_on_p1(form: BinaryForm) -> bool:
    return realroots.root_profile(form.coeffs).squarefree and form.infinity_multiplicity() <= 1


def _forms_coprime_on_p1(f: BinaryForm, g: BinaryForm) -> bool:
    affine = gcd_over_q(f.coeffs, g.coeffs)
    if realroots.degree(affine) > 0:
        return False
    return f.infinity_multiplicity() == 0 or g.infinity_multiplicity() == 0


def diagonal_smooth_by_entries(matrix: ConicMatrix) -> bool:
    """Smoothness of a diagonal section p1 x1^2 + p2 x2^2 + p3 x3^2 read off
    its entries: each p_i nonzero and squarefree on P^1, and the p_i pairwise
    coprime on P^1, the point at infinity included."""
    diag = [matrix.entries[i][i] for i in range(3)]
    return (
        all(not f.is_zero() for f in diag)
        and all(_squarefree_on_p1(f) for f in diag)
        and all(
            _forms_coprime_on_p1(diag[i], diag[j])
            for i in range(3)
            for j in range(i + 1, 3)
        )
    )
