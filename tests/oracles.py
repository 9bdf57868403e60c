"""Test-only oracles: brute-force counterparts of library routines.

Box enumeration checks the ellipsoid search of `realdp.search`; Hermite
normal forms, integer kernels and fixed sublattices check that each real
lattice is the fixed part of its conjugation; the Smith normal form checks
primitivity and kernel saturation in the lattice tests; the linking criterion
sums linking numbers over the components of a curve.  Matrix products,
inverses and signatures check isometries, involutions and the signature
certificate of the class enumeration; the Fincke-Pohst search on a rational
LDL^T factorisation checks the fraction-free one of
`intlinalg.enumerate_quadratic`, and its pivots check the Bareiss minors; a
squarefree decomposition with one Sturm count per part checks
`realroots.root_profile`, and the Sturm chain by remainders over Q checks the
integer chains of `realroots.sturm_sequence`.  The rational root test by
divisor trial division checks `realroots.rational_roots`, and the
entry-by-entry smoothness rule for diagonal sections checks `conic.analyze`.
Expanding each monomial of a hypersurface along a line checks the restriction
by polar forms of `topology.HypersurfaceSpec.restrict_to_line`.
The library itself never calls these.
"""

import itertools
from fractions import Fraction
from math import isqrt

from realdp import realroots
from realdp.catalog import SurfaceModel
from realdp.conic import BinaryForm, ConicMatrix
from realdp.search import check_conditions
from realdp.topology import GreatSubsphere, linking_number


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


def hyperbolicity_from_linking(components, e: GreatSubsphere, chain: GreatSubsphere | None, claimed_degree: int) -> bool:
    """Linking criterion: sum of |lk(component, E)| equals the degree."""
    return sum(abs(linking_number(c, e, chain)) for c in components) == claimed_degree


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


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


def sturm_sequence_over_q(p):
    chain = [realroots.normalize(p)]
    d = realroots.derivative(chain[0])
    if d:
        chain.append(d)
        while realroots.degree(chain[-1]) > 0:
            rem = realroots.divmod_poly(chain[-2], chain[-1])[1]
            if not rem:
                break
            chain.append(realroots.neg(rem))
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
                if cand not in roots and realroots.evaluate(coeffs, cand) == 0:
                    roots.append(cand)
    return roots


def _squarefree_on_p1(form: BinaryForm) -> bool:
    return realroots.root_profile(form.coeffs).squarefree and form.infinity_multiplicity() <= 1


def _forms_coprime_on_p1(f: BinaryForm, g: BinaryForm) -> bool:
    affine = realroots.gcd_poly(f.coeffs, g.coeffs)
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
