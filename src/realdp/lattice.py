"""Integer lattices with symmetric pairings and divisor-class arithmetic.

The central structure is a free finitely generated abelian group with an
integer-valued symmetric bilinear form, typically of signature (1, rank - 1):
the intersection pairing on the Picard group of a smooth projective surface.
Divisor classes are integer coefficient vectors in a declared basis.

All arithmetic is exact.  The bounded class enumeration decomposes a class v
as v = lambda*K + v_perp; the form is negative definite on the orthogonal
complement of K, so classes with prescribed self-intersection and bounded
pairing against K live in an ellipsoid whose radius is certified by integer
leading principal minors (Bareiss elimination, never floating point).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg


@dataclass(frozen=True)
class IntLattice:
    rank: int
    basis_labels: tuple
    gram: tuple

    def __post_init__(self):
        if intlinalg.int_tuple((self.rank,))[0] < 1:
            raise ValueError("rank must be positive")
        labels = tuple(self.basis_labels)
        gram = tuple(intlinalg.int_tuple(row) for row in self.gram)
        if len(labels) != self.rank or len(set(labels)) != self.rank:
            raise ValueError("basis labels must be distinct, one per generator")
        if len(gram) != self.rank or any(len(row) != self.rank for row in gram):
            raise ValueError("pairing matrix size must match the rank")
        if any(gram[i][j] != gram[j][i] for i in range(self.rank) for j in range(self.rank)):
            raise ValueError("pairing matrix must be symmetric")
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "gram", gram)

    def vector(self, coeffs) -> "ClassVector":
        return ClassVector(self, coeffs)

    def basis_vector(self, i) -> "ClassVector":
        return self.vector(tuple(int(j == i) for j in range(self.rank)))

    def pair(self, u: "ClassVector", v: "ClassVector") -> int:
        """Intersection product u.v = u^T * gram * v."""
        if u.lattice != self or v.lattice != self:
            raise ValueError("classes do not belong to this lattice")
        return intlinalg.dot(u.coeffs, intlinalg.mat_vec(self.gram, v.coeffs))


@dataclass(frozen=True)
class ClassVector:
    lattice: IntLattice
    coeffs: tuple

    def __post_init__(self):
        coeffs = intlinalg.int_tuple(self.coeffs)
        if len(coeffs) != self.lattice.rank:
            raise ValueError("coefficient vector length must equal the lattice rank")
        object.__setattr__(self, "coeffs", coeffs)

    def dot(self, other: "ClassVector") -> int:
        return self.lattice.pair(self, other)

    def _check_same(self, other):
        if not isinstance(other, ClassVector) or other.lattice != self.lattice:
            raise ValueError("classes live in different lattices")

    def __add__(self, other):
        self._check_same(other)
        return ClassVector(self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check_same(other)
        return ClassVector(self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return ClassVector(self.lattice, tuple(-a for a in self.coeffs))

    def __rmul__(self, k):
        k = intlinalg.int_tuple((k,))[0]
        return ClassVector(self.lattice, tuple(k * a for a in self.coeffs))


def adjunction_genus(d: ClassVector, k: ClassVector) -> int:
    """Sectional genus g = D.(D + K)/2 + 1 of a curve section in class D."""
    num = d.dot(d + k)
    if num % 2:
        raise ValueError("non-integral genus: D.(D+K) is odd")
    return num // 2 + 1


def riemann_roch_dim(d: ClassVector, k: ClassVector) -> int:
    """Surface Riemann-Roch value D.(D - K)/2 + 1.

    Equals the dimension of global sections l(D) whenever the higher
    cohomology of D vanishes (for instance when D - K is ample); this routine
    evaluates the formula unconditionally and callers own that hypothesis.
    """
    num = d.dot(d - k)
    if num % 2:
        raise ValueError("non-integral value: D.(D-K) is odd")
    return num // 2 + 1


def enumerate_classes(lattice: IntLattice, k: ClassVector, self_int, k_min, k_max):
    """All classes v with v.v = self_int and k_min <= v.K <= k_max.

    Requires a lattice of signature (1, rank - 1) and K.K > 0.  Writing
    v = (v.K / K.K) K + v_perp,

        Q(v) := 2 (v.K)^2 - (K.K) (v.v) = (v.K)^2 - (K.K) (v_perp.v_perp)

    is positive definite exactly when the form is negative definite on the
    orthogonal complement of K, that is, of signature (1, rank - 1) (Hodge
    index).  The leading principal minors of Q (Sylvester), from the Bareiss
    elimination in `intlinalg`, are therefore the signature certificate, and
    they are computed even for an empty window.  Q is bounded on the
    search set, so its lattice points are enumerated completely.  Output is
    sorted lexicographically on coefficients.
    """
    if k.lattice != lattice:
        raise ValueError("K does not belong to the lattice")
    kk = k.dot(k)
    if kk <= 0:
        raise ValueError("K.K must be positive")
    g = lattice.gram
    gk = intlinalg.mat_vec(g, k.coeffs)
    n = lattice.rank
    quad = [[2 * gk[i] * gk[j] - kk * g[i][j] for j in range(n)] for i in range(n)]
    bound = 2 * max(k_min * k_min, k_max * k_max) - kk * self_int if k_min <= k_max else -1
    try:
        points = intlinalg.enumerate_quadratic(quad, bound)
    except ValueError as exc:
        raise ValueError("lattice does not have signature (1, rank-1)") from exc
    out = []
    for coeffs in points:
        v = lattice.vector(coeffs)
        kv = v.dot(k)
        if k_min <= kv <= k_max and v.dot(v) == self_int:
            out.append(v)
    out.sort(key=lambda v: v.coeffs)
    return out


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
    return -d + (twice // kk) * k
