"""Integer lattices with symmetric pairings and divisor-class arithmetic.

The central structure is a free finitely generated abelian group with an
integer-valued symmetric bilinear form, typically of signature (1, rank - 1):
the intersection pairing on the Picard group of a smooth projective surface.
Divisor classes are integer coefficient vectors in a declared basis.

All arithmetic is exact.  The bounded class enumeration decomposes a class v
as v = lambda*K + v_perp; the form is negative definite on the orthogonal
complement of K, so classes with prescribed self-intersection and bounded
pairing against K live in an ellipsoid whose radius is certified by a
rational LDL^T factorisation (never floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import intlinalg


@dataclass(frozen=True)
class IntLattice:
    rank: int
    basis_labels: tuple
    gram: tuple

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        labels = tuple(self.basis_labels)
        gram = tuple(tuple(row) for row in self.gram)
        if len(labels) != self.rank or len(set(labels)) != self.rank:
            raise ValueError("basis labels must be distinct, one per generator")
        if len(gram) != self.rank or any(len(row) != self.rank for row in gram):
            raise ValueError("pairing matrix size must match the rank")
        if any(gram[i][j] != gram[j][i] for i in range(self.rank) for j in range(self.rank)):
            raise ValueError("pairing matrix must be symmetric")
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "gram", gram)

    def vector(self, coeffs) -> "ClassVector":
        return ClassVector(self, tuple(int(c) for c in coeffs))

    def zero(self) -> "ClassVector":
        return self.vector((0,) * self.rank)

    def basis_vector(self, i) -> "ClassVector":
        return self.vector(tuple(int(j == i) for j in range(self.rank)))

    def pair(self, u: "ClassVector", v: "ClassVector") -> int:
        """Intersection product u.v = u^T * gram * v."""
        if u.lattice != self or v.lattice != self:
            raise ValueError("classes do not belong to this lattice")
        g = self.gram
        return sum(
            ui * sum(gij * vj for gij, vj in zip(gi, v.coeffs))
            for ui, gi in zip(u.coeffs, g)
        )

    def is_picard_type(self) -> bool:
        """Whether the form has signature (1, rank - 1)."""
        return _signature_of(self) == (1, self.rank - 1, 0)


@lru_cache(maxsize=None)
def _signature_of(lattice: IntLattice):
    return intlinalg.signature(lattice.gram)


@dataclass(frozen=True)
class ClassVector:
    lattice: IntLattice
    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
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
        return ClassVector(self.lattice, tuple(int(k) * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)


@dataclass(frozen=True)
class LatticeMap:
    """Homomorphism of lattices, columns of `matrix` = images of basis vectors."""

    source: IntLattice
    target: IntLattice
    matrix: tuple

    def __post_init__(self):
        matrix = tuple(tuple(row) for row in self.matrix)
        if len(matrix) != self.target.rank or any(len(r) != self.source.rank for r in matrix):
            raise ValueError("matrix shape must be target rank x source rank")
        object.__setattr__(self, "matrix", matrix)

    def apply(self, v: ClassVector) -> ClassVector:
        if v.lattice != self.source:
            raise ValueError("class does not belong to the source lattice")
        return self.target.vector(intlinalg.mat_vec(self.matrix, v.coeffs))

    def is_isometry(self) -> bool:
        """Pairings are preserved exactly: M^T * gram_target * M = gram_source."""
        m = [list(r) for r in self.matrix]
        lhs = intlinalg.mat_mul(
            intlinalg.mat_mul(intlinalg.transpose(m), [list(r) for r in self.target.gram]), m
        )
        return lhs == [list(r) for r in self.source.gram]

    def is_involution(self) -> bool:
        if self.source != self.target:
            return False
        m = [list(r) for r in self.matrix]
        return intlinalg.mat_mul(m, m) == intlinalg.identity(self.source.rank)


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
    v = (v.K / K.K) K + v_perp, the form is negative definite on the
    orthogonal complement of K (Hodge index), so

        Q(v) := 2 (v.K)^2 - (K.K) (v.v)

    is positive definite and bounded on the search set; its lattice points are
    enumerated completely.  Output is sorted lexicographically on
    coefficients.
    """
    if k.lattice != lattice:
        raise ValueError("K does not belong to the lattice")
    if not lattice.is_picard_type():
        raise ValueError("lattice does not have signature (1, rank-1)")
    kk = k.dot(k)
    if kk <= 0:
        raise ValueError("K.K must be positive")
    if k_min > k_max:
        return []
    g = lattice.gram
    gk = intlinalg.mat_vec(g, k.coeffs)
    n = lattice.rank
    quad = [[2 * gk[i] * gk[j] - kk * g[i][j] for j in range(n)] for i in range(n)]
    bound = 2 * max(k_min * k_min, k_max * k_max) - kk * self_int
    if bound < 0:
        return []
    try:
        points = intlinalg.enumerate_quadratic(quad, bound)
    except ValueError as exc:
        raise RuntimeError(
            "form on the orthogonal complement of K is not negative definite"
        ) from exc
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
