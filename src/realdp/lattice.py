"""Integer lattices with symmetric pairings, and divisor classes paired in them.

The central structure is a free finitely generated abelian group with an
integer-valued symmetric bilinear form, typically of signature (1, rank - 1):
the intersection pairing on the Picard group of a smooth projective surface.
Divisor classes are integer coefficient vectors in a declared basis, and
the pairing is their one operation.

All arithmetic is exact.  The bounded class enumeration decomposes a class v
as v = lambda*K + v_perp; the form is negative definite on the orthogonal
complement of K, so classes with prescribed self-intersection and bounded
pairing against K live in an ellipsoid whose radius is certified by integer
leading principal minors (Bareiss elimination, never floating point).  A
`ClassWindow` holds that ellipsoid's form, bound and certificate, computed
once by `class_window`; `enumerate_classes` only walks its lattice points.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from . import intlinalg


class IntLattice(intlinalg.Value):
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


class ClassVector(intlinalg.Value):
    lattice: IntLattice
    coeffs: tuple

    def __post_init__(self):
        coeffs = intlinalg.int_tuple(self.coeffs)
        if len(coeffs) != self.lattice.rank:
            raise ValueError("coefficient vector length must equal the lattice rank")
        object.__setattr__(self, "coeffs", coeffs)

    def dot(self, other: "ClassVector") -> int:
        """The intersection product D.E = d^T G e, G the pairing matrix of
        the lattice that both classes belong to, with no call per row."""
        lattice = self.lattice
        if other.lattice is not lattice:
            check_member(other, lattice)
        y = other.coeffs
        return sum(map(mul, self.coeffs, [sum(map(mul, row, y)) for row in lattice.gram]))


def check_member(v: ClassVector, lattice: IntLattice) -> None:
    """Raise ValueError unless v is a class of `lattice`, or of an equal one;
    hot callers test `v.lattice is lattice` first and call this otherwise."""
    if v.lattice != lattice:
        raise ValueError("classes do not belong to this lattice")


class ClassWindow(NamedTuple):
    """The classes v with v.v = self_int and k_min <= v.K <= k_max, ready for
    `enumerate_classes`: `class_window` checks the lattice and K once, and
    stores the form Q, the bound on Q over the window and the Fincke-Pohst
    set-up of Q, whose minors certify the signature of the lattice."""
    lattice: IntLattice
    k: ClassVector
    self_int: int
    k_min: int
    k_max: int
    quad: tuple
    bound: int
    form: intlinalg.FinckePohst


def class_window(lattice: IntLattice, k: ClassVector, self_int, k_min, k_max) -> ClassWindow:
    """The window of classes v with v.v = self_int and k_min <= v.K <= k_max.

    Requires a lattice of signature (1, rank - 1) and K.K > 0.  Writing
    v = (v.K / K.K) K + v_perp,

        Q(v) := 2 (v.K)^2 - (K.K) (v.v) = (v.K)^2 - (K.K) (v_perp.v_perp)

    is positive definite exactly when the form is negative definite on the
    orthogonal complement of K, that is, of signature (1, rank - 1) (Hodge
    index).  The leading principal minors of Q (Sylvester), from the Bareiss
    elimination of `intlinalg.fincke_pohst`, are therefore the signature
    certificate; they are computed here, once, even for an empty window, so
    a lattice of another signature raises ValueError.  Q is at most
    2 max(k_min^2, k_max^2) - (K.K) self_int on the window (-1 when the
    window is empty), so its lattice points are enumerated completely.
    """
    self_int, k_min, k_max = intlinalg.int_tuple((self_int, k_min, k_max))
    if k.lattice != lattice:
        raise ValueError("K does not belong to the lattice")
    kk = k.dot(k)
    if kk <= 0:
        raise ValueError("K.K must be positive")
    g = lattice.gram
    gk = intlinalg.mat_vec(g, k.coeffs)
    n = lattice.rank
    quad = tuple(tuple(2 * gk[i] * gk[j] - kk * g[i][j] for j in range(n)) for i in range(n))
    bound = 2 * max(k_min * k_min, k_max * k_max) - kk * self_int if k_min <= k_max else -1
    try:
        form = intlinalg.fincke_pohst(quad)
    except ValueError as exc:
        raise ValueError("lattice does not have signature (1, rank-1)") from exc
    return ClassWindow(lattice, k, self_int, k_min, k_max, quad, bound, form)


def enumerate_classes(window: ClassWindow):
    """All classes of `window`, sorted lexicographically on coefficients.

    It walks the window's stored Fincke-Pohst set-up, so no elimination,
    K.K, G K or lcm runs here; each enumerated point v is kept when v.K lies
    in the window and v.v = self_int.
    """
    lattice, k, self_int, k_min, k_max = window.lattice, window.k, window.self_int, window.k_min, window.k_max
    points = intlinalg.enumerate_quadratic(window.form, window.bound)
    out = []
    for coeffs in points:
        v = lattice.vector(coeffs)
        kv = v.dot(k)
        if k_min <= kv <= k_max and v.dot(v) == self_int:
            out.append(v)
    out.sort(key=lambda v: v.coeffs)
    return out
