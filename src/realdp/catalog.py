"""Lattice models of the real del Pezzo surfaces whose real part is a
disjoint union of spheres and real projective planes.

Each model bundles the Picard lattice of the complexification (rank n), the
real Picard lattice embedded in it (rank rho), the canonical class on both
sides, the finitely many (-1)-classes, their distinct pairings against the
real basis (the line functionals that condition c5 of `search` reads), the
topology (s spheres, r projective planes), and the window of classes that
`search` enumerates, with its form, bound and signature certificate.  The
catalogue table gives only the degree and the real basis, and `_model` reads
everything else from them and from the (-1)-classes it is handed.  The
degree is K.K.  On Z^{1,n}, n <= 8, the (-1)-classes are written down, not
enumerated: they are the exceptional curves of the plane blown up in n
points in general position, E_i and six types dH - sum m_i E_i with
d = 1 to 6 (Manin, Cubic Forms, Thm 26.2; Dolgachev, Classical Algebraic
Geometry, 8.2), which `minus_one_curves` places on the E_i.
Complex conjugation is an isometric involution whose fixed lattice is the
real lattice, so its trace is 2 rho - n, and with |det G_real| = 2^a for the
real pairing matrix G_real, Lefschetz (2s + r = 2 + n - 2 rho) and
Kharlamov-Krasnov (2s + 3r = 2 + n - 2a) give r = rho - a and
s = (2 + n - 2 rho - r) / 2 (Degtyarev and Kharlamov, Russian Math. Surveys
55:4, 2000).  The embedding is a plain integer matrix (a tuple of row
tuples), built here and never read from input.  Pairings take
`intlinalg.dot` against the images G u that `intlinalg.mat_vec` computes,
and K.K is `ClassVector.dot`; those two write the row product inline.

Conventions.  Every model but Q31 lives on the blow-up lattice Z^{1,n},
n = 9 - degree, with basis H, E1, ..., En, pairing diag(1, -1, ..., -1) and
canonical class -3H + E1 + ... + En.  The quadric sphere Q31 is P^1 x P^1,
which is not a blow-up of P^2, so it lives on the hyperbolic plane U spanned
by the two rulings l1, l2 (l1.l2 = 1, l1^2 = l2^2 = 0, canonical
-2 l1 - 2 l2).  Its blow-ups Q31_0_2k live on Z^{1,2k+1} through
Bl_1(P^1 x P^1) = Bl_2(P^2): the rulings become H - E1 and H - E2, and the
exceptional classes E1, E2, E3, ... of the blown-up quadric become
H - E1 - E2, E3, E4, ....  Their real basis keeps the quadric's labels:
"H" = l1 + l2 = 2H - E1 - E2, "E1+E2" = H - E1 - E2 + E3, "E3+E4" = E4 + E5,
and so on.  Minimal conic bundles have the real basis F = H - E1, K, as
conjugation swaps the two components of every singular fiber; the degree 2
and degree 1 minimal surfaces with real Picard rank one have the real basis
K, as conjugation is the anticanonical (Geiser or Bertini) reflection
D |-> -D + 2 (D.K / K.K) K.  Real lattices keep the honest canonical class K
as a basis vector whenever one exists in the basis.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .intlinalg import determinant, dot, mat_vec
from .lattice import ClassVector, ClassWindow, IntLattice, class_window


class SurfaceModel(NamedTuple):
    """A real del Pezzo surface; `_model` reads its degree, s and r from the
    lattices and stores the window that `search` enumerates, with its form,
    bound and signature certificate, so no search recomputes them.  Its
    (-1)-classes are those of Manin's list that `minus_one_curves` writes
    down on Z^{1,n}, or none on the U of Q31."""
    name: str
    degree: int
    s: int
    r: int
    real_lattice: IntLattice
    canonical: ClassVector
    complex_lattice: IntLattice
    complex_canonical: ClassVector
    embedding: tuple  # complex rank x real rank; column j: real basis vector j in complex coordinates
    minus_one_classes: tuple
    line_functionals: tuple  # sorted distinct rows: pairings of a (-1)-class with the real basis
    window: ClassWindow  # classes with D.D = r + 2s and r - 4 <= D.K <= r + 2s - 4 (c2 and c3)


def _model(name, cx, k_cx_coeffs, real_labels, real_columns, lines):
    """Assemble a SurfaceModel from complex-lattice data and a real basis.

    `real_columns` are the real basis vectors u written in complex
    coordinates, and G u is computed once for each.  The real pairing matrix
    is u.(G v), so the embedding is an isometry by construction, and the line
    functionals are the rows L.(G u), which make D.L a dot product in real
    coordinates.  `lines` are the (-1)-classes of `cx`, kept as the model's
    `minus_one_classes`.  Many share a row (the 240 of degree 1 give 1 to
    73), and D.L > 0 on every class is D.L > 0 on every distinct row, so
    only the sorted distinct rows are kept.

    With U the embedding and d = det G_real, K has real coordinates
    G_real^-1 U^T G K by Cramer's rule: the i-th is det G_real with column i
    replaced by U^T G K, over d.  The degree is K.K, and s and r follow from
    rho, n and a as in the module docstring.  The search window of c2 and
    c3 is built here, once per model.  A singular G_real, real
    coordinates that are not integers or do not embed onto K, a
    |det G_real| that is not a power of two, or an s that is odd or
    negative or an r that is negative raises ValueError naming the model.
    """
    k_cx = cx.vector(k_cx_coeffs)
    gram_images = [mat_vec(cx.gram, u) for u in real_columns]
    gram = tuple(tuple(dot(u, gv) for gv in gram_images) for u in real_columns)
    real = IntLattice(len(real_labels), tuple(real_labels), gram)
    embedding = tuple(zip(*real_columns))
    det = determinant(gram)
    if not det:
        raise ValueError(f"{name}: the real pairing matrix is singular")
    rhs = [dot(gv, k_cx.coeffs) for gv in gram_images]  # U^T G K
    coords = [determinant([row[:i] + (b,) + row[i + 1:] for row, b in zip(gram, rhs)]) for i in range(real.rank)]
    canonical = tuple(c // det for c in coords)
    if any(c % det for c in coords) or tuple(mat_vec(embedding, canonical)) != k_cx.coeffs:
        raise ValueError(f"{name}: K is not a class of the real lattice")
    det = abs(det)
    r = real.rank - (det.bit_length() - 1)
    s, s_odd = divmod(2 + cx.rank - 2 * real.rank - r, 2)
    if det & (det - 1) or s_odd or min(s, r) < 0:
        raise ValueError(f"{name}: the real lattice gives no union of spheres and planes")
    k_real = real.vector(canonical)
    return SurfaceModel(
        name=name,
        degree=k_cx.dot(k_cx),
        s=s,
        r=r,
        real_lattice=real,
        canonical=k_real,
        complex_lattice=cx,
        complex_canonical=k_cx,
        embedding=embedding,
        minus_one_classes=lines,
        line_functionals=tuple(sorted({tuple(dot(line.coeffs, gu) for gu in gram_images) for line in lines})),
        window=class_window(real, k_real, r + 2 * s, r - 4, r + 2 * s - 4),
    )


@lru_cache(maxsize=None)
def _blowup_lattice(n_exceptional):
    """Z^{1,n}: basis H, E1, ..., En with pairing diag(1, -1, ..., -1)."""
    labels = ("H",) + tuple(f"E{i}" for i in range(1, n_exceptional + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n_exceptional + 1))
        for i in range(n_exceptional + 1)
    )
    return IntLattice(n_exceptional + 1, labels, gram)


# The (-1)-classes dH - m_1 E1 - ... - m_n En of Z^{1,n}, n <= 8, other than
# the E_i: one row (d, number of m_i = 3, of m_i = 2, of m_i = 1) per type,
# every other m_i zero (Manin, Cubic Forms, Thm 26.2).
_MINUS_ONE_TYPES = ((1, 0, 0, 2), (2, 0, 0, 5), (3, 0, 1, 6), (4, 0, 3, 5), (5, 0, 6, 2), (6, 1, 7, 0))


@lru_cache(maxsize=None)
def minus_one_curves(n_exceptional: int) -> tuple:
    """All classes c of Z^{1,n} with c.c = -1 and c.K = -1, n <= 8, in
    lexicographic order, on the one lattice object `_blowup_lattice(n)`.

    They are the exceptional curves of the plane blown up in n points in
    general position, from Manin's list (Cubic Forms, Thm 26.2): the E_i and
    the six types of `_MINUS_ONE_TYPES`, each placed on the E_i in every
    way, which gives 0, 1, 3, 6, 10, 16, 27, 56 and 240 classes for n = 0
    to 8.  Written down once per n and shared by the models built on
    Z^{1,n}.  Any other n raises ValueError: for n >= 9 there are infinitely
    many (-1)-classes.
    """
    n = n_exceptional
    if not 0 <= n <= 8:
        raise ValueError("Z^{1,n} has finitely many (-1)-classes only for 0 <= n <= 8")
    rows = [(0,) * (i + 1) + (1,) + (0,) * (n - 1 - i) for i in range(n)]  # the E_i
    for d, threes, twos, ones in _MINUS_ONE_TYPES:
        for heavy in combinations(range(n), threes + twos):  # the m_i >= 2
            light = [i for i in range(n) if i not in heavy]
            for tripled in combinations(heavy, threes):
                for single in combinations(light, ones):
                    rows.append((d,) + tuple(-3 if i in tripled else -2 if i in heavy else -1 if i in single else 0
                                             for i in range(n)))
    lattice = _blowup_lattice(n)
    return tuple(lattice.vector(row) for row in sorted(rows))


# One row per surface, in catalogue order: descending degree, blow-ups of the
# plane and the quadric interleaved with the minimal conic bundles.  The keys
# are the CLI identifiers.  A row gives the degree and the labelled real basis,
# each vector in the coordinates H, E1, ..., En of Z^{1,n}, n = 9 - degree,
# with its trailing zeros left out; Q31 alone is written in l1, l2 on U.  A
# blow-up at a real point adds its exceptional class to the real basis, and one
# at a conjugate pair adds the pair's sum.  D2_1_0 and G2_1_0, the blow-ups of
# D2 and G2 at a real point with exceptional class E = E8, are declared as
# <K, Ft = F - E, E> and <K, E>: in <-K, Ft, E>, K.K = 1, Ft is a (-1)-curve
# and any two distinct generators pair to one.
_CATALOGUE = {
    "P2": (9, {"H": (1,)}),
    "Q31": (8, {"H": (1, 1)}),
    "P2_0_2": (7, {"H": (1,), "E1+E2": (0, 1, 1)}),
    "Q31_0_2": (6, {"H": (2, -1, -1), "E1+E2": (1, -1, -1, 1)}),
    "P2_0_4": (5, {"H": (1,), "E1+E2": (0, 1, 1), "E3+E4": (0, 0, 0, 1, 1)}),
    "Q31_0_4": (4, {"H": (2, -1, -1), "E1+E2": (1, -1, -1, 1), "E3+E4": (0, 0, 0, 0, 1, 1)}),
    "D4": (4, {"F": (1, -1), "K": (-3,) + (1,) * 5}),
    "P2_0_6": (3, {"H": (1,), "E1+E2": (0, 1, 1), "E3+E4": (0, 0, 0, 1, 1), "E5+E6": (0,) * 5 + (1, 1)}),
    "D4_1_0": (3, {"F": (1, -1), "K": (-3,) + (1,) * 6, "E6": (0,) * 6 + (1,)}),
    "D4_2_0_11": (2, {"F": (1, -1), "K": (-3,) + (1,) * 7, "E6": (0,) * 6 + (1,), "E7": (0,) * 7 + (1,)}),
    "Q31_0_6": (2, {"H": (2, -1, -1), "E1+E2": (1, -1, -1, 1), "E3+E4": (0, 0, 0, 0, 1, 1),
                    "E5+E6": (0,) * 6 + (1, 1)}),
    "D4_0_2": (2, {"F": (1, -1), "K": (-3,) + (1,) * 7, "E6+E7": (0,) * 6 + (1, 1)}),
    "D2": (2, {"F": (1, -1), "K": (-3,) + (1,) * 7}),
    "G2": (2, {"K": (-3,) + (1,) * 7}),
    "P2_0_8": (1, {"H": (1,), "E1+E2": (0, 1, 1), "E3+E4": (0, 0, 0, 1, 1), "E5+E6": (0,) * 5 + (1, 1),
                   "E7+E8": (0,) * 7 + (1, 1)}),
    "D4_1_2": (1, {"F": (1, -1), "K": (-3,) + (1,) * 8, "E6": (0,) * 6 + (1,), "E7+E8": (0,) * 7 + (1, 1)}),
    "D2_1_0": (1, {"K": (-3,) + (1,) * 8, "Ft": (1, -1) + (0,) * 6 + (-1,), "E": (0,) * 8 + (1,)}),
    "G2_1_0": (1, {"K": (-3,) + (1,) * 8, "E": (0,) * 8 + (1,)}),
    "B1": (1, {"K": (-3,) + (1,) * 8}),
}
SURFACE_NAMES = tuple(_CATALOGUE)


def builtin(name: str) -> SurfaceModel:
    """Return the built-in model for one of the catalogued surface names;
    any other name, an unhashable one too, raises ValueError before the
    cache of `_build` hashes it."""
    if name not in SURFACE_NAMES:
        raise ValueError(f"unknown surface {name!r}; known: {', '.join(SURFACE_NAMES)}")
    return _build(name)


@lru_cache(maxsize=None)
def _build(name):
    """The model of a catalogued surface, built once per name."""
    degree, basis = _CATALOGUE[name]
    n = 9 - degree
    if name == "Q31":  # conjugation swaps the rulings and fixes H = l1 + l2, with K = -2H
        # c = a l1 + b l2 has c.c = 2ab, never -1, so U has no (-1)-class
        cx, k, lines = IntLattice(2, ("l1", "l2"), ((0, 1), (1, 0))), (-2, -2), ()
    else:
        cx, k, lines = _blowup_lattice(n), (-3,) + (1,) * n, minus_one_curves(n)
    columns = [column + (0,) * (cx.rank - len(column)) for column in basis.values()]
    return _model(name, cx, k, tuple(basis), columns, lines)
