"""Lattice models of the real del Pezzo surfaces whose real part is a
disjoint union of spheres and real projective planes.

Each model bundles the Picard lattice of the complexification (rank n), the
real Picard lattice embedded in it (rank rho), the canonical class on both
sides, the finitely many (-1)-classes, their distinct pairings against the
real basis (the line functionals that condition c5 of `search` reads), the
topology (s spheres, r projective planes), and the window of classes that
`search` enumerates, with its form, bound and signature certificate.  A
builder gives only the real basis, and `_model` reads everything else from it.  The degree is K.K.
Complex conjugation is an isometric involution whose fixed lattice is the
real lattice, so its trace is 2 rho - n, and with |det G_real| = 2^a for the
real pairing matrix G_real, Lefschetz (2s + r = 2 + n - 2 rho) and
Kharlamov-Krasnov (2s + 3r = 2 + n - 2a) give r = rho - a and
s = (2 + n - 2 rho - r) / 2 (Degtyarev and Kharlamov, Russian Math. Surveys
55:4, 2000).  The embedding is a plain integer matrix (a tuple of row
tuples), built here and never read from input; every pairing goes through
`intlinalg.dot`.

Conventions.  Complex lattices are either the blow-up lattice Z^{1,n} with
basis H, E1, ..., En, pairing diag(1, -1, ..., -1) and canonical class
-3H + E1 + ... + En, or - for the quadric sphere Q31 and its blow-ups - the
hyperbolic plane spanned by the two rulings l1, l2 (l1.l2 = 1, l1^2 = l2^2
= 0, canonical -2 l1 - 2 l2) extended by exceptional classes.  Minimal conic
bundles have the real basis F = H - E1, K, as conjugation swaps the two
components of every singular fiber; the degree 2 and degree 1 minimal
surfaces with real Picard rank one have the real basis K, as conjugation is
the anticanonical (Geiser or Bertini) reflection D |-> -D + 2 (D.K / K.K) K.
Real lattices keep the honest canonical class K as a basis vector whenever
one exists in the basis.

Real points may only be blown up on sphere components: blowing up a point of
a projective plane would create a Klein bottle, which is outside the
sphere/projective-plane regime modelled here, and the two identities give a
negative s.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .intlinalg import determinant, dot, int_tuple, mat_vec
from .lattice import ClassVector, ClassWindow, IntLattice, class_window, enumerate_classes


class SurfaceModel(NamedTuple):
    """A real del Pezzo surface; `_model` reads its degree, s and r from the
    lattices and stores the window that `search` enumerates, with its form,
    bound and signature certificate, so no search recomputes them."""
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


@lru_cache(maxsize=None)
def minus_one_curves(l_complex: IntLattice, k: ClassVector) -> tuple:
    """All classes c with c.c = -1 and c.K = -1, in lexicographic order;
    enumerated once per (lattice, K), from a window built here, and shared
    by the models built on it."""
    return tuple(enumerate_classes(class_window(l_complex, k, -1, -1, -1)))


def _model(name, cx, k_cx_coeffs, real_labels, real_columns):
    """Assemble a SurfaceModel from complex-lattice data and a real basis.

    `real_columns` are the real basis vectors u written in complex
    coordinates, and G u is computed once for each.  The real pairing matrix
    is u.(G v), so the embedding is an isometry by construction, and the line
    functionals are the rows L.(G u), which make D.L a dot product in real
    coordinates.  Many (-1)-classes share a row (the 240 of degree 1 give 1
    to 73), and D.L > 0 on every class is D.L > 0 on every distinct row, so
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
    lines = minus_one_curves(cx, k_cx)
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


def _blowup_lattice(n_exceptional):
    """Z^{1,n}: basis H, E1, ..., En with pairing diag(1, -1, ..., -1)."""
    labels = ("H",) + tuple(f"E{i}" for i in range(1, n_exceptional + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n_exceptional + 1))
        for i in range(n_exceptional + 1)
    )
    return IntLattice(n_exceptional + 1, labels, gram)


def _build_plane_blowup(name, degree, real_labels):
    """A surface on Z^{1,n}, n = 9 - degree, whose real basis is named by
    `real_labels` among H, F = H - E1, K = -3H + E1 + ... + En, E = En and
    Ft = F - E.  The minimal surfaces use the first three; D2_1_0 and G2_1_0,
    the blow-ups of D2 and G2 at one real point with exceptional class E,
    are declared as <K, Ft, E> and <K, E>: in <-K, Ft, E>, K.K = 1, Ft is a
    (-1)-curve and any two distinct generators pair to one."""
    n = 9 - degree
    k = (-3,) + (1,) * n
    e = (0,) * n + (1,)
    f = (1, -1) + (0,) * (n - 1)
    columns = {"H": (1,) + (0,) * n, "F": f, "K": k, "E": e, "Ft": tuple(a - b for a, b in zip(f, e))}
    return _model(name, _blowup_lattice(n), k, real_labels, [columns[label] for label in real_labels])


def _build_q31():
    cx = IntLattice(2, ("l1", "l2"), ((0, 1), (1, 0)))
    # Conjugation swaps the two rulings; the real lattice is generated by the
    # hyperplane class H = l1 + l2 with H.H = 2 and K = -2H.
    return _model("Q31", cx, (-2, -2), ("H",), [(1, 1)])


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
    would produce a Klein bottle component.  The pairing and the real basis
    are the direct sums of the base's with a block for the m = a + 2b
    exceptional classes: -I_m, and a unit or pair-sum real basis vector per
    real class or pair, as conjugation fixes each real class and swaps each
    pair.  A real basis vector embedding onto K moves onto the new K.
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
    return _model(name, cx, k_cx, labels, columns)


# Catalogue order: descending degree, blow-ups of the plane and the quadric
# interleaved with the minimal conic bundles.  The keys are the CLI identifiers.
_BUILDERS = {
    "P2": lambda: _build_plane_blowup("P2", 9, ("H",)),
    "Q31": _build_q31,
    "P2_0_2": lambda: blow_up(builtin("P2"), conj_pairs=1),
    "Q31_0_2": lambda: blow_up(builtin("Q31"), conj_pairs=1),
    "P2_0_4": lambda: blow_up(builtin("P2"), conj_pairs=2),
    "Q31_0_4": lambda: blow_up(builtin("Q31"), conj_pairs=2),
    "D4": lambda: _build_plane_blowup("D4", 4, ("F", "K")),
    "P2_0_6": lambda: blow_up(builtin("P2"), conj_pairs=3),
    "D4_1_0": lambda: blow_up(builtin("D4"), real_points=1),
    "D4_2_0_11": lambda: blow_up(builtin("D4"), real_points=2),
    "Q31_0_6": lambda: blow_up(builtin("Q31"), conj_pairs=3),
    "D4_0_2": lambda: blow_up(builtin("D4"), conj_pairs=1),
    "D2": lambda: _build_plane_blowup("D2", 2, ("F", "K")),
    "G2": lambda: _build_plane_blowup("G2", 2, ("K",)),
    "P2_0_8": lambda: blow_up(builtin("P2"), conj_pairs=4),
    "D4_1_2": lambda: blow_up(builtin("D4"), real_points=1, conj_pairs=1),
    "D2_1_0": lambda: _build_plane_blowup("D2_1_0", 1, ("K", "Ft", "E")),
    "G2_1_0": lambda: _build_plane_blowup("G2_1_0", 1, ("K", "E")),
    "B1": lambda: _build_plane_blowup("B1", 1, ("K",)),
}
SURFACE_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def builtin(name: str) -> SurfaceModel:
    """Return the built-in model for one of the catalogued surface names."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown surface {name!r}; known: {', '.join(SURFACE_NAMES)}")
    return _BUILDERS[name]()
