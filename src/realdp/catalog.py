"""Lattice models of the real del Pezzo surfaces whose real part is a
disjoint union of spheres and real projective planes.

Each model bundles the Picard lattice of the complexification, the
complex-conjugation involution on it, the real Picard lattice embedded as the
fixed sublattice, the canonical class on both sides, the finitely many
(-1)-classes with their pairings against the real basis, and the topological
bookkeeping (s spheres, r projective planes).  The embedding and the
conjugation are plain integer matrices (tuples of row tuples), built here and
never read from input; every pairing goes through `intlinalg.dot`.

Conventions.  Complex lattices are either the blow-up lattice Z^{1,n} with
basis H, E1, ..., En, pairing diag(1, -1, ..., -1) and canonical class
-3H + E1 + ... + En, or - for the quadric sphere Q31 and its blow-ups - the
hyperbolic plane spanned by the two rulings l1, l2 (l1.l2 = 1, l1^2 = l2^2
= 0, canonical -2 l1 - 2 l2) extended by exceptional classes.  Minimal conic
bundles carry the conjugation that swaps the two components of every singular
fiber; the degree 2 and degree 1 minimal surfaces with real Picard rank one
carry the anticanonical reflection D |-> -D + 2 (D.K / K.K) K, whose fixed
lattice is exactly ZK.  Real lattices keep the honest canonical class K as a
distinguished basis vector whenever one exists in the basis.

Real points may only be blown up on sphere components: blowing up a point of
a projective plane would create a Klein bottle, which is outside the
sphere/projective-plane regime modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .intlinalg import dot, int_tuple, mat_vec
from .lattice import ClassVector, IntLattice, enumerate_classes, geiser_bertini

@dataclass(frozen=True)
class SurfaceModel:
    name: str
    degree: int
    s: int
    r: int
    real_lattice: IntLattice
    canonical: ClassVector
    complex_lattice: IntLattice
    complex_canonical: ClassVector
    embedding: tuple  # complex rank x real rank; column j: real basis vector j in complex coordinates
    involution: tuple  # complex rank x complex rank: the conjugation
    minus_one_classes: tuple
    line_functionals: tuple  # row i: pairings of minus_one_classes[i] with the real basis


@lru_cache(maxsize=None)
def minus_one_curves(l_complex: IntLattice, k: ClassVector) -> tuple:
    """All classes c with c.c = -1 and c.K = -1, in lexicographic order;
    enumerated once per (lattice, K) and shared by the models built on it."""
    return tuple(enumerate_classes(l_complex, k, -1, -1, -1))


def _model(name, degree, s, r, cx, k_cx_coeffs, involution, real_labels, real_columns, canonical_coeffs):
    """Assemble a SurfaceModel from complex-lattice data and a real basis.

    `real_columns` are the real basis vectors u written in complex
    coordinates, and G u is computed once for each.  The real pairing matrix
    is u.(G v), so the embedding is an isometry by construction, and the line
    functionals are L.(G u), which make D.L a dot product in real coordinates.
    """
    k_cx = cx.vector(k_cx_coeffs)
    if k_cx.dot(k_cx) != degree:
        raise ValueError(f"{name}: canonical self-intersection does not match the degree")
    gram_images = [mat_vec(cx.gram, u) for u in real_columns]
    gram = tuple(tuple(dot(u, gv) for gv in gram_images) for u in real_columns)
    real = IntLattice(len(real_labels), tuple(real_labels), gram)
    embedding = tuple(zip(*real_columns))
    canonical = real.vector(canonical_coeffs)
    if tuple(mat_vec(embedding, canonical.coeffs)) != k_cx.coeffs:
        raise ValueError(f"{name}: real canonical class does not embed onto K")
    lines = minus_one_curves(cx, k_cx)
    return SurfaceModel(
        name=name,
        degree=degree,
        s=s,
        r=r,
        real_lattice=real,
        canonical=canonical,
        complex_lattice=cx,
        complex_canonical=k_cx,
        embedding=embedding,
        involution=involution,
        minus_one_classes=lines,
        line_functionals=tuple(tuple(dot(line.coeffs, gu) for gu in gram_images) for line in lines),
    )


def _blowup_lattice(n_exceptional):
    """Z^{1,n}: basis H, E1, ..., En with pairing diag(1, -1, ..., -1)."""
    labels = ("H",) + tuple(f"E{i}" for i in range(1, n_exceptional + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(n_exceptional + 1))
        for i in range(n_exceptional + 1)
    )
    return IntLattice(n_exceptional + 1, labels, gram)


def _conic_bundle_involution(n_exceptional):
    """Conjugation of a minimal conic bundle on Z^{1,n}, n odd.

    Fixes F = H - E1 and K, and swaps the two lines through the first blown-up
    point in every singular fiber: E_j <-> H - E1 - E_j for j >= 2.  Columns
    follow by solving sigma(F) = F, sigma(K) = K.
    """
    if n_exceptional % 2 == 0:
        raise ValueError("a minimal conic bundle has an odd number of blown-up points")
    half = (n_exceptional + 1) // 2
    cols = []
    cols.append([half, -(half - 1)] + [-1] * (n_exceptional - 1))  # image of H
    cols.append([half - 1, -(half - 2)] + [-1] * (n_exceptional - 1))  # image of E1
    for j in range(2, n_exceptional + 1):
        col = [1, -1] + [0] * (n_exceptional - 1)
        col[j] = -1  # image of E_j is H - E1 - E_j
        cols.append(col)
    return tuple(zip(*cols))


def _anticanonical_reflection(cx: IntLattice, k: ClassVector):
    """Matrix of D |-> -D + 2 (D.K / K.K) K (requires K.K in {1, 2})."""
    cols = [geiser_bertini(cx.basis_vector(j), k).coeffs for j in range(cx.rank)]
    return tuple(zip(*cols))


def _build_p2():
    cx = IntLattice(1, ("H",), ((1,),))
    return _model(
        "P2", 9, 0, 1,
        cx, (-3,),
        ((1,),),
        ("H",), [(1,)], (-3,),
    )


def _build_q31():
    cx = IntLattice(2, ("l1", "l2"), ((0, 1), (1, 0)))
    # Conjugation swaps the two rulings; the fixed lattice is generated by the
    # hyperplane class H = l1 + l2 with H.H = 2 and K = -2H.
    return _model(
        "Q31", 8, 1, 0,
        cx, (-2, -2),
        ((0, 1), (1, 0)),
        ("H",), [(1, 1)], (-2,),
    )


def _build_minimal_conic(degree):
    n_exc = 9 - degree
    s = (8 - degree) // 2
    cx = _blowup_lattice(n_exc)
    k = (-3,) + (1,) * n_exc
    f_col = (1, -1) + (0,) * (n_exc - 1)
    return _model(
        f"D{degree}", degree, s, 0,
        cx, k,
        _conic_bundle_involution(n_exc),
        ("F", "K"), [f_col, k], (0, 1),
    )


def _build_anticanonical_minimal(name, degree, s, r):
    n_exc = 9 - degree
    cx = _blowup_lattice(n_exc)
    k = (-3,) + (1,) * n_exc
    return _model(
        name, degree, s, r,
        cx, k,
        _anticanonical_reflection(cx, cx.vector(k)),
        ("K",), [k], (1,),
    )


def _direct_sum(m, block):
    """The block-diagonal matrix of `m` and `block` (tuples of row tuples,
    either may be rectangular)."""
    left, right = len(m[0]), len(block[0]) if block else 0
    return tuple(row + (0,) * right for row in m) + tuple((0,) * left + row for row in block)


def blow_up(base: SurfaceModel, real_points: int = 0, conj_pairs: int = 0) -> SurfaceModel:
    """Blow up a model in `real_points` real points and `conj_pairs` pairs.

    Real centers lie on distinct sphere components (a real point of a
    projective plane would produce a Klein bottle component, which is
    rejected); each one turns a sphere into a projective plane.  Conjugate
    pairs leave the topology unchanged.  Each matrix is the direct sum of the
    base's with a block for the m = a + 2b exceptional classes: -I_m in the
    pairing; the identity on real classes and the swap on each pair in the
    conjugation; a unit or pair-sum real basis vector per real class or pair.
    A real basis vector embedding onto K moves onto the new K.
    """
    a, b = int_tuple((real_points, conj_pairs))
    if a not in (0, 1, 2):
        raise ValueError("real_points must be 0, 1 or 2")
    if b < 0:
        raise ValueError("conj_pairs must be nonnegative")
    if a > base.s:
        raise ValueError("unsupported topology: a real blow-up center must lie on a sphere")
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
    real = [unit(i) for i in range(a)]
    swap = real + [row for i, j in pairs for row in (unit(j), unit(i))]
    old_columns = tuple(zip(*base.embedding))
    columns = list(_direct_sum(old_columns, real + [unit(*p) for p in pairs]))
    labels = base.real_lattice.basis_labels + tuple(new[:a] + [f"{new[i]}+{new[j]}" for i, j in pairs])
    k_cx = k_old + (1,) * m
    k_slot = next((i for i, col in enumerate(old_columns) if col == k_old), None)
    if k_slot is None:
        canonical = base.canonical.coeffs + (1,) * (a + b)
    else:
        columns[k_slot] = k_cx
        canonical = tuple(int(i == k_slot) for i in range(len(columns)))

    name = f"{base.name}_{a}_{2 * b}" + ("_11" if a == 2 else "")
    return _model(
        name, base.degree - m, base.s - a, base.r + a,
        cx, k_cx,
        _direct_sum(base.involution, swap),
        labels, columns, canonical,
    )


def _rebase(model: SurfaceModel, rows, labels):
    """Present the real lattice of `model` in a new unimodular basis whose
    first vector is K.

    `rows` express the new basis vectors in the current real coordinates.  K
    has coordinates (1, 0, ..., 0) in the new basis, and `_model` checks that
    they embed onto the complex canonical class.
    """
    new_cols = [mat_vec(model.embedding, row) for row in rows]
    return _model(
        model.name, model.degree, model.s, model.r,
        model.complex_lattice, model.complex_canonical.coeffs,
        model.involution,
        tuple(labels), new_cols,
        (1,) + (0,) * (len(rows) - 1),
    )


def _build_d2_1_0():
    # Declared presentation <K, Ft, E>: K.K = 1, Ft = F - E is a (-1)-curve,
    # and every pairing of two distinct generators of <-K, Ft, E> equals one.
    model = blow_up(builtin("D2"), real_points=1)
    return _rebase(model, ((0, 1, 0), (1, 0, -1), (0, 0, 1)), ("K", "Ft", "E"))


def _build_g2_1_0():
    model = blow_up(builtin("G2"), real_points=1)
    return _rebase(model, ((1, 0), (0, 1)), ("K", "E"))


# Catalogue order: descending degree, blow-ups of the plane and the quadric
# interleaved with the minimal conic bundles.  The keys are the CLI identifiers.
_BUILDERS = {
    "P2": _build_p2,
    "Q31": _build_q31,
    "P2_0_2": lambda: blow_up(builtin("P2"), conj_pairs=1),
    "Q31_0_2": lambda: blow_up(builtin("Q31"), conj_pairs=1),
    "P2_0_4": lambda: blow_up(builtin("P2"), conj_pairs=2),
    "Q31_0_4": lambda: blow_up(builtin("Q31"), conj_pairs=2),
    "D4": lambda: _build_minimal_conic(4),
    "P2_0_6": lambda: blow_up(builtin("P2"), conj_pairs=3),
    "D4_1_0": lambda: blow_up(builtin("D4"), real_points=1),
    "D4_2_0_11": lambda: blow_up(builtin("D4"), real_points=2),
    "Q31_0_6": lambda: blow_up(builtin("Q31"), conj_pairs=3),
    "D4_0_2": lambda: blow_up(builtin("D4"), conj_pairs=1),
    "D2": lambda: _build_minimal_conic(2),
    "G2": lambda: _build_anticanonical_minimal("G2", 2, 4, 0),
    "P2_0_8": lambda: blow_up(builtin("P2"), conj_pairs=4),
    "D4_1_2": lambda: blow_up(builtin("D4"), real_points=1, conj_pairs=1),
    "D2_1_0": _build_d2_1_0,
    "G2_1_0": _build_g2_1_0,
    "B1": lambda: _build_anticanonical_minimal("B1", 1, 4, 1),
}
SURFACE_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def builtin(name: str) -> SurfaceModel:
    """Return the built-in model for one of the catalogued surface names."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown surface {name!r}; known: {', '.join(SURFACE_NAMES)}")
    return _BUILDERS[name]()
