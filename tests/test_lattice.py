import itertools
import random

import pytest

from realdp.catalog import SURFACE_NAMES, builtin
from realdp.lattice import (
    IntLattice,
    adjunction_genus,
    class_window,
    enumerate_classes,
    riemann_roch_dim,
)

from conftest import assert_value_semantics
from oracles import (
    basis_vector,
    combination,
    declared_conjugation,
    fixed_sublattice,
    geiser_bertini,
    hnf,
    pairing,
    signature,
    zero_class,
)


def d2_real():
    return IntLattice(2, ("F", "K"), ((0, -2), (-2, 2)))


def d2_1_0_real():
    return builtin("D2_1_0").real_lattice


def test_pair_worked_values():
    lat = d2_real()
    f, k = basis_vector(lat, 0), basis_vector(lat, 1)
    assert f.dot(k) == -2
    assert f.dot(f) == 0
    assert k.dot(k) == 2
    assert zero_class(lat).dot(k) == 0


def test_pair_rank_three_expansion():
    # -3K - Ft + E on the degree-one blow-up of the degree-two conic bundle
    lat = d2_1_0_real()
    d = lat.vector((-3, -1, 1))
    assert d.dot(d) == 5


def test_pair_lattice_mismatch():
    with pytest.raises(ValueError, match="^classes do not belong to this lattice$"):
        zero_class(d2_real()).dot(zero_class(d2_1_0_real()))


def test_pair_bilinear_symmetric():
    rng = random.Random(11)
    lat = d2_1_0_real()
    for _ in range(50):
        u = lat.vector([rng.randint(-9, 9) for _ in range(3)])
        v = lat.vector([rng.randint(-9, 9) for _ in range(3)])
        w = lat.vector([rng.randint(-9, 9) for _ in range(3)])
        assert u.dot(v) == v.dot(u)
        assert combination((1, u), (1, w)).dot(v) == u.dot(v) + w.dot(v)


def test_pair_matches_definition():
    """D.E equals sum_ij d_i g_ij e_j on random classes of the 19 real and
    9 distinct complex catalogue lattices, and of random symmetric Gram
    matrices with 300-bit entries."""
    rng = random.Random(40)
    models = [builtin(name) for name in SURFACE_NAMES]
    complexes = list(dict.fromkeys(m.complex_lattice for m in models))
    assert len(complexes) == 9
    lattices = [m.real_lattice for m in models] + complexes
    for rank in range(1, 10):
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                gram[i][j] = gram[j][i] = rng.randint(-(2**300), 2**300)
        lattices.append(IntLattice(rank, tuple(f"e{i}" for i in range(rank)), tuple(map(tuple, gram))))
    for lat in lattices:
        for _ in range(20):
            d = lat.vector([rng.randint(-40, 40) for _ in range(lat.rank)])
            e = lat.vector([rng.randint(-40, 40) for _ in range(lat.rank)])
            assert d.dot(e) == pairing(lat.gram, d.coeffs, e.coeffs)
            assert d.dot(d) == pairing(lat.gram, d.coeffs, d.coeffs)


def _pairings(d, k):
    """(D.D, D.K), the two integers the genus and l(D) formulas read."""
    return d.dot(d), d.dot(k)


def test_adjunction_genus_values():
    b1 = IntLattice(1, ("K",), ((1,),))
    k = basis_vector(b1, 0)
    assert adjunction_genus(*_pairings(combination((-3, k)), k)) == 4
    assert adjunction_genus(*_pairings(zero_class(b1), k)) == 1
    lat = d2_real()
    f, kk = basis_vector(lat, 0), basis_vector(lat, 1)
    assert adjunction_genus(*_pairings(combination((1, f), (-1, kk)), kk)) == 2


def test_riemann_roch_values():
    b1 = IntLattice(1, ("K",), ((1,),))
    k = basis_vector(b1, 0)
    assert riemann_roch_dim(*_pairings(combination((-3, k)), k)) == 7
    assert riemann_roch_dim(*_pairings(zero_class(b1), k)) == 1
    g210 = builtin("G2_1_0").real_lattice
    d = g210.vector((-2, 1))
    assert riemann_roch_dim(*_pairings(d, g210.vector((1, 0)))) == 6


def test_odd_intermediate_rejected():
    lat = IntLattice(1, ("H",), ((1,),))
    with pytest.raises(ValueError):
        adjunction_genus(*_pairings(lat.vector((1,)), zero_class(lat)))
    with pytest.raises(ValueError):
        riemann_roch_dim(*_pairings(lat.vector((1,)), zero_class(lat)))


def test_fixed_sublattice_identity_and_negation():
    lat = d2_real()
    basis = fixed_sublattice(lat, ((1, 0), (0, 1)))
    assert [v.coeffs for v in basis] == [(1, 0), (0, 1)]
    assert fixed_sublattice(lat, ((-1, 0), (0, -1))) == []


def test_fixed_sublattice_requires_involutive_isometry():
    lat = d2_real()
    with pytest.raises(ValueError):
        fixed_sublattice(lat, ((1, 1), (0, 1)))


def test_fixed_sublattice_of_conjugation():
    model = builtin("D2")
    basis = fixed_sublattice(model.complex_lattice, declared_conjugation("D2"))
    assert len(basis) == 2
    # spanned exactly by F = (1,-1,0,...) and K = (-3,1,...,1)
    f = model.complex_lattice.vector((1, -1, 0, 0, 0, 0, 0, 0))
    k = model.complex_canonical
    assert hnf([v.coeffs for v in basis]) == hnf([f.coeffs, k.coeffs])
    gram = [[u.dot(v) for v in (f, k)] for u in (f, k)]
    assert gram == [[0, -2], [-2, 2]]
    # every catalogued real lattice is the fixed lattice of the conjugation
    # declared from the geometry, which the catalogue does not read
    for name in SURFACE_NAMES:
        model = builtin(name)
        fixed = fixed_sublattice(model.complex_lattice, declared_conjugation(name))
        assert hnf([v.coeffs for v in fixed]) == hnf([tuple(col) for col in zip(*model.embedding)]), name


def test_enumerate_classes_worked_window():
    # Self-intersection 6 forces |v.K| = 4 here, so the window [-4, 4] sees
    # all four classes and [-4, 2] only the two with v.K = -4.
    lat = d2_real()
    k = basis_vector(lat, 1)
    four = enumerate_classes(class_window(lat, k, 6, -4, 4))
    assert [v.coeffs for v in four] == [(-1, -3), (-1, 1), (1, -1), (1, 3)]
    two = enumerate_classes(class_window(lat, k, 6, -4, 2))
    assert [v.coeffs for v in two] == [(-1, -3), (1, -1)]


def test_enumerate_classes_zero():
    lat = d2_real()
    k = basis_vector(lat, 1)
    zero_hits = enumerate_classes(class_window(lat, k, 0, 0, 0))
    assert zero_class(lat) in zero_hits


def test_enumerate_classes_degree_two_lines():
    model = builtin("D2")
    lines = enumerate_classes(class_window(model.complex_lattice, model.complex_canonical, -1, -1, -1))
    assert len(lines) == 56


def test_enumerate_classes_box_oracle():
    # box-restricted agreement with a naive search, over all catalogued
    # real lattices of rank <= 4 and a few windows
    radius = 4
    for name in ("P2", "Q31", "D4", "D2", "G2", "B1", "D2_1_0", "G2_1_0", "D4_1_2"):
        model = builtin(name)
        lat, k = model.real_lattice, model.canonical
        if lat.rank > 4:
            continue
        for self_int, lo, hi in ((model.r + 2 * model.s, model.r - 4, model.r + 2 * model.s - 4),
                                 (-1, -1, -1), (0, -2, 2)):
            expected = []
            for coeffs in itertools.product(range(-radius, radius + 1), repeat=lat.rank):
                v = lat.vector(coeffs)
                if v.dot(v) == self_int and lo <= v.dot(k) <= hi:
                    expected.append(coeffs)
            got = [v.coeffs for v in enumerate_classes(class_window(lat, k, self_int, lo, hi))
                   if all(abs(c) <= radius for c in v.coeffs)]
            assert got == sorted(expected)


def test_enumerate_classes_box_oracle_high_rank():
    # box-restricted agreement on the rank-6 and rank-8 blow-up lattices
    cases = [("D4", 2), ("D2", 1)]
    for name, radius in cases:
        model = builtin(name)
        lat, k = model.complex_lattice, model.complex_canonical
        expected = []
        for coeffs in itertools.product(range(-radius, radius + 1), repeat=lat.rank):
            v = lat.vector(coeffs)
            if v.dot(v) == -1 and v.dot(k) == -1:
                expected.append(coeffs)
        got = [v.coeffs for v in enumerate_classes(class_window(lat, k, -1, -1, -1))
               if all(abs(c) <= radius for c in v.coeffs)]
        assert got == sorted(expected)
        assert expected  # the box is large enough to be a meaningful check


def test_enumerate_classes_requires_picard_type():
    """`class_window` refuses, with the messages `enumerate_classes` gave,
    when the window is built: K of another lattice, K.K <= 0, and a lattice
    whose signature is not (1, rank - 1)."""
    negdef = IntLattice(2, ("a", "b"), ((-1, 0), (0, -1)))
    with pytest.raises(ValueError, match=r"^K\.K must be positive$"):
        class_window(negdef, basis_vector(negdef, 0), 0, 0, 0)
    with pytest.raises(ValueError, match=r"^K\.K must be positive$"):
        class_window(d2_real(), basis_vector(d2_real(), 0), 0, 0, 0)  # F.F = 0
    with pytest.raises(ValueError, match="^K does not belong to the lattice$"):
        class_window(d2_real(), basis_vector(negdef, 0), 0, 0, 0)
    # Signature (2, 1) with K.K = 1 > 0 passes the canonical check, so only
    # the elimination of Q sees it; a normal window, an empty window and a
    # negative bound all reach it.
    lat = IntLattice(3, ("x", "y", "z"), ((1, 0, 0), (0, 1, 0), (0, 0, -1)))
    assert signature(lat.gram) == (2, 1, 0)
    for self_int, k_min, k_max in ((-1, -1, -1), (0, 2, 1), (5, 0, 0)):
        with pytest.raises(ValueError, match=r"^lattice does not have signature \(1, rank-1\)$"):
            class_window(lat, basis_vector(lat, 0), self_int, k_min, k_max)


def test_enumerate_classes_on_random_lattice_presentations():
    # conjugating the pairing by a random unimodular matrix changes the
    # presentation but not the lattice: box-restricted results must agree
    # with a naive search in every presentation
    rng = random.Random(41)
    base = ((1, 0, 0), (0, -1, 0), (0, 0, -1))
    for _ in range(10):
        u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(4):  # random shear, keeps the determinant one
            i, j = rng.sample(range(3), 2)
            m = rng.randint(-2, 2)
            for row in u:
                row[j] += m * row[i]
        gram = tuple(
            tuple(sum(u[a][i] * base[a][b] * u[b][j] for a in range(3) for b in range(3))
                  for j in range(3))
            for i in range(3)
        )
        lat = IntLattice(3, ("x", "y", "z"), gram)
        assert signature(gram) == (1, 2, 0)
        k = None
        for coeffs in itertools.product(range(-3, 4), repeat=3):
            v = lat.vector(coeffs)
            if v.dot(v) in (1, 2, 3):
                k = v
                break
        if k is None:
            continue
        for self_int, lo, hi in ((-1, -1, -1), (0, -2, 2), (2, -4, 4)):
            radius = 5
            expected = sorted(
                coeffs
                for coeffs in itertools.product(range(-radius, radius + 1), repeat=3)
                if (lambda v: v.dot(v) == self_int and lo <= v.dot(k) <= hi)(lat.vector(coeffs))
            )
            got = [v.coeffs for v in enumerate_classes(class_window(lat, k, self_int, lo, hi))
                   if all(abs(c) <= radius for c in v.coeffs)]
            assert got == expected


def test_geiser_bertini_worked():
    lat = d2_real()
    f, k = basis_vector(lat, 0), basis_vector(lat, 1)
    assert geiser_bertini(combination((1, f), (-1, k)), k) == combination((-1, f), (-3, k))
    assert geiser_bertini(k, k) == k
    lat3 = d2_1_0_real()
    k3 = lat3.vector((1, 0, 0))
    assert geiser_bertini(lat3.vector((-3, -1, 1)), k3) == lat3.vector((-3, 1, -1))


def test_geiser_bertini_properties():
    rng = random.Random(3)
    for name in ("D2", "B1", "G2", "D2_1_0"):
        model = builtin(name)
        lat, k = model.real_lattice, model.canonical
        for _ in range(25):
            d = lat.vector([rng.randint(-8, 8) for _ in range(lat.rank)])
            e = lat.vector([rng.randint(-8, 8) for _ in range(lat.rank)])
            gd, ge = geiser_bertini(d, k), geiser_bertini(e, k)
            assert geiser_bertini(gd, k) == d
            assert gd.dot(ge) == d.dot(e)
            assert geiser_bertini(k, k) == k


def test_geiser_bertini_unsupported_degree():
    d4 = builtin("D4")
    with pytest.raises(ValueError):
        geiser_bertini(zero_class(d4.real_lattice), d4.canonical)


def test_canonical_parity_on_real_lattices():
    # D.(D + K) is even for every integral class of a catalogued surface, so
    # the adjunction genus is always an integer there
    rng = random.Random(29)
    for name in ("P2", "Q31", "D4", "D2", "G2", "B1", "D2_1_0", "G2_1_0",
                 "P2_0_8", "D4_1_2", "Q31_0_6"):
        model = builtin(name)
        lat, k = model.real_lattice, model.canonical
        for _ in range(30):
            d = lat.vector([rng.randint(-7, 7) for _ in range(lat.rank)])
            assert d.dot(combination((1, d), (1, k))) % 2 == 0
            adjunction_genus(*_pairings(d, k))


def test_int_lattice_is_an_immutable_value():
    assert_value_semantics(d2_real, ("rank", "basis_labels", "gram"),
                           IntLattice(2, ("F", "K"), ((0, -2), (-2, 4))))
    assert IntLattice(2, ["F", "K"], [[0, -2], [-2, 2]]) == d2_real()  # stored as tuples


def test_class_vector_is_an_immutable_value():
    assert_value_semantics(lambda: d2_real().vector((1, -1)), ("lattice", "coeffs"), d2_real().vector((1, 0)))
    other = IntLattice(2, ("F", "K"), ((0, -2), (-2, 4)))
    assert d2_real().vector([1, -1]) != other.vector((1, -1))  # same coefficients, other lattice
    assert d2_real().vector([1, -1]) == d2_real().vector((1, -1))
