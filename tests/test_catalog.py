import itertools
from dataclasses import replace
from math import isqrt

import pytest

from realdp.catalog import (
    SURFACE_NAMES,
    blow_up,
    builtin,
    minus_one_curves,
)
from realdp.intlinalg import mat_vec

from oracles import fixed_sublattice, hnf, is_involution, is_isometry, smith_normal_form

# (degree, s, r) per surface, in catalogue order
TOPOLOGY = {
    "P2": (9, 0, 1),
    "Q31": (8, 1, 0),
    "P2_0_2": (7, 0, 1),
    "Q31_0_2": (6, 1, 0),
    "P2_0_4": (5, 0, 1),
    "Q31_0_4": (4, 1, 0),
    "D4": (4, 2, 0),
    "P2_0_6": (3, 0, 1),
    "D4_1_0": (3, 1, 1),
    "D4_2_0_11": (2, 0, 2),
    "Q31_0_6": (2, 1, 0),
    "D4_0_2": (2, 2, 0),
    "D2": (2, 3, 0),
    "G2": (2, 4, 0),
    "P2_0_8": (1, 0, 1),
    "D4_1_2": (1, 1, 1),
    "D2_1_0": (1, 2, 1),
    "G2_1_0": (1, 3, 1),
    "B1": (1, 4, 1),
}

LINE_COUNTS = {9: 0, 8: 0, 7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


def test_catalogue_topology_and_degree():
    assert set(SURFACE_NAMES) == set(TOPOLOGY)
    for name in SURFACE_NAMES:
        model = builtin(name)
        degree, s, r = TOPOLOGY[name]
        assert (model.degree, model.s, model.r) == (degree, s, r)
        assert model.canonical.dot(model.canonical) == degree
        assert model.complex_canonical.dot(model.complex_canonical) == degree


def test_unknown_surface():
    with pytest.raises(ValueError):
        builtin("XYZ")


def test_involutions_are_conjugations():
    for name in SURFACE_NAMES:
        model = builtin(name)
        sigma, gram = model.involution, model.complex_lattice.gram
        assert is_involution(sigma)
        assert is_isometry(sigma, gram, gram)
        assert tuple(mat_vec(sigma, model.complex_canonical.coeffs)) == model.complex_canonical.coeffs


def test_embedding_is_isometry_onto_fixed_sublattice():
    for name in SURFACE_NAMES:
        model = builtin(name)
        n, rank = model.complex_lattice.rank, model.real_lattice.rank
        # Integer matrices of the documented shapes: the catalogue builds them,
        # so nothing checks them at run time.
        assert len(model.embedding) == n and all(len(row) == rank for row in model.embedding)
        assert len(model.involution) == n and all(len(row) == n for row in model.involution)
        assert all(type(c) is int for row in model.embedding + model.involution for c in row)
        assert is_isometry(model.embedding, model.real_lattice.gram, model.complex_lattice.gram)
        image = [tuple(col) for col in zip(*model.embedding)]
        fixed = [v.coeffs for v in fixed_sublattice(model.complex_lattice, model.involution)]
        assert hnf(image) == hnf(fixed)
        # primitivity: elementary divisors of the inclusion are all one
        assert smith_normal_form(image) == [1] * model.real_lattice.rank


def test_d2_involution_is_the_printed_matrix():
    printed = (
        (4, 3, 1, 1, 1, 1, 1, 1),
        (-3, -2, -1, -1, -1, -1, -1, -1),
        (-1, -1, -1, 0, 0, 0, 0, 0),
        (-1, -1, 0, -1, 0, 0, 0, 0),
        (-1, -1, 0, 0, -1, 0, 0, 0),
        (-1, -1, 0, 0, 0, -1, 0, 0),
        (-1, -1, 0, 0, 0, 0, -1, 0),
        (-1, -1, 0, 0, 0, 0, 0, -1),
    )
    assert builtin("D2").involution == printed


def test_declared_real_pairings():
    d2 = builtin("D2").real_lattice
    assert d2.basis_labels == ("F", "K")
    assert d2.gram == ((0, -2), (-2, 2))
    d4 = builtin("D4").real_lattice
    assert d4.gram == ((0, -2), (-2, 4))
    g2 = builtin("G2").real_lattice
    assert g2.gram == ((2,),)
    b1 = builtin("B1").real_lattice
    assert b1.gram == ((1,),)
    p2 = builtin("P2").real_lattice
    assert p2.gram == ((1,),)
    q31 = builtin("Q31").real_lattice
    assert q31.gram == ((2,),)
    # degree-one blow-up of the degree-two bundle: K^2 = 1, two (-1)-curves,
    # distinct generators of <-K, Ft, E> pair to one
    d210 = builtin("D2_1_0").real_lattice
    assert d210.basis_labels == ("K", "Ft", "E")
    assert d210.gram == ((1, -1, -1), (-1, -1, 1), (-1, 1, -1))
    g210 = builtin("G2_1_0").real_lattice
    assert g210.basis_labels == ("K", "E")
    assert g210.gram == ((1, -1), (-1, -1))


def test_minus_one_classes_counts():
    for name in SURFACE_NAMES:
        model = builtin(name)
        assert len(model.minus_one_classes) == LINE_COUNTS[model.degree]
        for c in model.minus_one_classes:
            assert c.dot(c) == -1
            assert c.dot(model.complex_canonical) == -1


def test_p2_has_no_lines():
    assert builtin("P2").minus_one_classes == ()


def diophantine_lines(n_exceptional):
    """Independent enumeration of (-1)-classes on Z^{1,n}: coefficient
    vectors (d, m_1, ..., m_n) with d^2 - sum m_i^2 = -1 and
    -3d - sum m_i = -1, found by backtracking with Cauchy-Schwarz pruning."""
    n = n_exceptional
    sols = []

    def backtrack(i, s, q, prefix):
        remaining = n - i
        if remaining == 0:
            if s == 0 and q == 0:
                sols.append(tuple(prefix))
            return
        top = isqrt(q)
        for m in range(-top, top + 1):
            rs, rq = s - m, q - m * m
            if rq < 0:
                continue
            if remaining == 1:
                if rs == 0 and rq == 0:
                    sols.append(tuple(prefix + [m]))
                continue
            if rs * rs > (remaining - 1) * rq:
                continue
            backtrack(i + 1, rs, rq, prefix + [m])

    d = 0
    while (1 - 3 * d) ** 2 <= n * (d * d + 1) or (1 + 3 * d) ** 2 <= n * (d * d + 1):
        for dd in {d, -d}:
            if (1 - 3 * dd) ** 2 <= n * (dd * dd + 1):
                backtrack(0, 1 - 3 * dd, dd * dd + 1, [dd])
        d += 1
    return sorted(set(sols))


@pytest.mark.parametrize("degree", [4, 3, 2, 1])
def test_two_line_enumeration_strategies_agree(degree):
    model = builtin({4: "D4", 3: "D4_1_0", 2: "D2", 1: "B1"}[degree])
    fincke_pohst = [c.coeffs for c in model.minus_one_classes]
    assert fincke_pohst == diophantine_lines(9 - degree)
    assert len(fincke_pohst) == LINE_COUNTS[degree]


def test_naive_box_matches_on_degree_four():
    # literal box search, radius 3 suffices for the sixteen lines
    model = builtin("D4")
    lat, k = model.complex_lattice, model.complex_canonical
    found = []
    for coeffs in itertools.product(range(-3, 4), repeat=6):
        v = lat.vector(coeffs)
        if v.dot(v) == -1 and v.dot(k) == -1:
            found.append(coeffs)
    assert sorted(found) == [c.coeffs for c in model.minus_one_classes]


def test_blow_up_examples():
    d4 = builtin("D4")
    one_real = blow_up(d4, real_points=1)
    assert (one_real.degree, one_real.s, one_real.r) == (3, 1, 1)
    q31 = builtin("Q31")
    three_pairs = blow_up(q31, conj_pairs=3)
    assert (three_pairs.degree, three_pairs.s, three_pairs.r) == (2, 1, 0)
    two_diff = blow_up(d4, real_points=2)
    assert (two_diff.degree, two_diff.s, two_diff.r) == (2, 0, 2)
    assert two_diff.name == "D4_2_0_11"


def test_blow_up_rejects_bad_topology():
    with pytest.raises(ValueError):
        blow_up(builtin("P2"), real_points=1)  # no sphere to blow up
    with pytest.raises(ValueError):
        blow_up(builtin("B1"), real_points=1)  # degree underflow


def test_blow_up_composition_gives_same_lattice():
    d4, q31, p2 = builtin("D4"), builtin("Q31"), builtin("P2")
    cases = [
        (blow_up(blow_up(d4, real_points=1), real_points=1), blow_up(d4, real_points=2)),
        (blow_up(blow_up(q31, conj_pairs=1), conj_pairs=1), builtin("Q31_0_4")),
        (blow_up(blow_up(p2, conj_pairs=1), conj_pairs=1), builtin("P2_0_4")),
    ]
    for twice, direct in cases:
        assert twice.real_lattice.basis_labels == direct.real_lattice.basis_labels
        assert twice.complex_lattice.basis_labels == direct.complex_lattice.basis_labels
        assert twice.real_lattice.gram == direct.real_lattice.gram
        assert twice.complex_lattice.gram == direct.complex_lattice.gram
        assert twice.embedding == direct.embedding
        assert twice.involution == direct.involution
        assert twice.canonical == direct.canonical
        assert twice.complex_canonical == direct.complex_canonical
        assert twice.minus_one_classes == direct.minus_one_classes
        assert (twice.degree, twice.s, twice.r) == (direct.degree, direct.s, direct.r)
        assert replace(twice, name=direct.name) == direct  # every other field
    assert builtin("Q31_0_4").complex_lattice.basis_labels == ("l1", "l2", "E1", "E2", "E3", "E4")


def test_blow_up_models_satisfy_invariants():
    model = blow_up(builtin("Q31"), real_points=1, conj_pairs=1)
    gram = model.complex_lattice.gram
    assert is_isometry(model.embedding, model.real_lattice.gram, gram)
    assert is_involution(model.involution) and is_isometry(model.involution, gram, gram)
    image = [tuple(col) for col in zip(*model.embedding)]
    fixed = [v.coeffs for v in fixed_sublattice(model.complex_lattice, model.involution)]
    assert hnf(image) == hnf(fixed)
    assert (model.degree, model.s, model.r) == (5, 0, 1)


def test_real_to_complex():
    d2 = builtin("D2")
    f = d2.real_lattice.basis_vector(0)
    assert mat_vec(d2.embedding, f.coeffs) == [1, -1, 0, 0, 0, 0, 0, 0]
    for name in ("D2", "D4", "G2", "B1", "D4_1_0", "D2_1_0", "G2_1_0", "P2_0_6"):
        model = builtin(name)
        image = mat_vec(model.embedding, model.canonical.coeffs)
        n = model.complex_lattice.rank - 1
        assert image == [-3] + [1] * n


def test_minus_one_curves_function():
    d4 = builtin("D4")
    lines = minus_one_curves(d4.complex_lattice, d4.complex_canonical)
    assert len(lines) == 16
    assert tuple(lines) == d4.minus_one_classes


def test_degree_one_models_share_minus_one_classes():
    models = [builtin(name) for name in ("P2_0_8", "D4_1_2", "D2_1_0", "G2_1_0", "B1")]
    shared = models[0].minus_one_classes
    assert len(shared) == 240
    assert all(model.minus_one_classes is shared for model in models)
    lat, k = models[0].complex_lattice, models[0].complex_canonical
    assert minus_one_curves(lat, k) is shared


def test_line_functionals_are_line_pairings():
    for name in SURFACE_NAMES:
        model = builtin(name)
        images = [model.complex_lattice.vector(col) for col in zip(*model.embedding)]
        assert len(model.line_functionals) == len(model.minus_one_classes)
        for row, line in zip(model.line_functionals, model.minus_one_classes):
            assert row == tuple(image.dot(line) for image in images)
