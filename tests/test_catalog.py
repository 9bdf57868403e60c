import functools
import itertools
import operator
from fractions import Fraction
from math import isqrt

import pytest

from realdp import catalog
from realdp.catalog import (
    SURFACE_NAMES,
    _model,
    builtin,
    minus_one_curves,
)
from realdp.intlinalg import mat_vec
from realdp.lattice import class_window, enumerate_classes

from oracles import (
    basis_vector,
    blow_up,
    declared_conjugation,
    direct_sum_conjugation,
    fixed_sublattice,
    hnf,
    is_involution,
    is_isometry,
    ldl,
    mat_mul,
    quadric_to_plane,
    rebase,
    smith_normal_form,
)

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


def assert_declared_conjugation_fixes_the_real_lattice(model, sigma=None):
    """The conjugation that the oracle builds from the geometry of the
    surface, not from its real lattice (by default `declared_conjugation`
    of its name), is an integral isometric involution that fixes K, and its
    fixed lattice is the image of the embedding."""
    sigma = declared_conjugation(model.name) if sigma is None else sigma
    gram = model.complex_lattice.gram
    n = model.complex_lattice.rank
    assert len(sigma) == n and all(len(row) == n for row in sigma)
    assert all(type(c) is int for row in sigma for c in row)
    assert is_involution(sigma)
    assert is_isometry(sigma, gram, gram)
    assert tuple(mat_vec(sigma, model.complex_canonical.coeffs)) == model.complex_canonical.coeffs
    fixed = [v.coeffs for v in fixed_sublattice(model.complex_lattice, sigma)]
    assert hnf(fixed) == hnf([tuple(col) for col in zip(*model.embedding)]), model.name


def test_involutions_are_conjugations():
    for name in SURFACE_NAMES:
        assert_declared_conjugation_fixes_the_real_lattice(builtin(name))


def test_involution_is_the_declared_conjugation():
    """`_model` reads s and r from the real rank rho alone, taking tr sigma
    = 2 rho - n; the conjugation declared from the geometry has that trace,
    and Lefschetz (2s + r = 2 - tr sigma) gives the catalogue's s and r."""
    for name in SURFACE_NAMES:
        model, sigma = builtin(name), declared_conjugation(name)
        trace = sum(sigma[i][i] for i in range(len(sigma)))
        assert trace == 2 * model.real_lattice.rank - model.complex_lattice.rank, name
        assert 2 * model.s + model.r == 2 - trace, name


def test_embedding_is_isometry_onto_fixed_sublattice():
    for name in SURFACE_NAMES:
        model = builtin(name)
        n, rank = model.complex_lattice.rank, model.real_lattice.rank
        # An integer matrix of the documented shape: the catalogue builds it,
        # so nothing checks it at run time.
        assert len(model.embedding) == n and all(len(row) == rank for row in model.embedding)
        assert all(type(c) is int for row in model.embedding for c in row)
        assert is_isometry(model.embedding, model.real_lattice.gram, model.complex_lattice.gram)
        image = [tuple(col) for col in zip(*model.embedding)]
        fixed = [v.coeffs for v in fixed_sublattice(model.complex_lattice, declared_conjugation(name))]
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
    assert declared_conjugation("D2") == printed


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
    for model in (one_real, three_pairs, two_diff):
        assert_declared_conjugation_fixes_the_real_lattice(model, direct_sum_conjugation(model.name))


def test_blow_up_rejects_bad_topology():
    with pytest.raises(ValueError):
        blow_up(builtin("P2"), real_points=1)  # no sphere to blow up
    with pytest.raises(ValueError):
        blow_up(builtin("B1"), real_points=1)  # degree underflow
    # more real centers than spheres: the s read from the real lattice is negative
    for base, real_points in (("D4_1_0", 2), ("Q31", 2), ("D4", 3)):
        with pytest.raises(ValueError, match="no union of spheres and planes"):
            blow_up(builtin(base), real_points=real_points)
    for counts in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="conj_pairs must be nonnegative"):
            blow_up(builtin("Q31"), *counts)
    for value in (True, 1.7, Fraction(3, 2), Fraction(2), "3"):
        for counts in ((value, 0), (0, value)):
            with pytest.raises(ValueError, match="expected an integer"):
                blow_up(builtin("Q31"), *counts)


def test_model_rejects_inconsistent_conjugation_data():
    q31, d4 = builtin("Q31"), builtin("D4")
    f, k = zip(*d4.embedding)
    assert _model("D4", d4.complex_lattice, k, ("F", "K"), [f, k]) == d4
    h, e2 = (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
    cases = [
        # 2F in place of F spans an index-two sublattice of the fixed lattice:
        # |det G_real| grows from 4 to 16, and the derived r would be -2
        ("D4", d4, ("F", "K"), [tuple(2 * x for x in f), k], "no union of spheres and planes"),
        # <F + E2, K> has |det G_real| = 13, not a power of two
        ("D4", d4, ("F+E2", "K"), [tuple(x + y for x, y in zip(f, e2)), k], "no union of spheres and planes"),
        # all of Pic(Q31) as the real lattice: rho = n = 2 and a = 0, so the
        # derived s would be -1
        ("Q31", q31, ("l1", "l2"), [(1, 0), (0, 1)], "no union of spheres and planes"),
        # K = -3H + E1 + ... + E5 is not a multiple of H
        ("D4", d4, ("H",), [h], "K is not a class of the real lattice"),
        # F.F = 0: the real pairing matrix is singular, and nothing divides by it
        ("D4", d4, ("F",), [f], "singular"),
    ]
    for name, model, labels, columns, reason in cases:
        with pytest.raises(ValueError, match=f"^{name}: .*{reason}"):
            _model(name, model.complex_lattice, model.complex_canonical.coeffs, labels, columns)


def test_each_surface_is_built_by_one_model_call(monkeypatch):
    """A fresh build of the catalogue assembles each of the 19 surfaces
    with one `_model` call and builds no intermediate model."""
    calls = []
    model = catalog._model
    monkeypatch.setattr(catalog, "_model", lambda name, *args: calls.append(name) or model(name, *args))
    fresh = functools.lru_cache(maxsize=None)(builtin.__wrapped__)
    monkeypatch.setattr(catalog, "builtin", fresh)
    assert [fresh(name) for name in SURFACE_NAMES] == [builtin(name) for name in SURFACE_NAMES]
    assert calls == list(SURFACE_NAMES)
    assert len(calls) == 19


# Each blown-up surface of the catalogue: its base, the real points and the
# conjugate pairs blown up, and for D2_1_0 and G2_1_0 the rows that
# re-present the blow-up's real basis (F, K, E8 or K, E8) as the declared one.
BLOW_UPS = {
    "P2_0_2": ("P2", 0, 1, None),
    "Q31_0_2": ("Q31", 0, 1, None),
    "P2_0_4": ("P2", 0, 2, None),
    "Q31_0_4": ("Q31", 0, 2, None),
    "P2_0_6": ("P2", 0, 3, None),
    "D4_1_0": ("D4", 1, 0, None),
    "D4_2_0_11": ("D4", 2, 0, None),
    "Q31_0_6": ("Q31", 0, 3, None),
    "D4_0_2": ("D4", 0, 1, None),
    "P2_0_8": ("P2", 0, 4, None),
    "D4_1_2": ("D4", 1, 1, None),
    "D2_1_0": ("D2", 1, 0, ((0, 1, 0), (1, 0, -1), (0, 0, 1))),
    "G2_1_0": ("G2", 1, 0, ((1, 0), (0, 1))),
}

# The fields of a model that do not depend on its complex basis.
REAL_FIELDS = ("name", "degree", "s", "r", "real_lattice", "canonical", "line_functionals", "window")


@pytest.mark.parametrize("name", BLOW_UPS)
def test_declared_bases_present_the_real_blow_ups(name):
    """Each blown-up surface is declared by its real basis on Z^{1,n}, and
    the oracle `blow_up` builds it from its base by direct sums.  Off Q31
    the two are equal field for field, once `rebase` re-presents the real
    basis of D2_1_0 and G2_1_0.  The oracle builds the blow-ups of Q31 on
    U + <-1>^2k, so there they are equal on the fields that do not depend
    on the complex basis and in the number of (-1)-classes, and
    `quadric_to_plane`, an isometry, carries the oracle's K, real basis and
    (-1)-classes onto the declared ones: Bl_1(P^1 x P^1) = Bl_2(P^2)."""
    base, real_points, conj_pairs, rows = BLOW_UPS[name]
    declared = builtin(name)
    built = blow_up(builtin(base), real_points, conj_pairs)
    if rows:
        built = rebase(built, rows, declared.real_lattice.basis_labels)
    if base != "Q31":
        for field in declared._fields:
            assert getattr(built, field) == getattr(declared, field), field
        assert repr(built) == repr(declared)
        return
    for field in REAL_FIELDS:
        assert getattr(built, field) == getattr(declared, field), field
    assert len(built.minus_one_classes) == len(declared.minus_one_classes)
    m = quadric_to_plane(declared.complex_lattice.rank - 1)
    assert is_isometry(m, built.complex_lattice.gram, declared.complex_lattice.gram)
    assert tuple(mat_vec(m, built.complex_canonical.coeffs)) == declared.complex_canonical.coeffs
    assert mat_mul(m, built.embedding) == [list(row) for row in declared.embedding]
    lines = sorted(tuple(mat_vec(m, line.coeffs)) for line in built.minus_one_classes)
    assert lines == [line.coeffs for line in declared.minus_one_classes]


def test_blow_up_composition_gives_same_lattice():
    d4, q31, p2 = builtin("D4"), builtin("Q31"), builtin("P2")
    cases = [
        (blow_up(blow_up(d4, real_points=1), real_points=1), blow_up(d4, real_points=2)),
        (blow_up(blow_up(q31, conj_pairs=1), conj_pairs=1), blow_up(q31, conj_pairs=2)),
        (blow_up(blow_up(p2, conj_pairs=1), conj_pairs=1), builtin("P2_0_4")),
    ]
    for twice, direct in cases:
        assert twice.real_lattice.basis_labels == direct.real_lattice.basis_labels
        assert twice.complex_lattice.basis_labels == direct.complex_lattice.basis_labels
        assert twice.real_lattice.gram == direct.real_lattice.gram
        assert twice.complex_lattice.gram == direct.complex_lattice.gram
        assert twice.embedding == direct.embedding
        assert twice.canonical == direct.canonical
        assert twice.complex_canonical == direct.complex_canonical
        assert twice.minus_one_classes == direct.minus_one_classes
        assert (twice.degree, twice.s, twice.r) == (direct.degree, direct.s, direct.r)
        assert twice._replace(name=direct.name) == direct  # every other field
        assert_declared_conjugation_fixes_the_real_lattice(twice, direct_sum_conjugation(twice.name))
    assert builtin("Q31_0_4").complex_lattice.basis_labels == ("H", "E1", "E2", "E3", "E4", "E5")


def test_blow_up_models_satisfy_invariants():
    model = blow_up(builtin("Q31"), real_points=1, conj_pairs=1)
    assert is_isometry(model.embedding, model.real_lattice.gram, model.complex_lattice.gram)
    assert_declared_conjugation_fixes_the_real_lattice(model, direct_sum_conjugation(model.name))
    assert (model.degree, model.s, model.r) == (5, 0, 1)


def test_real_to_complex():
    d2 = builtin("D2")
    f = basis_vector(d2.real_lattice, 0)
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


def test_models_of_one_degree_share_minus_one_classes():
    """Every model of one degree lives on the same lattice, Z^{1,9-degree}
    or U for Q31, so the catalogue enumerates the (-1)-classes once per
    degree and its models hold that one tuple: 9 enumerations for 19
    models."""
    by_degree = {}
    for model in map(builtin, SURFACE_NAMES):
        by_degree.setdefault(model.degree, []).append(model)
    assert len(by_degree) == 9
    for degree, models in by_degree.items():
        shared = models[0].minus_one_classes
        assert len(shared) == LINE_COUNTS[degree]
        assert all(model.minus_one_classes is shared for model in models), degree
        lat, k = models[0].complex_lattice, models[0].complex_canonical
        assert minus_one_curves(lat, k) is shared


# Distinct line functionals per model: rows of pairings with the real basis
# that the (-1)-classes take, 240 of them in degree 1.
DISTINCT_LINE_FUNCTIONALS = {
    "P2": 0, "Q31": 0, "P2_0_2": 2, "Q31_0_2": 2, "P2_0_4": 5, "Q31_0_4": 6, "D4": 2,
    "P2_0_6": 12, "D4_1_0": 6, "D4_2_0_11": 14, "Q31_0_6": 19, "D4_0_2": 9, "D2": 3,
    "G2": 1, "P2_0_8": 73, "D4_1_2": 33, "D2_1_0": 13, "G2_1_0": 5, "B1": 1,
}


def test_line_functionals_are_the_distinct_line_pairings():
    """Condition c5 reads D.L > 0 off these rows, so their set must be the
    set of pairings of the (-1)-classes with the real basis; each row is
    kept once, in sorted order."""
    assert set(DISTINCT_LINE_FUNCTIONALS) == set(SURFACE_NAMES)
    for name in SURFACE_NAMES:
        model = builtin(name)
        images = [model.complex_lattice.vector(col) for col in zip(*model.embedding)]
        pairings = {tuple(image.dot(line) for image in images) for line in model.minus_one_classes}
        rows = model.line_functionals
        assert list(rows) == sorted(set(rows)), name
        assert set(rows) == pairings, name
        assert len(rows) == DISTINCT_LINE_FUNCTIONALS[name], name


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_stored_search_window_is_the_c2_c3_window(name):
    """Each model stores the window of c2 and c3: a window built fresh from
    its real lattice, K, r + 2s and [r - 4, r + 2s - 4] is equal to it and
    gives the same classes.  Its minors, the signature certificate, are the
    leading principal minors of Q: the products of the oracle's LDL^T
    pivots."""
    model = builtin(name)
    r, s = model.r, model.s
    fresh = class_window(model.real_lattice, model.canonical, r + 2 * s, r - 4, r + 2 * s - 4)
    assert model.window == fresh
    assert enumerate_classes(model.window) == enumerate_classes(fresh)
    diag, _ = ldl(model.window.quad)
    assert list(model.window.form.minors) == list(itertools.accumulate(diag, operator.mul))
