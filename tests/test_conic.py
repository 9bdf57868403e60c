import random
from fractions import Fraction

import pytest

from realdp import conic, realroots
from realdp.conic import (
    BinaryForm,
    ConicMatrix,
    analyze,
    candidate_divisor,
    construct_section,
    diagonal_matrix,
    discriminant,
    factored_str,
    form_from_roots,
    form_str,
    intersection_number,
    necbundle_conditions,
    surface_class_identities,
    zero_form,
)
from conftest import assert_value_semantics, degenerate_fiber_matrix, worked_conic_matrix
from oracles import diagonal_smooth_by_entries, discriminant_by_leibniz, expanded_by_terms


def test_binary_form_arithmetic():
    assert zero_form(2).is_zero()
    assert BinaryForm(4, (0, -1, 0, 1, 0)).infinity_multiplicity() == 1


def test_form_from_roots():
    form = form_from_roots(2, [1, -1])
    assert form.coeffs == (-1, 0, 1)  # u^2 - v^2
    half = form_from_roots(1, [Fraction(1, 2)])
    assert half.coeffs == (-1, 2)  # 2u - v


def test_conic_matrix_validation():
    good = worked_conic_matrix()
    assert good.is_diagonal()
    with pytest.raises(ValueError):  # degree pattern broken
        diagonal_matrix((1, 1, 1), (BinaryForm(1, (1, 1)), BinaryForm(2, (1, 0, 1)), BinaryForm(2, (1, 0, 1))))
    with pytest.raises(ValueError):  # negative twist means forced zero entries
        diagonal_matrix((-1, 1, 1), (zero_form(-2), BinaryForm(2, (1, 0, 1)), BinaryForm(2, (1, 0, 1))))
    with pytest.raises(ValueError):  # not symmetric
        entries = [[zero_form(2)] * 3 for _ in range(3)]
        entries[0][1] = BinaryForm(2, (1, 0, 0))
        ConicMatrix((1, 1, 1), tuple(tuple(r) for r in entries))
    with pytest.raises(ValueError):  # splitting not sorted
        diagonal_matrix((2, 1, 1), (BinaryForm(4, (1, 0, 0, 0, 1)), BinaryForm(2, (1, 0, 1)), BinaryForm(2, (1, 0, 1))))


def test_necbundle_worked_examples():
    assert necbundle_conditions(3, 1, 1).passed
    assert necbundle_conditions(3, -1, 3).passed
    for s in range(1, 25):
        assert necbundle_conditions(s, s - 2, 1).passed
    report = necbundle_conditions(3, 1, 2)
    assert not report.passed and not report.c3
    with pytest.raises(ValueError):
        necbundle_conditions(0, 1, 1)


def test_condition3_pins_down_a_for_b_one():
    for s in range(2, 21):
        solutions = [a for a in range(-10, 11) if necbundle_conditions(s, a, 1).c3]
        assert solutions == ([s - 2] if abs(s - 2) <= 10 else [])


def test_candidate_divisor():
    assert candidate_divisor(3) == {"a": 1, "b": 1, "genus": 2, "ell_lower_bound": 6}
    assert candidate_divisor(2) == {"a": 0, "b": 1, "genus": 1, "ell_lower_bound": 5}
    assert candidate_divisor(10) == {"a": 8, "b": 1, "genus": 9, "ell_lower_bound": 13}
    with pytest.raises(ValueError):
        candidate_divisor(1)


def test_candidate_matches_spheres_only_genus_count():
    for s in range(2, 21):
        data = candidate_divisor(s)
        assert data["genus"] == s - 1  # r = 0, so genus = r + s - 1
        assert data["ell_lower_bound"] == s + 3


def test_chow_relations():
    h, e = (1, 0), (0, 1)
    for c in range(-5, 6):
        assert intersection_number(c, h, h, h) == c
        assert intersection_number(c, h, h, e) == 1  # the point class
        assert intersection_number(c, h, e, h) == intersection_number(c, e, h, h) == 1
        for x in (h, e):
            for triple in ((e, e, x), (e, x, e), (x, e, e)):
                assert intersection_number(c, *triple) == 0  # E^2 = 0


def test_intersection_number_is_symmetric_and_trilinear():
    """Together with the values on H and E these fix the form."""
    rng = random.Random(9)

    def cls():
        return (rng.randint(-9, 9), rng.randint(-9, 9))

    for _ in range(200):
        c = rng.randint(-9, 9)
        x, y, z, w = cls(), cls(), cls(), cls()
        k, m = rng.randint(-5, 5), rng.randint(-5, 5)
        value = intersection_number(c, x, y, z)
        for perm in ((x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)):
            assert intersection_number(c, *perm) == value
        combo = (k * x[0] + m * w[0], k * x[1] + m * w[1])
        assert intersection_number(c, combo, y, z) == (
            k * value + m * intersection_number(c, w, y, z)
        )


def test_surface_class_identities_examples():
    assert surface_class_identities(0, 3) == {"KX2": 2, "s": 3, "x": 1, "y": -1}
    assert surface_class_identities(0, 0) == {"KX2": 8, "s": 0, "x": -2, "y": -1}
    assert surface_class_identities(2, 1) == {"KX2": 0, "s": 4, "x": 2, "y": -1}
    with pytest.raises(ValueError):
        surface_class_identities(1, 1)


def test_surface_class_identities_sweep():
    for a in range(-40, 41, 2):
        for c in range(-40, 41):
            data = surface_class_identities(a, c)
            assert data["KX2"] == 8 - 3 * a - 2 * c
            assert data["s"] == 3 * (a // 2) + c
            assert (data["x"], data["y"]) == (data["s"] - 2, -1)


def test_discriminant_of_diagonal_is_product():
    rng = random.Random(5)
    for _ in range(25):
        split = sorted(rng.randint(0, 2) for _ in range(3))
        forms = [
            BinaryForm(2 * a, tuple(rng.randint(-5, 5) for _ in range(2 * a + 1)))
            for a in split
        ]
        m = diagonal_matrix(tuple(split), tuple(forms))
        expected = _product(1, *(form.coeffs for form in forms))
        assert discriminant(m).coeffs == expected.coeffs


def test_discriminant_matches_the_form_expansion():
    """General symmetric sections on every splitting with degrees up to 4,
    (0, 0, 0) included; about a third of the off-diagonal entries are zero."""
    rng = random.Random(20264)
    splits = [(a, b, c) for a in range(3) for b in range(a, 3) for c in range(b, 3)]
    for _ in range(200):
        split = rng.choice(splits)
        entries = [[None] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                d = split[i] + split[j]
                zero = i != j and rng.random() < 0.35
                entries[i][j] = entries[j][i] = BinaryForm(
                    d, tuple(0 if zero else rng.randint(-9, 9) for _ in range(d + 1)))
        m = ConicMatrix(split, tuple(tuple(row) for row in entries))
        assert discriminant(m) == discriminant_by_leibniz(m), split


def test_discriminant_worked_example():
    disc = discriminant(worked_conic_matrix())
    assert disc.degree == 6
    # u v (u^2 - v^2)(u^2 - 4 v^2) expanded
    assert disc.coeffs == (0, 4, 0, -5, 0, 1, 0)
    assert factored_str(disc) == "u*v*(u - v)*(u + v)*(u - 2*v)*(u + 2*v)"


def test_discriminant_constant_section():
    m = diagonal_matrix((0, 0, 0), (BinaryForm(0, (1,)),) * 3)
    disc = discriminant(m)
    assert disc.degree == 0 and disc.coeffs == (1,)


def test_off_diagonal_discriminant():
    # [[v^2, uv], [uv, u^2]] block inside the 3x3 matrix has determinant zero
    entries = [
        [BinaryForm(2, (0, 0, 1)), BinaryForm(2, (0, 1, 0)), zero_form(2)],
        [BinaryForm(2, (0, 1, 0)), BinaryForm(2, (1, 0, 0)), zero_form(2)],
        [zero_form(2), zero_form(2), BinaryForm(2, (1, 0, 1))],
    ]
    m = ConicMatrix((1, 1, 1), tuple(tuple(r) for r in entries))
    assert discriminant(m).is_zero()
    result = analyze(m)
    assert result.squarefree is False and result.s is None


def test_non_diagonal_smoothness_is_only_necessary():
    # off-diagonal section with squarefree determinant: the smoothness flag
    # stays at the necessary-condition level
    entries = [
        [BinaryForm(2, (1, 1, 0)), BinaryForm(2, (0, 1, 0)), zero_form(2)],
        [BinaryForm(2, (0, 1, 0)), BinaryForm(2, (-1, 0, 1)), zero_form(2)],
        [zero_form(2), zero_form(2), BinaryForm(2, (-9, 0, 1))],
    ]
    m = ConicMatrix((1, 1, 1), tuple(tuple(r) for r in entries))
    assert not m.is_diagonal()
    result = analyze(m)
    assert not discriminant(m).is_zero()
    assert result.smooth_exact is None
    assert result.smooth_necessary == result.squarefree


def test_analyze_worked_example():
    result = analyze(worked_conic_matrix())
    assert result.total_fibers == 6
    assert result.real_fibers == 6
    assert result.squarefree and result.smooth_exact
    assert result.s == 3


def test_fiber_analysis_repr_is_pinned():
    """The benchmark's answer digests are built from this repr."""
    assert repr(analyze(worked_conic_matrix())) == (
        "FiberAnalysis(total_fibers=6, real_fibers=6, squarefree=True, s=3, "
        "smooth_necessary=True, smooth_exact=True)")
    zero = diagonal_matrix((1, 1, 1), (zero_form(2), BinaryForm(2, (1, 0, 1)), BinaryForm(2, (1, 0, 1))))
    assert repr(analyze(zero)) == (
        "FiberAnalysis(total_fibers=6, real_fibers=None, squarefree=False, s=None, "
        "smooth_necessary=False, smooth_exact=False)")
    entries = [
        [BinaryForm(2, (0, 0, 1)), BinaryForm(2, (0, 1, 0)), zero_form(2)],
        [BinaryForm(2, (0, 1, 0)), BinaryForm(2, (1, 0, 0)), zero_form(2)],
        [zero_form(2), zero_form(2), BinaryForm(2, (1, 0, 1))],
    ]
    off_diagonal_zero = ConicMatrix((1, 1, 1), tuple(tuple(r) for r in entries))
    assert repr(analyze(off_diagonal_zero)) == (
        "FiberAnalysis(total_fibers=6, real_fibers=None, squarefree=False, s=None, "
        "smooth_necessary=False, smooth_exact=None)")


def test_analyze_fiber_at_infinity():
    result = analyze(degenerate_fiber_matrix())
    assert result.total_fibers == 4
    assert result.real_fibers == 4
    assert result.s == 2
    disc = discriminant(degenerate_fiber_matrix())
    assert disc.infinity_multiplicity() == 1
    # affine singular fibers at t = -1, 0, 1
    assert [t for t in (-2, -1, 0, 1, 2) if sum(c * t**i for i, c in enumerate(disc.coeffs)) == 0] == [-1, 0, 1]


def test_analyze_square_factors():
    m = diagonal_matrix(
        (1, 1, 1),
        (BinaryForm(2, (0, 0, 1)), BinaryForm(2, (0, 0, 1)), BinaryForm(2, (1, 2, 1))),
    )
    result = analyze(m)
    assert result.squarefree is False
    assert result.s is None
    assert result.smooth_exact is False


def test_analyze_nonreal_pairs():
    m = diagonal_matrix(
        (1, 1, 1),
        (BinaryForm(2, (0, 1, 0)), BinaryForm(2, (1, 0, 1)), BinaryForm(2, (4, 0, 1))),
    )
    result = analyze(m)
    assert (result.total_fibers, result.real_fibers, result.s) == (6, 2, 1)


def _diagonal_entry(rng, degree):
    """A form of the given degree from the factors u - r v over a pool of
    three roots, v (the root at infinity) and u^2 + v^2, so that repeated
    roots and roots shared between entries are common; now and then zero."""
    if rng.random() < 0.05:
        return zero_form(degree)
    content, factors, left = rng.choice((1, -2, 3)), [], degree
    while left:
        factor = rng.choice(((-1, 1), (2, 1), (1, 3), (1, 0), (1, 0, 1)))
        if len(factor) - 1 > left:
            factor = factor[1:]
        factors.append(factor)
        left -= len(factor) - 1
    return _product(content, *factors)


def test_diagonal_smoothness_is_squarefreeness():
    rng = random.Random(4)
    seen = set()
    for _ in range(300):
        split = sorted(rng.randint(0, 2) for _ in range(3))
        forms = [_diagonal_entry(rng, 2 * a) for a in split]
        if split[0] == split[1] and rng.random() < 0.3:
            forms[1] = forms[0]  # a repeated entry
        m = diagonal_matrix(tuple(split), tuple(forms))
        smooth = analyze(m).smooth_exact
        assert smooth == diagonal_smooth_by_entries(m), forms
        seen.add(smooth)
    assert seen == {True, False}


def test_real_total_parity_property():
    rng = random.Random(17)
    for _ in range(30):
        split = sorted(rng.randint(1, 2) for _ in range(3))
        forms = []
        for a in split:
            coeffs = [rng.randint(-4, 4) for _ in range(2 * a + 1)]
            if not any(coeffs):
                coeffs[0] = 1
            forms.append(BinaryForm(2 * a, tuple(coeffs)))
        m = diagonal_matrix(tuple(split), tuple(forms))
        disc = discriminant(m)
        if disc.is_zero():
            continue
        result = analyze(m)
        assert result.real_fibers % 2 == result.total_fibers % 2


def test_construct_section():
    m = construct_section(1, 1, 1, [[0, 5], [1, -1], [2, -2]])
    result = analyze(m)
    assert result.squarefree and result.s == 3
    assert result.total_fibers == result.real_fibers == 6
    m = construct_section(2, 1, 1, [[0, 5, 7, -7], [1, -1], [2, -2]])
    result = analyze(m)
    assert result.s == 4 and result.real_fibers == 8


def test_construct_section_always_smooth_property():
    rng = random.Random(23)
    for _ in range(10):
        split = [rng.randint(1, 2) for _ in range(3)]
        pool = list(range(-20, 21))
        rng.shuffle(pool)
        lists, used = [], 0
        for a in split:
            lists.append(pool[used: used + 2 * a])
            used += 2 * a
        result = analyze(construct_section(split[0], split[1], split[2], lists))
        assert result.squarefree and result.smooth_exact
        assert result.s == sum(split)


def test_construct_section_rejects_bad_roots():
    with pytest.raises(ValueError):
        construct_section(1, 1, 1, [[0, 5], [1, -1], [1, -2]])  # shared root
    with pytest.raises(ValueError):
        construct_section(1, 1, 1, [[0, 0], [1, -1], [2, -2]])  # repeated root
    with pytest.raises(ValueError):
        construct_section(1, 1, 1, [[0], [1, -1], [2, -2]])  # wrong count
    with pytest.raises(ValueError):
        construct_section(0, 1, 1, [[], [1, -1], [2, -2]])  # nonpositive twist


def test_form_str():
    assert form_str(BinaryForm(2, (-1, 0, 1))) == "u^2 - v^2"
    assert form_str(BinaryForm(1, (2, 3))) == "3*u + 2*v"
    assert form_str(zero_form(3)) == "0"


def test_expanded_matches_the_term_by_term_rendering():
    """3,200 seeded coefficient tuples of degree 0 to 12, many entries zero
    or +-1, and every pure u- and v-power with coefficient +-1 or +-7, render
    as the loop that joins each monomial from its power strings."""
    rng = random.Random(20232)
    cases = [(0,) * n for n in range(1, 4)]
    for degree in range(13):
        for i in range(degree + 1):
            for c in (1, -1, 7, -7):
                cases.append(tuple(c if j == i else 0 for j in range(degree + 1)))
    for _ in range(3200):
        pool = rng.choice(((0, 1, -1), (0, 0, 1, -1, 2, -3, 10), (0, 1, -1, 12, -345, 2**40)))
        cases.append(tuple(rng.choice(pool) for _ in range(rng.randint(1, 13))))
    for coeffs in cases:
        assert conic._expanded(coeffs) == expanded_by_terms(coeffs), coeffs
    assert len(cases) > 3000


def test_factored_str_u_and_v_powers():
    # 4 u^2 (3u^2 - 5uv - 5v^2): the u-power is the count of leading zeros
    assert factored_str(BinaryForm(4, (0, 0, -20, -20, 12))) == "4*u^2*(3*u^2 - 5*u*v - 5*v^2)"
    assert factored_str(BinaryForm(3, (0, 0, 0, 1))) == "u^3"
    assert factored_str(BinaryForm(3, (1, 0, 0, 0))) == "v^3"
    assert factored_str(BinaryForm(5, (0, 0, 3, 0, 0, 0))) == "3*u^2*v^3"
    assert factored_str(BinaryForm(4, (0, -1, 0, 1, 0))) == "u*v*(u - v)*(u + v)"


def test_factored_str_sign_and_content():
    """A content of -1 prints as a leading minus sign; a constant form prints
    as its value."""
    assert factored_str(BinaryForm(4, (0, 1, 0, -1, 0))) == "-u*v*(u - v)*(u + v)"
    assert factored_str(BinaryForm(2, (-1, 0, -1))) == "-(u^2 + v^2)"
    assert factored_str(BinaryForm(2, (2, 0, -2))) == "-2*(u - v)*(u + v)"
    assert factored_str(BinaryForm(0, (-1,))) == "-1"
    assert factored_str(BinaryForm(0, (1,))) == "1"
    assert factored_str(BinaryForm(0, (-6,))) == "-6"


def _general_section():
    """A non-diagonal section whose discriminant
    -u (u - v)^2 (u + v)(u^2 + 3uv + 4v^2) has a simple root at [0:1] and a
    double root at [1:1]."""
    rows = (((0, 2, 2), (1, 0, -1), (2, 1, -1)), ((1, 0, -1), (0, 0, 0), (0, -1, 1)), ((2, 1, -1), (0, -1, 1), (0, 0, 1)))
    return ConicMatrix((1, 1, 1), tuple(tuple(BinaryForm(2, q) for q in row) for row in rows))


@pytest.mark.parametrize(
    "matrix, analysis, rendered, chain_degrees",
    [
        (
            construct_section(1, 1, 2, [[2, Fraction(-1, 5)], [Fraction(3, 7), -4], [1, -6, Fraction(9, 5), 7]]),
            (8, 8, True, 4, True, True),
            "(u - v)*(5*u + v)*(u - 2*v)*(7*u - 3*v)*(u + 4*v)*(u + 6*v)*(u - 7*v)*(5*u - 9*v)",
            [4],
        ),
        (
            worked_conic_matrix(),
            (6, 6, True, 3, True, True),
            "u*v*(u - v)*(u + v)*(u - 2*v)*(u + 2*v)",
            [],
        ),
        (
            _general_section(),
            (6, 4, False, None, False, None),
            "-u*(u - v)^2*(u + v)*(u^2 + 3*u*v + 4*v^2)",
            [5],
        ),
    ],
    ids=["squarefree diagonal", "worked diagonal", "general"],
)
def test_one_determinant_and_one_chain_per_matrix(monkeypatch, matrix, analysis, rendered, chain_degrees):
    """`discriminant`, `analyze` and `factored_str` on one matrix build its
    determinant once and one Sturm chain per part of the discriminant of
    degree above two: one per entry of degree above two of a diagonal
    section, whose full discriminant gets no chain, and one for the
    discriminant of a general section.  A part of degree at most two is
    answered from its discriminant, so the worked section diag(uv, u^2 - v^2,
    u^2 - 4v^2), whose parts are v, u^2 - v^2 and u^2 - 4v^2 dehomogenised,
    builds no chain."""
    determinants, chains = [], []

    def recorded(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(conic, "_determinant", recorded(determinants, conic._determinant))
    monkeypatch.setattr(realroots, "sturm_sequence", recorded(chains, realroots.sturm_sequence))
    disc = discriminant(matrix)
    result = analyze(matrix)
    assert factored_str(disc) == rendered
    assert discriminant(matrix) is disc
    assert (result.total_fibers, result.real_fibers, result.squarefree, result.s,
            result.smooth_necessary, result.smooth_exact) == analysis
    assert len(determinants) == 1
    assert [realroots.degree(p) for (p,) in chains] == chain_degrees
    if matrix.is_diagonal():
        assert [p for (p,) in chains] == [q.coeffs for q in (matrix.entries[i][i] for i in range(3)) if q.degree > 2]


def test_squarefree_parts_deflate_each_root_once(monkeypatch):
    """On a squarefree diagonal section every root is simple.  Of its 8
    rational roots, `rational_roots` divides the 2 it isolates in the
    quartic part out once each, from the unscaled part, and no division
    fails; the other 6, those of the quartic's quadratic cofactor and of
    the two quadratic parts, are read off in closed form with their
    cofactors, and the rendering is that of dividing each one out."""
    results, original = [], realroots.deflate
    closed, low_degree_roots = [], realroots._low_degree_roots

    def deflate(*args):
        results.append(original(*args))
        return results[-1]

    def read_off(f, roots):
        before = len(roots)
        roots, cofactor = low_degree_roots(f, roots)
        closed.extend(roots[before:])
        return roots, cofactor

    monkeypatch.setattr(realroots, "deflate", deflate)
    monkeypatch.setattr(realroots, "_low_degree_roots", read_off)
    matrix = construct_section(1, 1, 2, [[2, Fraction(-1, 5)], [Fraction(3, 7), -4], [1, -6, Fraction(9, 5), 7]])
    rendered = factored_str(discriminant(matrix))
    assert len(results) == 2
    assert None not in results
    assert len(closed) == 6 and all(mult == 1 for _, _, mult in closed)
    assert rendered == "(u - v)*(5*u + v)*(u - 2*v)*(7*u - 3*v)*(u + 4*v)*(u + 6*v)*(u - 7*v)*(5*u - 9*v)"


def test_one_rational_root_search_per_part(monkeypatch):
    """`discriminant`, `analyze` and `factored_str` on one matrix search each
    part of the discriminant for rational roots once, and `analyze` alone
    searches none, whether the form has one part, several squarefree parts,
    a repeated root in a part or a double root at [0:1]."""
    searched, original = [], realroots.rational_roots
    monkeypatch.setattr(realroots, "rational_roots", lambda *args: searched.append(args[0]) or original(*args))
    squarefree_diagonal = construct_section(1, 1, 2, [[2, Fraction(-1, 5)], [Fraction(3, 7), -4], [1, -6, Fraction(9, 5), 7]])
    for matrix, count in ((squarefree_diagonal, 3), (_general_section(), 1), (worked_conic_matrix(), 2)):
        searched.clear()
        disc = discriminant(matrix)
        analyze(matrix)
        factored_str(disc)
        assert searched == [part for part, _ in disc._split_roots.parts] and len(searched) == count
    searched.clear()
    repeated = diagonal_matrix((1, 1, 1), (BinaryForm(2, (1, 2, 1)), BinaryForm(2, (-1, 0, 1)), BinaryForm(2, (-4, 0, 1))))
    double_at_zero = diagonal_matrix((1, 1, 1), (BinaryForm(2, (0, 1, 0)), BinaryForm(2, (0, 1, 1)), BinaryForm(2, (-4, 0, 1))))
    fresh = construct_section(1, 1, 2, [[2, Fraction(-1, 5)], [Fraction(3, 7), -4], [1, -6, Fraction(9, 5), 7]])
    results = [analyze(m) for m in (_general_section(), repeated, double_at_zero, fresh)]
    assert searched == []
    assert [r.squarefree for r in results] == [False, False, False, True]


def test_parts_coprime_matches_the_entry_oracle(monkeypatch):
    """`analyze` on seeded diagonal sections agrees with the entry-by-entry
    smoothness rule.  Each entry is a product of distinct factors from a
    pool, so every part is squarefree and `coprime` on the parts decides
    smoothness: entries share a rational root, share an irreducible factor
    such as u^2 - 2v^2, have coprime irreducible factors, or have rational
    roots only."""
    verdicts, original = [], realroots.coprime
    monkeypatch.setattr(realroots, "coprime", lambda *args: verdicts.append(original(*args)) or verdicts[-1])
    rng = random.Random(20)
    linear = ((-1, 1), (2, 1), (1, 3), (-2, 5), (3, -7))
    irreducible = ((-2, 0, 1), (1, 0, 1), (-3, 0, 1), (1, 1, 1), (-2, 0, 0, 1))
    seen = set()
    for _ in range(300):
        split = rng.choice(((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)))
        rational_only = rng.random() < 0.3
        pool = linear if rational_only else linear + irreducible
        forms, chosen = [], []
        for a in split:
            factors = []
            while sum(len(f) - 1 for f in factors) < 2 * a:
                room = 2 * a - sum(len(f) - 1 for f in factors)
                factors.append(rng.choice([f for f in pool if f not in factors and len(f) - 1 <= room]))
            forms.append(_product(rng.choice((1, -1, 2, -3)), *factors))
            chosen.append(set(factors))
        matrix = diagonal_matrix(split, tuple(forms))
        result = analyze(matrix)
        assert result.smooth_exact == result.squarefree == diagonal_smooth_by_entries(matrix), forms
        shared = {f for i, j in ((0, 1), (0, 2), (1, 2)) for f in chosen[i] & chosen[j]}
        if any(len(f) == 2 for f in shared):
            seen.add("shared rational root")
        elif shared:
            seen.add("shared irreducible factor")
        elif sum(any(len(f) > 2 for f in factors) for factors in chosen) >= 2:
            seen.add("coprime irreducible factors")
        if rational_only:
            seen.add("rational roots only")
        seen.add(result.squarefree)
    assert seen == {"shared rational root", "shared irreducible factor", "coprime irreducible factors",
                    "rational roots only", True, False}
    assert set(verdicts) == {True, False}


U, V = (0, 1), (1, 0)  # u and v as factors: index i holds the u^i v^(d-i) coefficient


def _product(content, *factors):
    """The form content * f_1 * ... * f_r, each factor a coefficient tuple
    of a form of degree len(factor) - 1."""
    degree, poly = sum(len(factor) - 1 for factor in factors), (content,)
    for factor in factors:
        poly = realroots.mul(poly, factor)
    return BinaryForm(degree, poly + (0,) * (degree + 1 - len(poly)))


def _assert_parts_match_one_form(matrix):
    """`analyze` and the factored rendering of a diagonal section, read from
    one part per entry, equal those of a fresh form with the same
    coefficients, read from one part."""
    disc = discriminant(matrix)
    fresh = BinaryForm(disc.degree, disc.coeffs)
    assert factored_str(disc) == factored_str(fresh)
    assert conic.factor_low_degree(disc) == conic.factor_low_degree(fresh)
    if disc.is_zero():
        assert analyze(matrix).real_fibers is None
        return
    entries = [matrix.entries[i][i] for i in range(3)]
    lowest = [next(i for i, c in enumerate(f.coeffs) if c) for f in entries]
    assert len(disc._split_roots.parts) == sum(f.degree - f.infinity_multiplicity() > low for f, low in zip(entries, lowest))
    assert len(fresh._split_roots.parts) <= 1
    result = analyze(matrix)
    real, squarefree = conic._roots_on_p1(fresh)
    assert (result.real_fibers, result.squarefree, result.smooth_exact) == (real, squarefree, squarefree)
    assert result.s == (real // 2 if squarefree else None)


@pytest.mark.parametrize(
    "splitting, entries",
    [
        ((1, 1, 2), (_product(1, (-1, 1), (1, 1)), _product(2, (-1, 1), (-2, 1)), _product(1, (-1, 1), (3, 1), (1, 0, 1)))),
        ((1, 1, 2), (_product(1, (1, 0, 1)), _product(-1, (1, 0, 1)), _product(3, (1, 1, 1), (-2, 0, 1)))),
        ((1, 1, 1), (_product(1, U, (1, 1)), _product(1, U, (-1, 1)), _product(1, V, (2, 1)))),
        ((1, 1, 1), (_product(1, V, V), _product(-1, U, V), _product(1, (-1, 0, 1)))),
        ((1, 1, 2), (_product(1, U, V), _product(1, (1, 1), (1, 1)), zero_form(4))),
        ((0, 1, 1), (_product(-3), _product(1, (-1, 0, 1)), _product(1, (-4, 0, 1)))),
        ((0, 0, 2), (_product(2), _product(-1), _product(1, (-1, 1), (1, 1), (-2, 1), (2, 1)))),
        ((0, 0, 0), (_product(-1), _product(2), _product(-3))),
        ((1, 1, 1), (_product(-2, (1, 3), (1, 3)), _product(-1, (-5, 2), V), _product(6, (1, 3), U))),
        ((1, 2, 2), (_product(1, (1, 0, 1)), _product(1, (-2, 0, 0, 0, 1)), _product(1, (1, 0, 0, 0, 1)))),
    ],
    ids=[
        "shared rational root", "shared irreducible quadratic", "two entries at [0:1]",
        "two entries at [1:0]", "zero entry", "degree-0 entry", "two degree-0 entries",
        "constant section", "negative contents and a shared double root",
        "cofactor of degree above two",
    ],
)
def test_diagonal_parts_match_the_single_form_cases(splitting, entries):
    _assert_parts_match_one_form(diagonal_matrix(splitting, entries))


def test_diagonal_parts_match_the_single_form_seeded():
    """Seeded diagonal sections whose entries share rational roots, the
    quadratics u^2 + v^2 and u^2 - 2 v^2 (real irrational roots), [0:1] and
    [1:0], with contents of either sign, degree-0 and zero entries, and now
    and then a cubic with one real irrational root."""
    rng = random.Random(16)
    seen = set()
    pool = ((-1, 1), (2, 1), (1, 3), (-2, 5), U, V, (1, 0, 1), (-2, 0, 1), (1, 0, 0, -2))
    splits = [(a, b, c) for a in range(3) for b in range(a, 3) for c in range(b, 3)]
    for _ in range(400):
        split = rng.choice(splits)
        forms = []
        for a in split:
            if rng.random() < 0.03:
                forms.append(zero_form(2 * a))
                continue
            factors = []
            while sum(len(f) - 1 for f in factors) < 2 * a:
                factor = rng.choice(pool)
                if sum(len(f) - 1 for f in factors) + len(factor) - 1 <= 2 * a:
                    factors.append(factor)
            forms.append(_product(rng.choice((1, -1, 2, -3, 6)), *factors))
        matrix = diagonal_matrix(split, tuple(forms))
        _assert_parts_match_one_form(matrix)
        seen.add((analyze(matrix).squarefree, conic.factor_low_degree(discriminant(matrix)) is None))
    assert seen == {(True, False), (False, False), (True, True), (False, True)}


def test_stored_discriminant_leaves_equality_hash_and_repr():
    for build in (_general_section, worked_conic_matrix):
        fresh, used = build(), build()
        disc = discriminant(used)
        factored_str(disc)
        assert fresh == used and hash(fresh) == hash(used) and repr(fresh) == repr(used)
        assert disc == BinaryForm(disc.degree, disc.coeffs)
        assert hash(disc) == hash(BinaryForm(disc.degree, disc.coeffs))
        assert repr(disc) == repr(BinaryForm(disc.degree, disc.coeffs))


def test_binary_form_is_an_immutable_value():
    assert_value_semantics(lambda: BinaryForm(2, (-1, 0, 1)), ("degree", "coeffs"), BinaryForm(2, (-1, 1, 1)),
                           cached="_split_roots")
    assert BinaryForm(2, [-1, 0, 1]) == BinaryForm(2, (-1, 0, 1))  # stored as a tuple


def test_conic_matrix_is_an_immutable_value():
    changed = diagonal_matrix((1, 1, 1), (BinaryForm(2, (0, 1, 0)), BinaryForm(2, (-1, 0, 1)), BinaryForm(2, (-9, 0, 1))))
    assert_value_semantics(worked_conic_matrix, ("splitting", "entries"), changed, cached="_discriminant")
    m = worked_conic_matrix()
    assert ConicMatrix(list(m.splitting), [list(row) for row in m.entries]) == m  # stored as tuples
