"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (or `-s` to see the lines).
All comparisons are exact; the timed criteria assert their budgets.
"""

import random
import time
from fractions import Fraction

from realdp.catalog import builtin
from realdp.conic import (
    analyze,
    candidate_divisor,
    discriminant,
    necbundle_conditions,
    surface_class_identities,
)
from realdp.intlinalg import mat_vec
from realdp.lattice import geiser_bertini
from realdp.search import check_conditions, search, table1
from realdp.topology import (
    GreatSubsphere,
    hyperbolicity_check,
    linking_number,
)

from oracles import (
    fixed_sublattice,
    hnf,
    hyperbolicity_from_linking,
    is_involution,
    is_isometry,
    self_intersection_candidates,
    smith_normal_form,
)

from conftest import (
    cayley_rotation,
    chart_axis,
    chart_origin,
    degenerate_fiber_matrix,
    empty_quadric,
    pseudoline_cycle,
    refine_cycle,
    rotate_cycle,
    rotate_subspace,
    sphere_quadric,
    square_cycle,
    worked_conic_matrix,
)
from test_catalog import diophantine_lines

# The classification table, in row order; divisor rows are (rendered, ell,
# genus, very_ample) and None marks a surface with no admissible divisor.
TABLE = [
    ("P2", 9, 0, 1, {("H", 3, 0, "yes")}),
    ("Q31", 8, 1, 0, {("H", 4, 0, "yes")}),
    ("P2_0_2", 7, 0, 1, None),
    ("Q31_0_2", 6, 1, 0, None),
    ("P2_0_4", 5, 0, 1, None),
    ("Q31_0_4", 4, 1, 0, None),
    ("D4", 4, 2, 0, {("-K", 5, 1, "yes")}),
    ("P2_0_6", 3, 0, 1, None),
    ("D4_1_0", 3, 1, 1, {("-K", 4, 1, "yes")}),
    ("D4_2_0_11", 2, 0, 2, {("-K", 3, 1, "no")}),
    ("Q31_0_6", 2, 1, 0, None),
    ("D4_0_2", 2, 2, 0, None),
    ("D2", 2, 3, 0, {("F-K", 6, 2, "yes"), ("-F-3K", 6, 2, "yes")}),
    ("G2", 2, 4, 0, {("-2K", 7, 3, "yes")}),
    ("P2_0_8", 1, 0, 1, None),
    ("D4_1_2", 1, 1, 1, None),
    ("D2_1_0", 1, 2, 1, {
        ("-3K-Ft+E", 5, 2, "yes"),
        ("-5K-Ft-E", 5, 2, "yes"),
        ("-K+Ft+E", 5, 2, "yes"),
        ("-3K+Ft-E", 5, 2, "yes"),
    }),
    ("G2_1_0", 1, 3, 1, {("-2K+E", 6, 3, "yes"), ("-4K-E", 6, 3, "yes")}),
    ("B1", 1, 4, 1, {("-3K", 7, 4, "yes")}),
]


def report(n, message):
    print(f"criterion {n:2d}: PASS - {message}")


def test_criterion_01_table_golden():
    start = time.monotonic()
    rows = table1()
    elapsed = time.monotonic() - start
    assert len(rows) == 24
    index = 0
    for surface, degree, s, r, divisors in TABLE:
        block = [row for row in rows if row.surface == surface]
        assert rows[index].surface == surface  # row order follows the catalogue
        index += len(block)
        for row in block:
            assert (row.degree, row.s, row.r) == (degree, s, r)
        if divisors is None:
            assert len(block) == 1
            row = block[0]
            assert row.divisor == "---"
            assert row.ell is None and row.genus is None and row.very_ample is None
        else:
            got = {(row.divisor, row.ell, row.genus, row.very_ample) for row in block}
            assert got == divisors
    dash_rows = [row for row in rows if row.divisor == "---"]
    assert len(dash_rows) == 9
    no_rows = [row for row in rows if row.very_ample == "no"]
    assert [(row.surface, row.divisor) for row in no_rows] == [("D4_2_0_11", "-K")]
    assert elapsed < 60
    report(1, f"all 24 table rows reproduced exactly in {elapsed:.2f}s")


def test_criterion_02_worked_degree_two_example():
    model = builtin("D2")
    intermediate = {d.coeffs for d in self_intersection_candidates(model, radius=12)}
    as_coeffs = lambda pairs: {(h, -l) for h, l in pairs}
    assert intermediate == as_coeffs({(1, -3), (-1, -1), (1, 1), (-1, 3)})
    final = {d.coeffs for d in search(model)}
    assert final == as_coeffs({(1, 1), (-1, 3)})
    report(2, "intermediate candidates (1,-3),(-1,-1),(1,1),(-1,3); final (1,1),(-1,3)")


def test_criterion_03_genus_and_sections_formulas():
    checked = 0
    for row in table1():
        if row.divisor == "---":
            continue
        assert row.genus == row.s + row.r - 1
        assert row.ell == row.s + 3
        checked += 1
    assert checked == 15
    report(3, f"genus = s+r-1 and l(D) = s+3 on all {checked} divisor rows")


def test_criterion_04_conic_bundle_solver():
    start = time.monotonic()
    for s in range(2, 21):
        assert necbundle_conditions(s, s - 2, 1).passed
        in_box = [a for a in range(-10, 11) if necbundle_conditions(s, a, 1).c3]
        assert in_box == ([s - 2] if abs(s - 2) <= 10 else [])
        data = candidate_divisor(s)
        assert data["genus"] == s - 1
        assert data["ell_lower_bound"] == s + 3
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(4, f"(s-2, 1) solves all six conditions for s in [2,20] in {elapsed:.3f}s")


def test_criterion_05_chow_identity():
    start = time.monotonic()
    for a in range(-6, 7, 2):
        for c in range(0, 9):
            data = surface_class_identities(a, c)
            assert data["KX2"] == 8 - 3 * a - 2 * c
            assert (data["x"], data["y"]) == (data["s"] - 2, -1)
    elapsed = time.monotonic() - start
    assert elapsed < 1
    report(5, f"intersection-number K_X^2 = 8-3a-2c and (x,y) = (s-2,-1) in {elapsed:.3f}s")


def test_criterion_06_discriminant_examples():
    disc = discriminant(worked_conic_matrix())
    assert disc.degree == 6
    # u v (u^2 - v^2)(u^2 - 4v^2) up to sign
    assert disc.coeffs in ((0, 4, 0, -5, 0, 1, 0), (0, -4, 0, 5, 0, -1, 0))
    result = analyze(worked_conic_matrix())
    assert result.squarefree and result.real_fibers == 6 and result.s == 3
    infinity_case = analyze(degenerate_fiber_matrix())
    disc2 = discriminant(degenerate_fiber_matrix())
    affine_roots = [t for t in range(-3, 4) if sum(c * t**i for i, c in enumerate(disc2.coeffs)) == 0]
    assert affine_roots == [-1, 0, 1]
    assert disc2.infinity_multiplicity() == 1
    assert infinity_case.total_fibers == infinity_case.real_fibers == 4
    report(6, "both discriminant examples reproduce (6 real fibers; fibers at -1,0,1,inf)")


def test_criterion_07_fixed_sublattice_oracle():
    model = builtin("D2")
    basis = fixed_sublattice(model.complex_lattice, model.involution)
    assert len(basis) == 2
    f = model.complex_lattice.vector((1, -1, 0, 0, 0, 0, 0, 0))
    k = model.complex_canonical
    assert hnf([v.coeffs for v in basis]) == hnf([f.coeffs, k.coeffs])
    assert [[u.dot(v) for v in (f, k)] for u in (f, k)] == [[0, -2], [-2, 2]]
    assert smith_normal_form([v.coeffs for v in basis]) == [1, 1]
    for name in ("P2", "Q31", "P2_0_2", "Q31_0_2", "P2_0_4", "Q31_0_4", "D4",
                 "P2_0_6", "D4_1_0", "D4_2_0_11", "Q31_0_6", "D4_0_2", "D2",
                 "G2", "P2_0_8", "D4_1_2", "D2_1_0", "G2_1_0", "B1"):
        m = builtin(name)
        gram = m.complex_lattice.gram
        assert is_involution(m.involution)
        assert is_isometry(m.involution, gram, gram)
        assert tuple(mat_vec(m.involution, m.complex_canonical.coeffs)) == m.complex_canonical.coeffs
    report(7, "conjugation fixed lattice is <F, K> with the stated pairing; all involutions check")


def test_criterion_08_line_counts_two_strategies():
    start = time.monotonic()
    expected = {4: 16, 3: 27, 2: 56, 1: 240}
    models = {4: "D4", 3: "D4_1_0", 2: "D2", 1: "B1"}
    for degree, count in expected.items():
        model = builtin(models[degree])
        ellipsoid = [c.coeffs for c in model.minus_one_classes]
        backtracking = diophantine_lines(9 - degree)
        assert ellipsoid == backtracking
        assert len(ellipsoid) == count
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(8, f"line counts 16/27/56/240 agree across both enumerations in {elapsed:.2f}s")


def test_criterion_09_geiser_bertini_action():
    d2 = builtin("D2")
    f, k = d2.real_lattice.basis_vector(0), d2.real_lattice.basis_vector(1)
    assert geiser_bertini(f - k, k) == -1 * f - 3 * k
    assert geiser_bertini(-1 * f - 3 * k, k) == f - k
    lat = builtin("D2_1_0").real_lattice
    kk = lat.vector((1, 0, 0))
    d1, d2_ = lat.vector((-3, -1, 1)), lat.vector((-3, 1, -1))
    d3, d4 = lat.vector((-5, -1, -1)), lat.vector((-1, 1, 1))
    assert geiser_bertini(d1, kk) == d2_
    assert geiser_bertini(d3, kk) == d4
    report(9, "Geiser exchanges {F-K, -F-3K}; Bertini maps D1->D2 and D3->D4")


def test_criterion_10_linking_suite():
    e, l = chart_origin(), chart_axis()
    nested = [square_cycle(Fraction(1, 4)), square_cycle(Fraction(1, 2))]
    assert hyperbolicity_from_linking(nested, e, l, 4) is True
    assert hyperbolicity_from_linking(nested[:1], e, l, 4) is False
    assert hyperbolicity_from_linking([pseudoline_cycle(), nested[0]], e, l, 3) is True
    base = [abs(linking_number(c, e, l)) for c in nested + [pseudoline_cycle()]]
    assert base == [2, 2, 1]
    for cycle, value in zip(nested, base):
        assert abs(linking_number(refine_cycle(cycle), e, l)) == value
    rng = random.Random(2024)
    rotations = 0
    while rotations < 100:
        rot = cayley_rotation(rng, 3)
        try:
            got = [
                abs(linking_number(rotate_cycle(rot, c), rotate_subspace(rot, e), rotate_subspace(rot, l)))
                for c in nested + [pseudoline_cycle()]
            ]
        except ValueError:
            continue
        assert got == base
        rotations += 1
    report(10, "linking sums 4 / 2 / 3 as modelled; |lk| stable over 100 rotations and refinement")


def test_criterion_11_hyperbolicity_sampler():
    interior = hyperbolicity_check(sphere_quadric(), (1, 0, 0, 0), 500, 0)
    assert not interior.refuted
    exterior = hyperbolicity_check(sphere_quadric(), (0, 0, 0, 1), 50, 0)
    assert exterior.refuted and exterior.trial <= 50
    empty = hyperbolicity_check(empty_quadric(), (1, 0, 0, 0), 5, 0)
    assert empty.refuted and empty.trial == 1
    report(11, f"interior center never refuted in 500 trials; exterior refuted at trial {exterior.trial}")
