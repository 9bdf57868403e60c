import itertools

import pytest

from realdp import search as search_module
from realdp.catalog import SURFACE_NAMES, builtin
from realdp.intlinalg import mat_vec
from realdp.lattice import ClassVector, IntLattice, class_window, enumerate_classes
from realdp.search import (
    check_conditions,
    format_table_text,
    render_divisor,
    search,
    table1,
    table_rows,
)

from oracles import (
    brute_force_search,
    check_conditions_by_pairings,
    combination,
    geiser_bertini,
    self_intersection_candidates,
    very_ample,
    zero_class,
)

# Classification fixture: surface -> set of (rendered divisor, ell, genus, flag).
# Empty set marks surfaces admitting no finite real-fibered morphism to the plane.
GOLDEN = {
    "P2": {("H", 3, 0, "yes")},
    "Q31": {("H", 4, 0, "yes")},
    "P2_0_2": set(),
    "Q31_0_2": set(),
    "P2_0_4": set(),
    "Q31_0_4": set(),
    "D4": {("-K", 5, 1, "yes")},
    "P2_0_6": set(),
    "D4_1_0": {("-K", 4, 1, "yes")},
    "D4_2_0_11": {("-K", 3, 1, "no")},
    "Q31_0_6": set(),
    "D4_0_2": set(),
    "D2": {("F-K", 6, 2, "yes"), ("-F-3K", 6, 2, "yes")},
    "G2": {("-2K", 7, 3, "yes")},
    "P2_0_8": set(),
    "D4_1_2": set(),
    "D2_1_0": {
        ("-3K-Ft+E", 5, 2, "yes"),
        ("-5K-Ft-E", 5, 2, "yes"),
        ("-K+Ft+E", 5, 2, "yes"),
        ("-3K+Ft-E", 5, 2, "yes"),
    },
    "G2_1_0": {("-2K+E", 6, 3, "yes"), ("-4K-E", 6, 3, "yes")},
    "B1": {("-3K", 7, 4, "yes")},
}


def test_check_conditions_d2_pass():
    model = builtin("D2")
    report = check_conditions(model, model.real_lattice.vector((1, -1)))
    assert report.passed
    assert report.ell == 6 and report.genus == 2 and report.very_ample is True


def test_condition_report_repr_is_pinned():
    """The benchmark's answer digests are built from this repr."""
    model = builtin("D2")
    assert repr(check_conditions(model, model.real_lattice.vector((1, -1)))) == (
        "ConditionReport(c2=True, c3=True, c4=True, c5=True, genus=2, ell=6, very_ample=True)")
    assert repr(check_conditions(model, model.real_lattice.vector((0, -1)))) == (
        "ConditionReport(c2=False, c3=True, c4=False, c5=True, genus=None, ell=None, very_ample=None)")


def test_check_conditions_d2_failure_modes():
    model = builtin("D2")
    report = check_conditions(model, model.real_lattice.vector((-1, -1)))
    assert not report.c5  # pairs nonpositively with some line
    assert not report.passed
    assert report.ell is None and report.genus is None
    # F + 3K satisfies c2 but violates the window c3
    report = check_conditions(model, model.real_lattice.vector((1, 3)))
    assert report.c2 and not report.c3


def test_class_of_another_lattice_is_rejected():
    """D.K is taken first, and the pairing rejects a class that does not
    live in the model's real lattice (D2 and G2_1_0 both have rank 2)."""
    model, other = builtin("D2"), builtin("G2_1_0")
    d = other.real_lattice.vector((1, 0))
    with pytest.raises(ValueError):
        check_conditions(model, d)
    with pytest.raises(ValueError):
        very_ample(model, d)


def test_check_conditions_zero_divisor():
    for name in ("D2", "P2", "B1"):
        model = builtin(name)
        report = check_conditions(model, zero_class(model.real_lattice))
        assert not report.c2


def test_check_conditions_lattice_mismatch():
    with pytest.raises(ValueError):
        check_conditions(builtin("D2"), zero_class(builtin("D4").real_lattice))


def test_a_class_of_an_equal_lattice_is_a_member():
    """Membership is equality of lattices: a class built on an equal copy
    of the real lattice, not the lattice object itself, is paired by
    `ClassVector.dot` and checked by `check_conditions` like the model's
    own class with the same coefficients."""
    for name in ("D2", "G2_1_0", "D4_1_2"):
        model = builtin(name)
        lattice, k = model.real_lattice, model.canonical
        copy = IntLattice(lattice.rank, lattice.basis_labels, lattice.gram)
        assert copy is not lattice and copy == lattice
        for d in enumerate_classes(model.window) + [k]:
            twin = copy.vector(d.coeffs)
            assert twin.dot(d) == d.dot(twin) == d.dot(d)
            assert twin.dot(k) == k.dot(twin) == d.dot(k)
            assert check_conditions(model, twin) == check_conditions(model, d)


def test_search_d2():
    model = builtin("D2")
    assert [d.coeffs for d in search(model)] == [(-1, -3), (1, -1)]


def test_search_d2_1_0():
    model = builtin("D2_1_0")
    assert [d.coeffs for d in search(model)] == [
        (-5, -1, -1),
        (-3, -1, 1),
        (-3, 1, -1),
        (-1, 1, 1),
    ]


def test_search_empty_rows():
    for name, expected in GOLDEN.items():
        if not expected:
            assert search(builtin(name)) == []


def test_search_matches_brute_force_rank_le_3():
    for name in ("P2", "Q31", "P2_0_2", "Q31_0_2", "Q31_0_4", "D4", "D4_1_0",
                  "D4_0_2", "D2", "G2", "D2_1_0", "G2_1_0", "B1"):
        model = builtin(name)
        if model.real_lattice.rank > 3:
            continue
        assert search(model) == brute_force_search(model, radius=12)


def test_search_matches_brute_force_rank_4():
    # the empty rows on the rank-4 lattices hinge on the line condition; a
    # smaller box keeps the oracle affordable there
    for name in ("P2_0_6", "D4_1_2", "Q31_0_6"):
        model = builtin(name)
        assert model.real_lattice.rank == 4
        assert search(model) == brute_force_search(model, radius=6)


def test_search_results_have_expected_invariants():
    for name in GOLDEN:
        model = builtin(name)
        for d in search(model):
            report = check_conditions(model, d)
            assert report.genus == model.s + model.r - 1
            assert report.ell == model.s + 3
            dk = d.dot(model.canonical)
            assert (dk + 4 - model.r) % 4 == 0 and dk + 4 - model.r >= 0


def test_window_and_parity_conditions_give_multiples_of_four():
    # on any candidate, c3 and c4 together force D.K + 4 - r into {0, 4, 8, ...}
    from realdp.lattice import class_window, enumerate_classes

    for name in GOLDEN:
        model = builtin(name)
        target = model.r + 2 * model.s
        candidates = enumerate_classes(
            class_window(model.real_lattice, model.canonical, target, model.r - 4, target + model.r - 4)
        )
        for d in candidates:
            report = check_conditions(model, d)
            if report.c3 and report.c4:
                value = d.dot(model.canonical) + 4 - model.r
                assert value >= 0 and value % 4 == 0


def test_d2_worked_example_candidates():
    # condition c2 alone leaves four classes; the full conditions leave two
    model = builtin("D2")
    intermediate = {d.coeffs for d in self_intersection_candidates(model, radius=12)}
    pairs_hl = {(1, -3), (-1, -1), (1, 1), (-1, 3)}  # D = hF - lK
    assert intermediate == {(h, -l) for h, l in pairs_hl}
    final = {d.coeffs for d in search(model)}
    assert final == {(h, -l) for h, l in {(1, 1), (-1, 3)}}


def test_search_stable_under_anticanonical_reflection():
    d2 = builtin("D2")
    result = set(search(d2))
    assert {geiser_bertini(d, d2.canonical) for d in result} == result
    d210 = builtin("D2_1_0")
    result = set(search(d210))
    assert {geiser_bertini(d, d210.canonical) for d in result} == result


def test_bertini_pairs_exchange_as_documented():
    lat = builtin("D2_1_0").real_lattice
    k = lat.vector((1, 0, 0))
    d1 = lat.vector((-3, -1, 1))
    d2 = lat.vector((-3, 1, -1))
    d3 = lat.vector((-5, -1, -1))
    d4 = lat.vector((-1, 1, 1))
    assert geiser_bertini(d1, k) == d2
    assert geiser_bertini(d3, k) == d4


def test_very_ample_flags():
    m = builtin("D4_2_0_11")
    assert very_ample(m, combination((-1, m.canonical))) is False
    g2 = builtin("G2")
    assert very_ample(g2, combination((-2, g2.canonical))) is True
    b1 = builtin("B1")
    assert very_ample(b1, combination((-3, b1.canonical))) is True


def test_render_divisor():
    d2 = builtin("D2")
    assert render_divisor(d2, d2.real_lattice.vector((1, -1))) == "F-K"
    assert render_divisor(d2, d2.real_lattice.vector((-1, -3))) == "-F-3K"
    assert render_divisor(d2, d2.real_lattice.vector((0, -1))) == "-K"
    assert render_divisor(d2, zero_class(d2.real_lattice)) == "0"
    p2 = builtin("P2")
    assert render_divisor(p2, p2.real_lattice.vector((1,))) == "H"
    b1 = builtin("B1")
    assert render_divisor(b1, b1.real_lattice.vector((-3,))) == "-3K"


# The line of P2 and the rulings of Q31 stand in for the (-1)-curves these
# two models lack.
STAND_INS = {"P2": ((1,),), "Q31": ((1, 0), (0, 1))}


def _di_rocco(model, coeffs):
    """(D.E >= 1 for every (-1)-curve or stand-in E, and with it D.(-K) >= 3)
    for the real class `coeffs`, evaluated in complex coordinates."""
    lattice = model.complex_lattice
    image = lattice.vector(mat_vec(model.embedding, coeffs))
    curves = model.minus_one_classes or [lattice.vector(c) for c in STAND_INS[model.name]]
    positive = all(image.dot(e) >= 1 for e in curves)
    return positive, positive and image.dot(model.complex_canonical) <= -3


def test_table1_very_ample_flags_follow_di_rocco():
    """Di Rocco's criterion for k = 1: D is very ample iff D.E >= 1 for every
    (-1)-curve E and D.(-K) >= 3."""
    rows = [row for row in table1() if row["divisor"] is not None]
    for row in rows:
        assert row["very_ample"] == ("yes" if _di_rocco(builtin(row["surface"]), row["divisor"]["coeffs"])[1] else "no"), row
    assert [row["surface"] for row in rows if row["very_ample"] == "no"] == ["D4_2_0_11"]


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_c5_and_very_ample_follow_di_rocco_on_a_box(name):
    """c5 is D.E >= 1 on every (-1)-curve or stand-in E, and `very_ample`
    is Di Rocco's criterion, on every class with coefficients in [-3, 3].
    On P2 and Q31, which have no (-1)-classes, only D.K < 0 keeps -H out."""
    model = builtin(name)
    for coeffs in itertools.product(range(-3, 4), repeat=model.real_lattice.rank):
        d = model.real_lattice.vector(coeffs)
        positive, ample = _di_rocco(model, coeffs)
        assert check_conditions(model, d).c5 is positive, (name, coeffs)
        assert very_ample(model, d) is ample, (name, coeffs)


def test_table1_against_fixture():
    rows = table1()
    assert len(rows) == 24
    by_surface = {}
    for row in rows:
        degree, s, r = row["degree"], row["s"], row["r"]
        by_surface.setdefault(row["surface"], set())
        if row["rendered"] != "---":
            by_surface[row["surface"]].add((row["rendered"], row["ell"], row["genus"], row["very_ample"]))
        expected_d, expected_s, expected_r = {
            name: (builtin(name).degree, builtin(name).s, builtin(name).r) for name in GOLDEN
        }[row["surface"]]
        assert (degree, s, r) == (expected_d, expected_s, expected_r)
    assert by_surface == GOLDEN
    # surfaces appear in catalogue order
    order = [row["surface"] for row in rows]
    deduped = [name for i, name in enumerate(order) if i == 0 or order[i - 1] != name]
    assert deduped == list(GOLDEN)


def test_table1_checks_each_candidate_once(monkeypatch):
    """`table_rows` reads the reports of the one pass that `search` makes,
    so the 15 divisor rows are not checked a second time (86 calls)."""
    calls = []
    check = search_module.check_conditions
    monkeypatch.setattr(search_module, "check_conditions", lambda model, d: calls.append(d) or check(model, d))
    rows = table1()
    assert len(calls) == 71
    assert sum(row["divisor"] is not None for row in rows) == 15


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_check_conditions_matches_the_pairing_oracle(name):
    """The integer kernel gives the report of ClassVector pairings with
    every (-1)-class, D + K and D - K, and a second c5 pass for very
    ampleness, repr for repr, on every class with coefficients in [-3, 3]
    and on every Table 1 divisor of the model."""
    model = builtin(name)
    rank = model.real_lattice.rank
    classes = list(itertools.product(range(-3, 4), repeat=rank))
    classes += [row["divisor"]["coeffs"] for row in table_rows(model) if row["divisor"] is not None]
    assert len(classes) >= 7 ** rank
    for coeffs in classes:
        d = model.real_lattice.vector(coeffs)
        assert repr(check_conditions(model, d)) == repr(check_conditions_by_pairings(model, d)), (name, coeffs)


def test_check_conditions_builds_no_class_and_pairs_nothing(monkeypatch):
    """`check_conditions` reads D.D and D.K off one Gram product: no
    ClassVector (not D + K, D - K or a multiple of K) and no
    `ClassVector.dot` call, on passing and failing classes alike."""
    cases = [(builtin(row["surface"]), row["divisor"]["coeffs"]) for row in table1() if row["divisor"] is not None]
    cases += [(builtin("D2"), (-1, -1)), (builtin("P2_0_8"), (1, 0, 0, 0, 0)), (builtin("B1"), (-1,))]
    classes = [(model, model.real_lattice.vector(coeffs)) for model, coeffs in cases]
    built, pairs = [], []
    post_init, pair = ClassVector.__post_init__, ClassVector.dot
    monkeypatch.setattr(ClassVector, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(ClassVector, "dot", lambda self, other: pairs.append(1) or pair(self, other))
    reports = [check_conditions(model, d) for model, d in classes]
    assert (built, pairs) == ([], [])
    assert sum(report.passed for report in reports) == 15
    k = builtin("B1").canonical
    k.dot(combination((-1, k)))  # the counters see a new class and a pairing
    assert (len(built), len(pairs)) == (1, 1)


@pytest.mark.parametrize("name", SURFACE_NAMES)
def test_c2_and_c3_read_the_stored_window(name):
    """c2 and c3 are the verdicts of `model.window`, not a second copy of
    r + 2s and [r - 4, r + 2s - 4]: on a Table 1 divisor of the model (or
    -K where the table has none), a window at its own D.D and D.K passes
    both, moving the self-intersection by one fails c2 alone, and moving
    the D.K range off its D.K fails c3 alone; c4 and c5 do not change."""
    model = builtin(name)
    lattice, k = model.real_lattice, model.canonical
    rows = [row for row in table_rows(model) if row["divisor"] is not None]
    d = lattice.vector(rows[0]["divisor"]["coeffs"]) if rows else combination((-1, k))
    dd, dk = d.dot(d), d.dot(k)
    stored = check_conditions(model, d)
    assert stored.passed or not rows

    def report(self_int, k_min, k_max):
        return check_conditions(model._replace(window=class_window(lattice, k, self_int, k_min, k_max)), d)

    reports = [report(dd, dk, dk), report(dd + 1, dk, dk), report(dd, dk + 1, dk + 4)]
    assert [(r.c2, r.c3) for r in reports] == [(True, True), (False, True), (True, False)]
    assert {(r.c4, r.c5) for r in reports} == {(stored.c4, stored.c5)}


def test_table_text_contains_documented_row():
    text = format_table_text(table1())
    rows = [line.split() for line in text.splitlines()]
    assert ["D2", "2", "3", "0", "F-K", "6", "2", "yes"] in rows
    assert ["P2", "9", "0", "1", "H", "3", "0", "yes"] in rows
    assert ["D4_2_0_11", "2", "0", "2", "-K", "3", "1", "no"] in rows


def test_row_to_json_shape():
    payload = table1()
    empty = [p for p in payload if p["divisor"] is None]
    assert len(empty) == 9
    d2 = [p for p in payload if p["surface"] == "D2" and p["rendered"] == "F-K"][0]
    assert d2["divisor"] == {"basis": ["F", "K"], "coeffs": [1, -1]}


def test_search_walks_the_stored_window(monkeypatch):
    """Once the models are built, `search` runs no Bareiss elimination: it
    calls `enumerate_classes` once, on the model's stored window, and that
    calls `enumerate_quadratic` once, on the window's stored set-up.  Each
    function is counted under every realdp module name bound to it, as
    bench/tracer.py wraps them."""
    import sys

    from realdp import intlinalg, lattice

    models = [builtin(name) for name in SURFACE_NAMES]
    modules = [m for n, m in list(sys.modules.items()) if n == "realdp" or n.startswith("realdp.")]
    calls = {}
    for owner, name in ((intlinalg, "_bareiss"), (lattice, "enumerate_classes"), (intlinalg, "enumerate_quadratic")):
        original, calls[name] = getattr(owner, name), []

        def counter(*args, found=calls[name], original=original):
            found.append(args)
            return original(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counter)
    for model in models:
        for found in calls.values():
            found.clear()
        search(model)
        assert calls["_bareiss"] == [], model.name
        assert calls["enumerate_classes"] == [(model.window,)], model.name
        assert calls["enumerate_quadratic"] == [(model.window.form, model.window.bound)], model.name
