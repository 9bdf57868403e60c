import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from realdp.intlinalg import dot, primitive_vector
from realdp.realroots import neg, squarefree_decomposition, sturm_count
from realdp import topology
from realdp.topology import (
    GreatSubsphere,
    HyperbolicityVerdict,
    HypersurfaceSpec,
    PLCycle,
    SplitMix64,
    all_real_restriction,
    hyperbolicity_check,
    linking_number,
)
import oracles
from oracles import (
    hyperbolicity_by_fraction_draws,
    hyperbolicity_check_by_trials,
    hyperbolicity_from_linking,
    linking_number_by_images,
    restrict_by_expansion,
    winding_of_lift,
)
from conftest import (
    assert_value_semantics,
    cayley_rotation,
    chart_axis,
    chart_origin,
    empty_quadric,
    form_product,
    nested_spheres,
    pseudoline_cycle,
    refine_cycle,
    rotate_cycle,
    rotate_subspace,
    rotate_vector,
    square_cycle,
    sphere_quadric,
)

# ---------------------------------------------------------------------------
# Sturm counting


def test_sturm_basics():
    assert sturm_count([-1, 0, 1]) == 2  # t^2 - 1
    assert sturm_count([1, 0, 1]) == 0  # t^2 + 1
    assert sturm_count([0, 4, 0, -5, 0, 1]) == 5  # t(t^2-1)(t^2-4)
    assert sturm_count([5]) == 0
    with pytest.raises(ValueError):
        sturm_count([0])


def test_sturm_multiplicity():
    # (t - 1)^2 (t + 2)
    p = [2, -3, 0, 1]
    assert sturm_count(p) == 2
    assert sturm_count(p, with_multiplicity=True) == 3
    assert sturm_count([Fraction(1, 2), 1, Fraction(1, 2)]) == 1  # (t+1)^2 / 2
    assert sturm_count([Fraction(1, 2), 1, Fraction(1, 2)], with_multiplicity=True) == 2


def test_squarefree_decomposition():
    # t^2 (t - 1)^3
    p = [0, 0, -1, 3, -3, 1]
    parts = squarefree_decomposition(p)
    assert sorted(m for _, m in parts) == [2, 3]
    total = sum(m * (len(g) - 1) for g, m in parts)
    assert total == 5


def test_sturm_parity_property():
    # nonreal roots of a real polynomial pair up, so the real count with
    # multiplicity has the parity of the degree
    rng = random.Random(8)
    for _ in range(200):
        degree = rng.randint(1, 8)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([1, -1]) * rng.randint(1, 9)]
        assert sturm_count(coeffs, with_multiplicity=True) % 2 == degree % 2


def test_sturm_against_float_oracle():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        degree = rng.randint(1, 7)
        coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([1, -1]) * rng.randint(1, 9)]
        roots = list(numpy.roots(list(reversed(coeffs))))
        if len(roots) != degree:
            continue
        imag = sorted(abs(z.imag) for z in roots)
        if any(1e-8 < v < 1e-3 for v in imag):
            continue  # the float oracle cannot certify this sample
        separation = min(
            (abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]),
            default=1.0,
        )
        if separation < 1e-4:
            continue  # clustered roots: isolation not certified
        expected = sum(1 for z in roots if abs(z.imag) <= 1e-8)
        assert sturm_count(coeffs) == expected
        assert sturm_count(coeffs, with_multiplicity=True) == expected
        checked += 1


# ---------------------------------------------------------------------------
# Hyperbolicity via random real lines


def test_all_real_restriction_examples():
    q = sphere_quadric()
    assert all_real_restriction(q, (1, 0, 0, 0), (0, 1, 2, 3)) is True
    assert all_real_restriction(q, (0, 0, 0, 1), (1, 3, 0, 0)) is False
    # a split form: the product of four real linear forms is hyperbolic
    linear_product = HypersurfaceSpec(4, (((1, 1, 1, 1), 1),))
    assert all_real_restriction(linear_product, (1, 2, 3, 4), (5, 1, -7, 2)) is True
    # a positive rational multiple stores the same coprime integer coefficients
    scaled = HypersurfaceSpec(2, tuple((e, Fraction(3, 14) * c) for e, c in q.terms))
    assert scaled.terms == q.terms and all(type(c) is int for _, c in scaled.terms)
    assert HypersurfaceSpec(2, (((2, 0, 0, 0), Fraction(-4, 6)), ((0, 1, 1, 0), 2))).terms == (
        ((2, 0, 0, 0), -1), ((0, 1, 1, 0), 3))


def test_all_real_restriction_counts_multiplicity():
    # tangent line from an outside center: a double real root still passes
    q = sphere_quadric()
    assert all_real_restriction(q, (0, 0, 0, 1), (1, 1, 0, 0)) is True


def test_all_real_restriction_rejects_center_on_surface():
    q = sphere_quadric()
    with pytest.raises(ValueError):
        all_real_restriction(q, (1, 1, 0, 0), (0, 1, 2, 3))
    with pytest.raises(ValueError):
        all_real_restriction(q, (1, 0, 0, 0), (2, 0, 0, 0))  # same projective point
    with pytest.raises(ValueError, match="coincides with the center"):
        all_real_restriction(q, (2, 4, 0, 6), (-3, -6, 0, -9))  # -3/2 times the center


def test_all_real_restriction_rejects_zero_points():
    q = sphere_quadric()
    with pytest.raises(ValueError, match="center must be a nonzero point"):
        all_real_restriction(q, (0, 0, 0, 0), (0, 1, 2, 3))
    with pytest.raises(ValueError, match="sample point must be a nonzero point"):
        all_real_restriction(q, (1, 0, 0, 0), (0, 0, 0, 0))


def test_points_need_four_coordinates():
    """A short or long vector was zipped against the exponents, so one
    coordinate was dropped or ignored: (1, 0, 0) answered "supported" and
    (0, 0, 0, 1, 0) answered "refuted" on the sphere quadric."""
    q = sphere_quadric()
    for short_or_long in ((1, 0, 0), (0, 0, 0, 1, 0)):
        with pytest.raises(ValueError, match="center needs four coordinates"):
            hyperbolicity_check(q, short_or_long, 5, 0)
        with pytest.raises(ValueError, match="center needs four coordinates"):
            all_real_restriction(q, short_or_long, (0, 1, 2, 3))
        with pytest.raises(ValueError, match="sample point needs four coordinates"):
            all_real_restriction(q, (1, 0, 0, 0), short_or_long)


def test_hyperbolicity_check_rejects_zero_center_in_degree_zero():
    constant = HypersurfaceSpec(0, (((0, 0, 0, 0), 1),))
    assert not hyperbolicity_check(constant, (1, 0, 0, 0), 3, 0).refuted
    with pytest.raises(ValueError, match="center must be a nonzero point"):
        hyperbolicity_check(constant, (0, 0, 0, 0), 1, 0)


def test_center_on_hypersurface_is_the_degree_drop():
    q = sphere_quadric()
    for check in (lambda e: hyperbolicity_check(q, e, 5, 0), lambda e: all_real_restriction(q, e, (0, 1, 2, 3))):
        with pytest.raises(ValueError, match="center on hypersurface"):
            check((1, 1, 0, 0))
        with pytest.raises(ValueError, match="center must be a nonzero point"):
            check((0, 0, 0, 0))
    cancelling = HypersurfaceSpec(0, (((0, 0, 0, 0), -1), ((0, 0, 0, 0), 1)))  # the zero form
    with pytest.raises(ValueError, match="center on hypersurface"):
        hyperbolicity_check(cancelling, (1, 0, 0, 0), 5, 0)
    with pytest.raises(ValueError, match="center on hypersurface"):
        all_real_restriction(cancelling, (1, 0, 0, 0), (0, 1, 2, 3))


def _plane_terms(polar):
    """The forms of `topology._plane_polar_forms` as dicts from exponents
    in the three plane coordinates to nonzero coefficients, read off the
    triangular layout: y0^a y1^b y2^c of degree n at s (s + 1) / 2 + c,
    s = b + c."""
    d = len(polar) - 1
    out = []
    for k, form in enumerate(polar):
        n = d - k
        layout = [(n - s, s - c, c) for s in range(n + 1) for c in range(s + 1)]
        assert len(form) == len(layout)
        out.append({exps: c for exps, c in zip(layout, form) if c})
    return out


def test_restriction_by_polar_forms_matches_expansion():
    """The plane polar forms are the terms free of x_j of the four-variable
    polar forms of `oracles.polar_forms`, and the restriction by the
    monomial plan at a point w on x_j = 0 is the one by monomial expansion,
    for random forms of degree 0 to 8, centers with zero coordinates and
    points up to 10^6."""
    st = pytest.importorskip("hypothesis.strategies")
    from hypothesis import assume, given, settings

    @st.composite
    def forms(draw):
        degree = draw(st.integers(0, 8))
        terms = []
        for _ in range(draw(st.integers(0, 12))):
            a = draw(st.integers(0, degree))
            b = draw(st.integers(0, degree - a))
            c = draw(st.integers(0, degree - a - b))
            terms.append(((a, b, c, degree - a - b - c), draw(st.integers(-50, 50))))
        return HypersurfaceSpec(degree, tuple(terms))

    centers = st.tuples(*[st.integers(-3, 3)] * 4)
    points = st.tuples(*[st.integers(-10**6, 10**6)] * 4)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(forms(), centers, points)
    def check(x, e, p):
        assume(any(e))
        e = primitive_vector(e)
        try:
            j, polar = topology._plane_polar_forms(x, e)
        except ValueError:
            assert sum([c for _, c in oracles.polar_forms(x, e)[-1]]) == 0
            return
        assert j == next(i for i, ei in enumerate(e) if ei)
        expected = []
        for form in oracles.plane_polar_forms(x, e)[1]:  # X_0 = X may repeat a monomial
            summed = {}
            for exps, c in form:
                summed[exps[:j] + exps[j + 1:]] = summed.get(exps[:j] + exps[j + 1:], 0) + c
            expected.append({exps: c for exps, c in summed.items() if c})
        assert _plane_terms(polar) == expected
        w = [e[j] * pi - p[j] * ei for pi, ei in zip(p, e)]
        assert x.restrict_to_line(w, (j, polar)) == restrict_by_expansion(x, w, e)

    check()


def test_polar_forms_of_the_sphere():
    """x1^2 + x2^2 + x3^2 - x0^2 along e = (2, 1, 0, 0), on x0 = 0:
    X_0 = x1^2 + x2^2 + x3^2, X_1 = 2 x1 (the x0 term -4 x0 is dropped) and
    X_2 = X(e) = 1 - 4; along (1, 1, 0, 0), on the sphere, X(e) = 0."""
    j, polar = topology._plane_polar_forms(sphere_quadric(), (2, 1, 0, 0))
    assert j == 0 and _plane_terms(polar) == [
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}, {(1, 0, 0): 2}, {(0, 0, 0): -3}]
    with pytest.raises(ValueError, match="center on hypersurface"):
        topology._plane_polar_forms(sphere_quadric(), (1, 1, 0, 0))


def test_hyperbolicity_interior_center_supported():
    verdict = hyperbolicity_check(sphere_quadric(), (1, 0, 0, 0), 500, 0)
    assert not verdict.refuted
    assert verdict.trials == 500


def test_hyperbolicity_exterior_center_refuted():
    verdict = hyperbolicity_check(sphere_quadric(), (0, 0, 0, 1), 50, 0)
    assert verdict.refuted
    assert verdict.trial <= 50
    assert all_real_restriction(sphere_quadric(), (0, 0, 0, 1), verdict.witness) is False


def test_hyperbolicity_empty_quadric_refuted_first_trial():
    verdict = hyperbolicity_check(empty_quadric(), (1, 0, 0, 0), 5, 0)
    assert verdict.refuted and verdict.trial == 1


# ---------------------------------------------------------------------------
# Smooth cubic surfaces for the degree-3 rows of Table 1


def _with_cubes(form):
    """form + x0^3 + x1^3 + x2^3 + x3^3."""
    out = dict(form)
    for i in range(4):
        cube = tuple(3 * int(j == i) for j in range(4))
        out[cube] = out.get(cube, 0) + 1
    return {e: c for e, c in out.items() if c}


def _sphere_times_plane(scale):
    """scale (x1^2 + x2^2 + x3^2 - x0^2)(x3 - 2 x0): the plane x3 = 2 x0 does
    not meet the unit sphere in RP^3, so every real line through [1:0:0:0]
    meets the product in three distinct real points."""
    product = form_product(nested_spheres(1), {(0, 0, 0, 1): 1, (1, 0, 0, 0): -2})
    return {e: scale * c for e, c in product.items()}


# A small perturbation of that product stays strictly hyperbolic from
# [1:0:0:0] (Nuij, Math. Scand. 23, 1968), so its real part is an ovaloid
# around the centre and a pseudo-plane, the topology of D4_1_0 (s = r = 1).
# The Fermat cubic's real part is one projective plane, as on P2_0_6.
CUBIC_WITNESS = _with_cubes(_sphere_times_plane(100))
FERMAT_CUBIC = _with_cubes({})


def test_degree_three_witnesses_are_smooth():
    """In every affine chart x_i = 1 the Groebner basis of the four partial
    derivatives of the witness and of the Fermat cubic is {1}: no singular
    point.  The same check finds the unperturbed product of the sphere and
    the plane, which meet in a complex conic, and Cayley's four-nodal cubic
    singular."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:4")

    def smooth(form):
        poly = sum(c * sympy.prod([x**k for x, k in zip(xs, e)]) for e, c in form.items())
        partials = [sympy.diff(poly, x) for x in xs]
        for i in range(4):
            chart = [d.subs(xs[i], 1) for d in partials]
            rest = [x for j, x in enumerate(xs) if j != i]
            if list(sympy.groebner(chart, *rest, order="grevlex").exprs) != [1]:
                return False
        return True

    cayley = {e: 1 for e in ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))}
    assert smooth(CUBIC_WITNESS) and smooth(FERMAT_CUBIC)
    assert not smooth(_sphere_times_plane(1)) and not smooth(cayley)


def test_hyperbolicity_of_the_degree_three_witnesses():
    """The witness is supported from centres inside the sphere and refuted
    from one outside it; the Fermat cubic, with no oval, is refuted from
    every centre off it on the grid {-1, 0, 1, 2}^4."""
    witness, fermat = _spec(CUBIC_WITNESS), _spec(FERMAT_CUBIC)
    for centre in ((1, 0, 0, 0), (1, 0, 0, Fraction(1, 2)), (2, 1, 0, -1)):
        assert not hyperbolicity_check(witness, centre, 200, 0).refuted, centre
    assert hyperbolicity_check(witness, (1, 3, 0, 0), 200, 0).trial == 1
    centres = [e for e in itertools.product((-1, 0, 1, 2), repeat=4) if sum(c**3 for c in e)]
    assert len(centres) == 237
    for centre in centres:
        assert hyperbolicity_check(fermat, centre, 200, 0).refuted, centre


def _spec(form):
    return HypersurfaceSpec(sum(next(iter(form))), tuple(form.items()))


def _swap(form, i, j):
    """The form with coordinates x_i and x_j exchanged."""
    out = {}
    for exps, coeff in form.items():
        exps = list(exps)
        exps[i], exps[j] = exps[j], exps[i]
        out[tuple(exps)] = coeff
    return out


# name: (form, center, trials, seed)
VERDICT_CASES = {
    "spheres, center inside": (nested_spheres(1, 2), (4, 1, -1, 1), 60, 3),
    "spheres, center outside": (nested_spheres(1, 2, 3), (1, 10, 3, -2), 60, 7),
    "sphere times a squared plane": (form_product({(0, 2, 0, 0): 1}, nested_spheres(1)), (4, 1, -1, 1), 60, 3),
    "refuted after trial 1": (nested_spheres(1, 2), (1, 10, 3, -2), 60, 6),
    "degree 0": ({(0, 0, 0, 0): -7}, (3, -1, 0, 2), 20, 1),
    "degree 1": ({(1, 0, 0, 0): 2, (0, 1, 0, 0): -3, (0, 0, 0, 1): 5}, (1, 1, 1, 1), 20, 2),
    "center (0,0,0,1), outside": (nested_spheres(1), (0, 0, 0, 1), 60, 0),
    "center (0,0,0,1), inside": (_swap(nested_spheres(1, 2), 0, 3), (0, 0, 0, 1), 60, 4),
    "center (0,1,0,0), inside": (_swap(nested_spheres(1, 2), 0, 1), (0, 1, 0, 0), 60, 5),
    "center (0,0,6,1), inside": (_swap(nested_spheres(2, 3), 0, 2), (0, 0, 6, 1), 60, 8),
    "center (0,1,-2,0), outside": (_swap(nested_spheres(1), 0, 1), (0, 1, -2, 0), 60, 9),
}


@pytest.mark.parametrize("name", sorted(VERDICT_CASES))
def test_verdict_matches_the_fraction_sampler(name):
    """The integer sampler on the hyperplane x_j = 0 gives the verdict of
    the sampler that draws Fractions, restricts X to the sampled ray itself
    and reads the whole primitive Sturm chain: refuted or not, the trial,
    the witness and the boundary contacts."""
    form, center, trials, seed = VERDICT_CASES[name]
    x = _spec(form)
    verdict = hyperbolicity_check(x, center, trials, seed)
    assert verdict == hyperbolicity_by_fraction_draws(x, center, trials, seed)
    assert verdict.refuted == ("outside" in name or "refuted" in name)


def test_verdict_cases_cover_every_branch():
    """Each first nonzero center coordinate j, a refutation after trial 1,
    and a form where every line is a boundary contact."""
    verdicts = {name: hyperbolicity_check(_spec(form), center, trials, seed)
                for name, (form, center, trials, seed) in VERDICT_CASES.items()}
    assert {next(j for j, c in enumerate(case[1]) if c) for case in VERDICT_CASES.values()} == {0, 1, 2, 3}
    assert verdicts["refuted after trial 1"].trial > 1
    assert verdicts["sphere times a squared plane"].boundary_contacts == 60
    assert verdicts["spheres, center inside"].boundary_contacts == 0


def test_verdict_matches_the_fraction_sampler_on_random_forms():
    """Random forms of degree 0 to 4 and random centers with zero
    coordinates, 300 checks of 6 trials each."""
    rng = random.Random(19)
    checked = 0
    while checked < 300:
        degree = rng.randint(0, 4)
        form = {}
        for _ in range(rng.randint(1, 6)):
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            c = rng.randint(0, degree - a - b)
            form[(a, b, c, degree - a - b - c)] = rng.randint(-4, 4) or 1
        x = _spec(form)
        center = tuple(rng.choice((0, 0, 1, -1, 2, Fraction(1, 3))) for _ in range(4))
        seed = rng.getrandbits(64)
        try:
            verdict = hyperbolicity_check(x, center, 6, seed)
        except ValueError:
            continue  # a zero center or a center on X
        assert verdict == hyperbolicity_by_fraction_draws(x, center, 6, seed), (form, center, seed)
        checked += 1


def _kernel_case(rng):
    """(form, center, family) for the kernel comparison: a form of degree 3
    to 8 and an integer center whose first nonzero coordinate j is 0 to 3,
    all nonzero center coordinates of size 2 or more save when only one is
    left.  Families: nested spheres, times a plane for odd degrees, with
    the center inside (supported) or outside (refuted, often after trial 1);
    a squared sphere, times a plane half of the time, with every line a
    boundary contact; a product of planes, some repeated, which every line
    meets in real points; and a sparse random form.  The coordinates are
    then permuted so that the center's zeros come first."""
    family = rng.choice(("inside", "outside", "squared", "planes", "random"))
    zeros = rng.randrange(4)
    while True:
        if family in ("inside", "squared"):
            center = [rng.choice((3, 4, 5))] + [rng.choice((2, -2, 3, -3)) for _ in range(3)]
            for i in rng.sample((1, 2, 3), zeros):
                center[i] = 0
        else:
            center = [rng.choice((2, -2, 3, 5, -7)) for _ in range(4)]
            for i in rng.sample(range(4), zeros):
                center[i] = 0
        if math.gcd(*center) == 1 or zeros == 3:
            break
    plane = _linear([rng.randint(-3, 3) for _ in range(4)]) or {(1, 0, 0, 0): 1}
    if family in ("inside", "outside"):
        first = 2 if family == "inside" else 1
        radii = [first + i + rng.randint(0, 1) for i in range(rng.randint(1, 4))]
        form = nested_spheres(*radii)
        if len(radii) == 1 or (len(radii) < 4 and rng.random() < 0.5):
            form = form_product(form, plane)
    elif family == "squared":
        form = form_product(nested_spheres(2), nested_spheres(2))
        if rng.random() < 0.5:
            form = form_product(form, plane)
    elif family == "planes":
        planes = [_linear([rng.randint(-3, 3) for _ in range(4)]) or {(0, 1, 0, 0): 1} for _ in range(rng.randint(2, 6))]
        planes += rng.sample(planes, rng.randint(1, 2))
        form = {(0, 0, 0, 0): 1}
        for factor in planes:
            form = form_product(form, factor)
    else:
        degree = rng.randint(3, 6)
        form = {}
        for _ in range(rng.randint(2, 8)):
            a = rng.randint(0, degree)
            b = rng.randint(0, degree - a)
            c = rng.randint(0, degree - a - b)
            form[(a, b, c, degree - a - b - c)] = rng.randint(-9, 9) or 1
    order = sorted(range(4), key=lambda i: (center[i] != 0, rng.random()))  # new position k holds old order[k]
    permuted = {tuple([exps[i] for i in order]): c for exps, c in form.items()}
    return permuted, tuple([center[i] for i in order]), family


def test_hyperbolicity_check_matches_both_oracles():
    """1,200 seeded checks of 6 trials on forms of degree 3 to 8
    (`_kernel_case`): the verdict, the trial, the witness and the boundary
    contacts equal those of the Fraction sampler on the whole ray and of
    the trial loop on the hyperplane with four-variable polar terms, and
    the cases cover every j, support, refutation at and after trial 1, and
    boundary contacts."""
    rng = random.Random(28)
    seen = {"supported": 0, "refuted at 1": 0, "refuted later": 0, "contacts": 0}
    seen.update({f"j = {j}": 0 for j in range(4)})
    checked = 0
    while checked < 1200:
        form, center, family = _kernel_case(rng)
        x = _spec(form)
        seed = rng.getrandbits(64)
        try:
            verdict = hyperbolicity_check(x, center, 6, seed)
        except ValueError as err:
            assert str(err) == "center on hypersurface", (form, center)  # e on a plane factor
            continue
        assert 3 <= x.degree <= 8
        assert verdict == hyperbolicity_by_fraction_draws(x, center, 6, seed), (form, center, seed)
        assert verdict == hyperbolicity_check_by_trials(x, center, 6, seed), (form, center, seed)
        if family == "squared":
            assert verdict == HyperbolicityVerdict(False, None, None, 6, 6)
        if family in ("inside", "planes"):
            assert not verdict.refuted
        seen["refuted at 1" if verdict.trial == 1 else "refuted later" if verdict.refuted else "supported"] += 1
        seen["contacts"] += verdict.boundary_contacts > 0
        seen[f"j = {next(j for j, c in enumerate(center) if c)}"] += 1
        checked += 1
    assert min(seen.values()) >= 60, seen


# ---------------------------------------------------------------------------
# Quadrics: the line discriminant certificate


_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _linear(coeffs):
    return {u: c for u, c in zip(_UNITS, coeffs) if c}


def _combine(*weighted):
    """sum of weight * form over (weight, form) pairs, forms as dicts."""
    out = {}
    for weight, form in weighted:
        for exps, c in form.items():
            out[exps] = out.get(exps, 0) + weight * c
    return out


def _random_quadric(rng):
    """(terms, center) of a random quadric with integer or Fraction
    coefficients and a center with zero and Fraction coordinates, from one
    of six families: sum a_i L_i^2 - b L_0^2 with the center inside or
    outside (L_i random linear forms, so possibly dependent), the same with
    one weight zero (a cylinder), a product of two planes with the center on
    the first one half of the time, a form through the center, and a dense
    random form.  About a third of the terms are split into two terms with
    the same monomial."""
    center = tuple(rng.choice((0, 0, 1, -1, 2, -3, Fraction(1, 3), Fraction(-5, 2))) for _ in range(4))
    rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
    family = rng.choice(("inside", "outside", "cylinder", "planes", "through", "dense"))
    if family in ("inside", "outside", "cylinder"):
        weights = [rng.randint(1, 4) for _ in range(3)]
        if family == "cylinder":
            weights[2] = 0
        y = [dot(row, center) for row in rows]
        spread = sum(a * v * v for a, v in zip(weights, y[1:]))
        b = rng.randint(1, 4)
        if family != "outside" and y[0]:
            b = int(spread / (y[0] * y[0])) + rng.randint(1, 3)
        squares = [form_product(_linear(row), _linear(row)) for row in rows]
        form = _combine((-b, squares[0]), *zip(weights, squares[1:]))
    elif family == "planes":
        if rng.random() < 0.5 and any(center[:2]):
            rows[0] = [center[1], -center[0], 0, 0]
        form = form_product(_linear(rows[0]), _linear(rows[1]))
    else:
        dense = {}
        for _ in range(rng.randint(1, 10)):
            exps = [0, 0, 0, 0]
            exps[rng.randrange(4)] += 1
            exps[rng.randrange(4)] += 1
            dense[tuple(exps)] = rng.randint(-5, 5)
        form = dense
        if family == "through":  # q(e) L^2 - L(e)^2 q vanishes at e
            value = sum(c * center[0] ** a * center[1] ** b * center[2] ** f * center[3] ** g
                        for (a, b, f, g), c in dense.items())
            lin = _linear(rows[0])
            form = _combine((value, form_product(lin, lin)), (-dot(rows[0], center) ** 2, dense))
    terms = []
    for exps, c in form.items():
        if rng.random() < 1 / 3:
            r = rng.randint(-4, 4)
            terms += [(exps, r), (exps, c - r)]
        else:
            terms.append((exps, c))
    rng.shuffle(terms)
    return tuple(terms), center


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as err:
        return f"ValueError: {err}"


def test_quadric_verdicts_match_the_trial_loop():
    """On 1,500 random quadrics (`_random_quadric`) with 8 trials, and now and
    then a trial count, seed or center out of range, the check gives the
    verdict or the ValueError message of the trial loop that tests every
    line.  Definite line discriminants, refutations, quadrics that pass
    without a certificate and centers on X all occur."""
    rng = random.Random(24)
    seen = {"definite": 0, "refuted": 0, "supported": 0}
    messages = {}
    for _ in range(1500):
        terms, center = _random_quadric(rng)
        x = HypersurfaceSpec(2, terms)
        trials = rng.choice((8,) * 30 + (0,))
        seed = rng.choice((rng.getrandbits(64),) * 30 + (-1, 2**64))
        if rng.random() < 0.01:
            center = (0, 0, 0, 0)
        verdict = _outcome(hyperbolicity_check, x, center, trials, seed)
        assert verdict == _outcome(hyperbolicity_check_by_trials, x, center, trials, seed), (terms, center, seed)
        if isinstance(verdict, str):
            messages[verdict] = messages.get(verdict, 0) + 1
        elif topology._definite_line_discriminant(topology._plane_polar_forms(x, topology._point(center, "center"))[1]):
            seen["definite"] += 1
        else:
            seen["refuted" if verdict.refuted else "supported"] += 1
    assert min(seen.values()) >= 150, seen
    assert messages.get("ValueError: center on hypersurface", 0) >= 50, messages
    assert {"ValueError: need at least one trial", "ValueError: center must be a nonzero point"} < set(messages)
    assert sum(m.startswith("ValueError: seed must lie") for m in messages) == 2


def test_definite_line_discriminant_matches_sympy():
    """The certificate decides as sympy's `is_positive_definite` on the
    Gram matrix of D(w) = c1^2 - 4 c2 c0 on the hyperplane x_j = 0, j the
    first nonzero coordinate of e, read by polarisation at its unit vectors;
    c0 + c1 t + c2 t^2 is X on the line w + t e by monomial expansion."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(25)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 40:
        terms, center = _random_quadric(rng)
        x = HypersurfaceSpec(2, terms)
        try:
            j, polar = topology._plane_polar_forms(x, topology._point(center, "center"))
        except ValueError:
            continue

        def disc(*units):
            c0, c1, c2 = restrict_by_expansion(x, [sum(col) for col in zip(*units)], center)
            return Fraction(c1 * c1 - 4 * c2 * c0)

        plane = [unit for i, unit in enumerate(_UNITS) if i != j]
        gram = [[(disc(a, b) - disc(a) - disc(b)) / 2 for b in plane] for a in plane]
        decided = bool(sympy.Matrix([[sympy.Rational(g.numerator, g.denominator) for g in row] for row in gram])
                       .is_positive_definite)
        assert topology._definite_line_discriminant(polar) == decided, (terms, center)
        seen[decided] += 1


def test_definite_quadric_draws_no_line(monkeypatch):
    """The sphere from its center [1:0:0:0] and from a Fraction center
    inside it: 100,000 trials requested, no draw made and no line
    restricted."""
    def fail(*args):
        raise AssertionError("a line was drawn")

    monkeypatch.setattr(SplitMix64, "rational", fail)
    monkeypatch.setattr(HypersurfaceSpec, "restrict_to_line", fail)
    for center in ((1, 0, 0, 0), (Fraction(3, 2), Fraction(-1, 2), Fraction(1, 3), 1)):
        assert hyperbolicity_check(sphere_quadric(), center, 100_000, 0) == HyperbolicityVerdict(
            False, None, None, 100_000, 0)


def test_semidefinite_and_indefinite_quadrics_test_their_lines(monkeypatch):
    """The cylinder x1^2 + x2^2 - x0^2 from [1:0:0:0] has a line discriminant
    4 (x1^2 + x2^2), semidefinite only, so all its trials restrict a line;
    the hyperboloid x1^2 + x2^2 - x3^2 - x0^2 from [2:0:0:3] stops at its
    refuting trial 6."""
    calls = []
    restrict = HypersurfaceSpec.restrict_to_line
    monkeypatch.setattr(HypersurfaceSpec, "restrict_to_line", lambda *args: calls.append(1) or restrict(*args))
    cylinder = HypersurfaceSpec(2, (((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1), ((2, 0, 0, 0), -1)))
    verdict = hyperbolicity_check(cylinder, (1, 0, 0, 0), 300, 3)
    assert verdict == HyperbolicityVerdict(False, None, None, 300, 0) and len(calls) == 300
    calls.clear()
    hyperboloid = HypersurfaceSpec(2, (((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1), ((0, 0, 0, 2), -1), ((2, 0, 0, 0), -1)))
    verdict = hyperbolicity_check(hyperboloid, (2, 0, 0, 3), 50, 0)
    assert verdict.refuted and verdict.trial == 6 and len(calls) == 6


def test_splitmix_determinism():
    a, b = SplitMix64(42), SplitMix64(42)
    draws = [a.rational() for _ in range(5)]
    assert draws == [b.rational() for _ in range(5)]
    assert len(set(draws)) == 5
    for num, den in draws:
        assert type(num) is int and type(den) is int
        assert abs(num) <= 10**4 and 1 <= den <= 10**4


def test_splitmix_stream_is_the_word_at_a_time_generator():
    """The draws read the splitmix64 words of the oracle, whose first word
    from seed 0 is the published 0xE220A8397B1DCDAF."""
    assert next(oracles.splitmix_rationals(0))[0] == 0xE220A8397B1DCDAF % 20001 - 10000
    for seed in (0, 1, 42, 2**64 - 1):
        rng, stream = SplitMix64(seed), oracles.splitmix_rationals(seed)
        assert [rng.rational() for _ in range(50)] == [next(stream) for _ in range(50)]


# ---------------------------------------------------------------------------
# Linking numbers


def test_linking_circle_around_center():
    assert abs(linking_number(square_cycle(Fraction(1, 4)), chart_origin(), chart_axis())) == 2


def test_linking_circle_not_enclosing():
    assert linking_number(square_cycle(Fraction(1, 4), shift=2), chart_origin(), chart_axis()) == 0


def test_linking_pseudoline():
    assert abs(linking_number(pseudoline_cycle(), chart_origin(), chart_axis())) == 1


def test_linking_criterion_models():
    e, l = chart_origin(), chart_axis()
    nested = [square_cycle(Fraction(1, 4)), square_cycle(Fraction(1, 2))]
    assert hyperbolicity_from_linking(nested, e, l, 4) is True  # quartic with nested ovals
    assert hyperbolicity_from_linking(nested[:1], e, l, 4) is False
    assert hyperbolicity_from_linking([pseudoline_cycle(), nested[0]], e, l, 3) is True  # cubic


def test_linking_invariances():
    e, l = chart_origin(), chart_axis()
    cycle = square_cycle(Fraction(1, 4))
    base = linking_number(cycle, e, l)
    relabeled = PLCycle(2, "sphere", cycle.points[2:] + cycle.points[:2])
    assert linking_number(relabeled, e, l) == base
    refined = refine_cycle(cycle)
    assert linking_number(refined, e, l) == base
    assert linking_number(refine_cycle(refined, weight=3), e, l) == base
    factors = (Fraction(1, 3), 5, Fraction(7, 2), Fraction(2, 9))
    scaled = PLCycle(2, "sphere", tuple(tuple(f * x for x in p) for f, p in zip(factors, cycle.points)))
    assert scaled.points == cycle.points  # one stored vector per ray
    assert all(type(x) is int for p in scaled.points for x in p)
    assert linking_number(scaled, e, l) == base


def test_linking_rotation_invariance():
    rng = random.Random(2024)
    e, l = chart_origin(), chart_axis()
    cycles = [square_cycle(Fraction(1, 4)), square_cycle(Fraction(1, 2)), pseudoline_cycle()]
    expected = [abs(linking_number(c, e, l)) for c in cycles]
    rotations = 0
    while rotations < 100:
        rot = cayley_rotation(rng, 3)
        try:
            got = [abs(linking_number(rotate_cycle(rot, c), rotate_subspace(rot, e), rotate_subspace(rot, l)))
                   for c in cycles]
        except ValueError:
            continue  # rotation landed a vertex on L or a crossing on the center
        assert got == expected
        rotations += 1


def test_linking_independent_of_bounding_hyperplane():
    e = chart_origin()
    cycle = square_cycle(Fraction(1, 4))
    values = set()
    normals = ((0, 0, 1), (0, 1, 0), (0, 1, 2), (0, 2, -1), (0, 3, 5), (0, Fraction(1, 3), Fraction(-5, 9)))
    for normal in normals:
        values.add(abs(linking_number(cycle, e, GreatSubsphere(2, (normal,)))))
    assert values == {2}


def test_linking_parity():
    e, l = chart_origin(), chart_axis()
    for radius in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        for shift in (0, 2):
            assert linking_number(square_cycle(radius, shift), e, l) % 2 == 0
    assert abs(linking_number(pseudoline_cycle(), e, l)) % 2 == 1


def test_linking_in_three_space():
    # a small loop encircling the line {x2 = x3 = 0} has |lk| = 2,
    # a disjoint projective line has |lk| = 1
    e = GreatSubsphere(3, ((0, 0, 1, 0), (0, 0, 0, 1)))
    chain = GreatSubsphere(3, ((0, 0, 1, 2),))
    q = Fraction(1, 4)
    ring = PLCycle(3, "sphere", ((1, 0, q, q), (1, 0, -q, q), (1, 0, -q, -q), (1, 0, q, -q)))
    assert abs(linking_number(ring, e, chain)) == 2
    line = PLCycle(3, "antipode", ((0, 0, 1, 1), (0, 0, -1, 1)))
    assert abs(linking_number(line, e, chain)) == 1


def test_linking_number_of_integer_input_is_exact():
    def fractions(vectors):
        return tuple(tuple(Fraction(x) for x in v) for v in vectors)

    cycles = (
        ("sphere", ((4, 1, 1), (4, -1, 1), (4, -1, -1), (4, 1, -1))),  # square of radius 1/4
        ("antipode", ((21, 7, 3), (-2, 10, 5))),  # the pseudoline, scaled to integers
    )
    center = ((0, 1, 0), (0, 0, 1))
    for normal in ((0, 0, 1), (0, 1, 2), (0, 3, 5)):
        for closure, points in cycles:
            value = linking_number(
                PLCycle(2, closure, points), GreatSubsphere(2, center), GreatSubsphere(2, (normal,))
            )
            exact = linking_number(
                PLCycle(2, closure, fractions(points)),
                GreatSubsphere(2, fractions(center)),
                GreatSubsphere(2, fractions((normal,))),
            )
            assert type(value) is int and value == exact and abs(value) in (1, 2)


def test_linking_rejects_degenerate_input():
    e, l = chart_origin(), chart_axis()
    on_wall = PLCycle(2, "sphere", ((1, 1, 0), (1, 0, 1), (1, -1, -1)))
    with pytest.raises(ValueError, match="perturb input"):
        linking_number(on_wall, e, l)
    touching = PLCycle(2, "sphere", ((1, 0, 0), (1, 1, 1), (1, 1, -1)))
    with pytest.raises(ValueError):
        linking_number(touching, e, l)


def random_linking_input(rng, span):
    """A random cycle, center and chain (or None) in RP^2 or RP^3 with
    integer coordinates in [-span, span], or None if a constructor rejects
    the draw."""
    ambient = rng.choice((2, 3))
    closure = rng.choice(("sphere", "antipode"))

    def vector():
        return tuple(rng.randint(-span, span) for _ in range(ambient + 1))

    try:
        e = GreatSubsphere(ambient, (vector(), vector()))
        chain = None
        if rng.random() < 0.5:
            u, v = rng.randint(-3, 3), rng.randint(-3, 3)
            chain = GreatSubsphere(ambient, (tuple(u * a + v * b for a, b in zip(*e.normals)),))
        return PLCycle(ambient, closure, tuple(vector() for _ in range(rng.randint(2, 8)))), e, chain
    except ValueError:
        return None


def test_linking_number_is_the_winding_of_the_lift():
    """The signed linking number equals the winding number, summed in
    floats, of the full preimage on S^n projected to the plane of the
    center's normals, on 2,000 transversal cycles: 500 for each ambient
    space and closure."""
    rng = random.Random(1018)
    checked = {(a, c): 0 for a in (2, 3) for c in ("sphere", "antipode")}
    values = set()
    while min(checked.values()) < 500:
        drawn = random_linking_input(rng, 3)
        if drawn is None or checked[drawn[0].ambient, drawn[0].closure] >= 500:
            continue
        try:
            value = linking_number(*drawn)
        except ValueError:
            continue
        assert value == winding_of_lift(*drawn), drawn
        checked[drawn[0].ambient, drawn[0].closure] += 1
        values.add(value)
    assert {-3, -2, -1, 0, 1, 2, 3} <= values


def test_rejections_index_the_stored_cycle():
    """Every rejection names a vertex or a segment of the stored cycle, and
    the vertex lies on the center or on L, or the segment meets the center."""
    e, l = chart_origin(), chart_axis()
    vertex_0_on_l = PLCycle(2, "sphere", ((1, -1, 0), (1, 1, 1), (1, 1, -1)))
    with pytest.raises(ValueError, match=r"^perturb input: cycle vertex 0 lies on the hyperplane$"):
        linking_number(vertex_0_on_l, e, l)
    rng = random.Random(2718)
    seen = set()
    for _ in range(3000):
        drawn = random_linking_input(rng, 1)
        if drawn is None:
            continue
        cycle, e, chain = drawn
        n = e.normals[0] if chain is None else chain.normals[0]
        try:
            linking_number(cycle, e, chain)
            continue
        except ValueError as exc:
            found = re.fullmatch(r"perturb input: (?:cycle vertex|segment) (\d+) (.*)", str(exc))
        idx, what = int(found[1]), found[2]
        assert idx < len(cycle.points)
        seen.add(what)
        p = cycle.points[idx]
        if what == "lies on the center":
            assert all(dot(p, m) == 0 for m in e.normals)
        elif what == "lies on the hyperplane":
            assert dot(p, n) == 0
        else:
            assert what == "crosses the center"
            q = cycle.points[(idx + 1) % len(cycle.points)]
            if cycle.closure == "antipode" and idx + 1 == len(cycle.points):
                q = tuple(-x for x in q)
            assert dot(p, n) * dot(q, n) < 0
            crossing = [dot(q, n) * a - dot(p, n) * b for a, b in zip(p, q)]
            assert all(dot(crossing, m) == 0 for m in e.normals)
    assert seen == {"lies on the center", "lies on the hyperplane", "crosses the center"}


def test_linking_number_matches_the_image_oracle():
    """The one-functional loop and the oracle that takes both x.n and x.c at
    every vertex give equal values or equal messages: on 2,000 seeded draws,
    at least 100 for each ambient space, closure and chain given or omitted,
    with coordinates in [-1, 1] (many rejections) or [-3, 3], and on planted
    cycles: a vertex on L, a vertex on the center, a vertex on L before one on
    the center (the center is reported), and a segment through the center.
    Chains drawn in and off the center's pencil, a center of one equation, a
    chain of two and ambient spaces that differ give the same outcome too."""
    rng = random.Random(26)
    drawn_by_kind = {(a, c, g): 0 for a in (2, 3) for c in ("sphere", "antipode") for g in (False, True)}
    seen = set()
    draws = 0
    while draws < 2000 or min(drawn_by_kind.values()) < 100:
        drawn = random_linking_input(rng, rng.choice((1, 3)))
        if drawn is None:
            continue
        expected = _outcome(linking_number_by_images, *drawn)
        assert _outcome(linking_number, *drawn) == expected, drawn
        drawn_by_kind[drawn[0].ambient, drawn[0].closure, drawn[2] is not None] += 1
        seen.add("value" if type(expected) is int else re.fullmatch(r"ValueError: perturb input: \D+ \d+ (.*)", expected)[1])
        draws += 1
    assert seen == {"value", "lies on the center", "lies on the hyperplane", "crosses the center"}
    e, l = chart_origin(), chart_axis()  # the center [1:0:0] and L: x2 = 0
    planted = {
        ((1, 1, 1), (1, -1, 0), (1, -1, -1)): "perturb input: cycle vertex 1 lies on the hyperplane",
        ((1, 1, 1), (1, -1, 1), (1, 0, 0)): "perturb input: cycle vertex 2 lies on the center",
        ((1, 1, 0), (1, 1, 1), (1, 0, 0)): "perturb input: cycle vertex 2 lies on the center",
        ((1, -1, 1), (1, 1, 1), (1, 0, 1), (1, 0, -1)): "perturb input: segment 2 crosses the center",
    }
    for points, message in planted.items():
        for closure in ("sphere", "antipode"):
            cycle = PLCycle(2, closure, points)
            for chain in (l, None):
                assert _outcome(linking_number, cycle, e, chain) == _outcome(linking_number_by_images, cycle, e, chain)
            assert _outcome(linking_number, cycle, e, l) == f"ValueError: {message}"
    # Chains off the center's pencil: the 3 x 3 minors against the oracle's Hermite normal form.
    messages = set()
    for _ in range(400):
        drawn = random_linking_input(rng, 3)
        if drawn is None:
            continue
        cycle, e, _ = drawn
        a, b = e.normals
        u, v, w = rng.randint(-3, 3), rng.randint(-3, 3), rng.choice((0, 1))
        normal = tuple(u * x + v * y + w * rng.randint(-3, 3) for x, y in zip(a, b))
        if not any(normal):
            continue
        chain = GreatSubsphere(cycle.ambient, (normal,))
        expected = _outcome(linking_number_by_images, cycle, e, chain)
        assert _outcome(linking_number, cycle, e, chain) == expected, (cycle, e, chain)
        messages.add(expected if type(expected) is str else "value")
    assert {"value", "ValueError: the hyperplane must contain the center"} <= messages
    wrong = [(square_cycle(Fraction(1, 4)), GreatSubsphere(2, ((0, 1, 0),)), l),
             (square_cycle(Fraction(1, 4)), e, GreatSubsphere(2, ((0, 0, 1), (0, 1, 0)))),
             (square_cycle(Fraction(1, 4)), e, GreatSubsphere(3, ((0, 0, 1, 0),))),
             (square_cycle(Fraction(1, 4)), GreatSubsphere(3, ((0, 0, 1, 0), (0, 0, 0, 1))), l)]
    for args in wrong:
        assert _outcome(linking_number, *args) == _outcome(linking_number_by_images, *args)
        assert _outcome(linking_number, *args).startswith("ValueError: ")


def test_linking_number_reads_the_side_only_at_crossings(monkeypatch):
    """On an oval around the center, an oval beside it and a pseudoline, each
    refined to 256 vertices and turned by a rational rotation, `dot` is
    called exactly twice per crossing of L, each time with a cycle vertex
    (or the antipode closing it), and never once per vertex."""
    rng = random.Random(256)
    e, l = chart_origin(), chart_axis()
    calls = []

    def counted(u, v):
        calls.append(u)
        return dot(u, v)

    monkeypatch.setattr(topology, "dot", counted)
    shapes = ((square_cycle(Fraction(1, 4)), 6, 2), (square_cycle(Fraction(1, 4), shift=2), 6, 0),
              (pseudoline_cycle(), 7, 1))
    for cycle, refinements, expected in shapes:
        for _ in range(refinements):
            cycle = refine_cycle(cycle)
        rot = cayley_rotation(rng, 3)
        cycle, center, chain = rotate_cycle(rot, cycle), rotate_subspace(rot, e), rotate_subspace(rot, l)
        points = cycle.points
        alphas = [dot(p, chain.normals[0]) for p in points]
        closing = alphas[0] if cycle.closure == "sphere" else -alphas[0]
        crossings = sum((a > 0) != (b > 0) for a, b in zip(alphas, alphas[1:] + [closing]))
        vertices = set(points) | {neg(p) for p in points}
        calls.clear()
        assert abs(linking_number(cycle, center, chain)) == expected
        assert len(points) == 256 and crossings >= 1
        assert len(calls) == 2 * crossings and all(u in vertices for u in calls)


def test_linking_number_matches_the_oracle_on_workload_shaped_cycles():
    """Cycles shaped like the benchmark's: in RP^2 ovals around and beside
    the center [1:0:0] and a pseudoline, in RP^3 a ring around the center
    line and a projective line, each refined to 256 vertices, turned by
    Cayley rotations and closed both to its first vertex and to its
    antipode.  The value equals the image oracle's and, on the cycle's own
    closure, the expected |lk|.  Planted at the first, a middle and the
    last index, a vertex on L, a vertex on the center, a vertex on L before
    one on the center, and a segment through the center (for the last
    index, the closing segment) give the same message, with that index,
    from both."""
    rng = random.Random(29)
    q = Fraction(1, 4)
    plane = (chart_origin(), chart_axis(), (1, 0, 0), (1, 1, 0))  # center, L, on the center, on L only
    space = (GreatSubsphere(3, ((0, 0, 1, 0), (0, 0, 0, 1))), GreatSubsphere(3, ((0, 0, 1, 2),)),
             (1, 1, 0, 0), (0, 1, 2, -1))
    shapes = (
        (square_cycle(q), plane, 2),
        (square_cycle(q, shift=2), plane, 0),
        (pseudoline_cycle(), plane, 1),
        (PLCycle(3, "sphere", ((1, 0, q, q), (1, 0, -q, q), (1, 0, -q, -q), (1, 0, q, -q))), space, 2),
        (PLCycle(3, "antipode", ((0, 0, 1, 1), (0, 0, -1, 1))), space, 1),
    )
    values = {}
    for base, (center, chain, on_center, on_l), expected in shapes:
        checked = 0
        while checked < 4:
            cycle = base
            while len(cycle.points) < 256:
                cycle = refine_cycle(cycle, weight=rng.randint(2, 3))
            rot = cayley_rotation(rng, base.ambient + 1)
            cycle, e, l = rotate_cycle(rot, cycle), rotate_subspace(rot, center), rotate_subspace(rot, chain)
            outcome = _outcome(linking_number, cycle, e, l)
            assert outcome == _outcome(linking_number_by_images, cycle, e, l)
            if type(outcome) is not int:
                continue  # a refined vertex landed on L
            assert abs(outcome) == expected
            checked += 1
            z, w = rotate_vector(rot, on_center), rotate_vector(rot, on_l)
            points, last = list(cycle.points), len(cycle.points) - 1
            for closure in ("sphere", "antipode"):
                values.setdefault((base.ambient, closure), set()).add(
                    _outcome(linking_number, PLCycle(base.ambient, closure, points), e, l))
                for k in (0, rng.randrange(1, last), last):
                    m = rng.randint(1, 3)
                    through = [m * a - b for a, b in zip(z, points[k])]  # with points[k], sums to m z
                    plants = [
                        ({k: w}, f"cycle vertex {k} lies on the hyperplane"),
                        ({k: neg(z)}, f"cycle vertex {k} lies on the center"),
                        ({k: z, rng.randrange(k) if k else last: w}, f"cycle vertex {k} lies on the center"),
                        ({k + 1: through} if k < last else {0: through if closure == "sphere" else neg(through)},
                         f"segment {k} crosses the center"),
                    ]
                    for changes, message in plants:
                        planted = PLCycle(base.ambient, closure, [changes.get(i, p) for i, p in enumerate(points)])
                        got = _outcome(linking_number, planted, e, l)
                        assert got == _outcome(linking_number_by_images, planted, e, l) == f"ValueError: perturb input: {message}"
    assert all(all(type(v) is int for v in found) for found in values.values())
    assert set(values) == {(a, c) for a in (2, 3) for c in ("sphere", "antipode")}


def test_cycle_validation():
    with pytest.raises(ValueError):
        PLCycle(2, "sphere", ((1, 0, 0), (-1, 0, 0)))  # antipodal consecutive points
    with pytest.raises(ValueError, match="consecutive points 0, 1 are antipodal"):
        PLCycle(2, "sphere", ((1, 2, 0), (Fraction(-1, 2), -1, 0)))
    with pytest.raises(ValueError, match="closing segment joins antipodal points"):
        PLCycle(2, "sphere", ((2, 0, 4), (0, 1, 0), (Fraction(-1, 3), 0, Fraction(-2, 3))))
    with pytest.raises(ValueError, match="antipodal closure needs last point distinct"):
        PLCycle(2, "antipode", ((2, 0, 4), (0, 1, 0), (Fraction(1, 3), 0, Fraction(2, 3))))
    with pytest.raises(ValueError):
        PLCycle(2, "antipode", ((1, 0, 0), (2, 0, 0)))  # closure joins antipodes
    with pytest.raises(ValueError):
        PLCycle(2, "sphere", ((0, 0, 0), (1, 0, 0)))  # zero vector
    with pytest.raises(ValueError):
        PLCycle(4, "sphere", ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))  # ambient too large


def test_subspace_validation():
    with pytest.raises(ValueError):
        GreatSubsphere(2, ((0, 1, 0), (0, 2, 0)))  # dependent normals
    with pytest.raises(ValueError, match="linearly independent"):
        GreatSubsphere(2, ((0, Fraction(1, 3), Fraction(1, 2)), (0, 2, 3)))
    with pytest.raises(ValueError, match="linearly independent"):
        GreatSubsphere(3, ((1, 2, 3, 4), (2, 4, 6, 9), (3, 6, 9, 13)))  # third = first + second
    GreatSubsphere(3, ((1, 2, 3, 4), (2, 4, 6, 9), (3, 6, 10, 13)))
    sub = GreatSubsphere(2, ((0, Fraction(2, 3), Fraction(-4, 3)), (Fraction(1, 2), 0, 0)))
    assert sub.normals == ((0, 1, -2), (1, 0, 0))  # primitive integer vectors, same rays
    e = chart_origin()
    with pytest.raises(ValueError):  # hyperplane missing the center
        linking_number(square_cycle(Fraction(1, 4)), e, GreatSubsphere(2, ((1, 0, 0),)))


def test_independent_matches_sympy_rank():
    """One to three small rational vectors in Q^3 and Q^4, with zero vectors,
    repeats and dependent triples u, v, a u + b v among them: some k x k
    minor of k vectors is nonzero exactly when sympy's exact rank is full."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20254)

    def vector(n):
        if rng.random() < 0.1:
            return (0,) * n
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))

    seen = set()
    for _ in range(600):
        n, k = rng.choice((3, 4)), rng.randint(1, 3)
        vectors = [vector(n) for _ in range(k)]
        if k == 3 and rng.random() < 0.3:
            a, b = Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-2, 2)
            vectors[2] = tuple(a * x + b * y for x, y in zip(vectors[0], vectors[1]))
        elif k > 1 and rng.random() < 0.1:
            vectors[-1] = vectors[0]
        full = sympy.Matrix(vectors).rank() == k
        assert topology._independent(vectors) == full, vectors
        seen.add((k, full, any(not any(v) for v in vectors)))
    assert {(k, full) for k, full, _ in seen} == {(k, full) for k in (1, 2, 3) for full in (True, False)}
    assert (3, False, False) in seen and (1, False, True) in seen


def test_hypersurface_spec_is_an_immutable_value():
    assert_value_semantics(sphere_quadric, ("degree", "terms"), empty_quadric())
    halves = HypersurfaceSpec(2, tuple((e, Fraction(c, 2)) for e, c in sphere_quadric().terms))
    assert halves == sphere_quadric()  # stored as coprime integers


def test_great_subsphere_is_an_immutable_value():
    assert_value_semantics(chart_origin, ("ambient", "normals"), GreatSubsphere(2, ((0, 1, 0), (0, 1, 1))))
    assert GreatSubsphere(2, ((0, 2, 0), (0, 0, Fraction(1, 3)))) == chart_origin()  # same rays


def test_pl_cycle_is_an_immutable_value():
    assert_value_semantics(lambda: square_cycle(1), ("ambient", "closure", "points"), square_cycle(2))
    flipped = PLCycle(2, "antipode", square_cycle(1).points)
    assert flipped != square_cycle(1) and flipped.points == square_cycle(1).points
