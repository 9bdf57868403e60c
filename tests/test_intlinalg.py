import gc
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from realdp import intlinalg
from realdp.intlinalg import _bareiss, enumerate_quadratic, fincke_pohst

from oracles import (
    enumerate_quadratic_over_q,
    hnf,
    kernel_basis,
    ldl,
    mat_inverse,
    mat_mul,
    mat_vec,
    signature,
    smith_normal_form,
    xgcd,
)


def test_xgcd():
    for a, b in [(12, 18), (-12, 18), (0, 5), (7, 0), (0, 0), (270, -192)]:
        g, x, y = xgcd(a, b)
        assert g >= 0
        assert x * a + y * b == g
        if a or b:
            assert a % g == 0 and b % g == 0


def test_hnf_canonical_for_equal_lattices():
    basis1 = [[2, 0], [0, 3]]
    basis2 = [[2, 3], [4, 3]]  # same lattice, different generators
    assert hnf(basis1) == hnf(basis2)
    assert hnf([[0, 0], [1, 5]]) == [[1, 5]]


def test_hnf_reduces_above_pivot():
    h = hnf([[1, 7], [0, 3]])
    assert h == [[1, 1], [0, 3]]


def test_kernel_basis():
    m = [[1, 2, 3], [2, 4, 6]]
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(row[i] * v[i] for i in range(3)) == 0 for row in m)
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_is_saturated():
    # v and 2v in the kernel force v in the kernel basis span with index one
    m = [[1, -1, 0]]
    ker = kernel_basis(m)
    assert smith_normal_form(ker) == [1, 1]


def test_smith_normal_form():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1]
    d = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    for a, b in zip(d, d[1:]):
        assert b % a == 0


def test_signature():
    assert signature([[1, 0], [0, -1]]) == (1, 1, 0)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)  # hyperbolic plane
    assert signature([[2]]) == (1, 0, 0)
    assert signature([[0, -2], [-2, 2]]) == (1, 1, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0, 2)
    assert signature([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == (1, 1, 1)


def test_signature_congruence_invariance():
    # the signature is invariant under unimodular change of basis U^T g U
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(5):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                m = rng.randint(-2, 2)
                for row in u:
                    row[j] += m * row[i]
        ut = [list(r) for r in zip(*u)]
        conjugated = mat_mul(mat_mul(ut, g), u)
        assert signature(conjugated) == signature(g)


def test_ldl_positive_definite():
    diag, lower = ldl([[4, 2], [2, 3]])
    assert diag == [4, Fraction(2)]
    assert lower[1][0] == Fraction(1, 2)
    with pytest.raises(ValueError):
        ldl([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        ldl([[0, 1], [1, 0]])


def brute_quadratic(a, bound, radius):
    n = len(a)
    out = []
    def q(v):
        return sum(v[i] * a[i][j] * v[j] for i in range(n) for j in range(n))
    import itertools
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if q(v) <= bound:
            out.append(v)
    return sorted(out)


def test_enumerate_quadratic_matches_brute_force():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4)
        # random positive definite integer matrix B^T B + I
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        a = mat_mul([list(r) for r in zip(*b)], b)
        for i in range(n):
            a[i][i] += 1
        bound = rng.randint(0, 12)
        got = sorted(enumerate_quadratic(fincke_pohst(a), bound))
        assert got == brute_quadratic(a, bound, bound + 2)


def test_enumerate_quadratic_includes_boundary():
    form = fincke_pohst([[1]])
    assert sorted(enumerate_quadratic(form, 4)) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert enumerate_quadratic(form, -1) == []
    with pytest.raises(ValueError):  # the set-up takes no bound: it always factorises
        fincke_pohst([[1, 0], [0, -1]])


def seeded_positive_definite_forms(seed, count):
    """B^T B + diag(1..4) for an n x n matrix B, n in 1..6, with entries up
    to 1, 3 or 9; each form comes with a bound in -1..40."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        amp = rng.choice((1, 3, 9))
        b = [[rng.randint(-amp, amp) for _ in range(n)] for _ in range(n)]
        a = mat_mul([list(r) for r in zip(*b)], b)
        for i in range(n):
            a[i][i] += rng.randint(1, 4)
        yield a, rng.randint(-1, 40)


def deep_positive_definite_forms(seed, count):
    """B^T B + diag(1..3) for an n x n matrix B with entries in -1..1, n
    cycling through 7..10, deeper than the catalogue's rank of at most 9;
    each form comes with a bound in 6..12."""
    rng = random.Random(seed)
    for i in range(count):
        n = 7 + i % 4
        b = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
        a = mat_mul([list(r) for r in zip(*b)], b)
        for j in range(n):
            a[j][j] += rng.randint(1, 3)
        yield a, rng.randint(6, 12)


def catalogue_forms(monkeypatch):
    """Q and bound of the (-1)-class window {c.c = -1, c.K = -1} of the
    complex lattice of each of the 19 models, which the oracle
    `minus_one_classes_by_enumeration` walks, and of every
    `enumerate_classes` call that searching each model makes: its stored
    search window."""
    from realdp import lattice, search as search_module
    from realdp.catalog import SURFACE_NAMES, builtin
    from realdp.lattice import class_window
    from realdp.search import search

    calls = []

    def record(window, enumerate_classes=lattice.enumerate_classes):
        calls.append((window.quad, window.bound))
        return enumerate_classes(window)

    models = [builtin(name) for name in SURFACE_NAMES]
    monkeypatch.setattr(search_module, "enumerate_classes", record)
    for model in models:
        window = class_window(model.complex_lattice, model.complex_canonical, -1, -1, -1)
        calls.append((window.quad, window.bound))
        search(model)
    monkeypatch.undo()
    return calls


def test_enumerate_quadratic_matches_rational_oracle(monkeypatch):
    forms = list(seeded_positive_definite_forms(29, 300))
    catalogue = catalogue_forms(monkeypatch)
    assert len(catalogue) == 2 * 19
    deep = list(deep_positive_definite_forms(43, 10))
    for a, bound in forms + catalogue + deep:
        assert sorted(enumerate_quadratic(fincke_pohst(a), bound)) == sorted(enumerate_quadratic_over_q(a, bound)), (a, bound)


def test_bareiss_minors_are_products_of_ldl_pivots():
    """The pivots of `_bareiss`, and the minors `fincke_pohst` stores, are the
    leading principal minors: the products of the LDL^T pivots of the oracle.
    Each stored weight times its two minors is the stored scale."""
    rng = random.Random(37)
    symmetric = []  # mostly indefinite: both certificates must refuse them
    for _ in range(200):
        n = rng.randint(1, 5)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                a[i][j] = a[j][i] = rng.randint(-3, 5)
        symmetric.append(a)
    for a in [a for a, _ in seeded_positive_definite_forms(31, 100)] + symmetric:
        try:
            diag, _ = ldl(a)
        except ValueError:
            with pytest.raises(ValueError, match="not positive definite"):
                _bareiss(a)
            with pytest.raises(ValueError, match="not positive definite"):
                fincke_pohst(a)
            continue
        rows = _bareiss(a)
        minors = list(itertools.accumulate(diag, operator.mul))
        assert [rows[k][k] for k in range(len(a))] == minors
        form = fincke_pohst(a)
        assert form.rows == tuple(map(tuple, rows)) and list(form.minors) == minors
        assert [w * d * e for w, d, e in zip(form.weights, [1] + minors, minors)] == [form.scale] * len(a)
        assert math.gcd(*form.weights) == 1  # the scale is the least common multiple


def test_enumerate_quadratic_leaves_no_garbage():
    """The search holds no reference cycle, so its results are freed as soon
    as the caller drops them, without waiting for a full collection."""
    gc.collect()
    gc.disable()
    try:
        for a, bound in seeded_positive_definite_forms(41, 20):
            enumerate_quadratic(fincke_pohst(a), bound)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mat_vec_matches_double_loop():
    """`intlinalg.mat_vec` equals the double loop of its definition on
    rectangular matrices up to 9 x 9 of small ints, 300-bit ints and
    Fractions, and on every catalogue embedding with random real classes."""
    from realdp.catalog import SURFACE_NAMES, builtin

    rng = random.Random(40)
    draws = [
        lambda: rng.randint(-9, 9),
        lambda: rng.randint(-(2**300), 2**300),
        lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
    ]
    for draw in draws:
        for rows, cols in itertools.product(range(1, 10), repeat=2):
            a = tuple(tuple(draw() for _ in range(cols)) for _ in range(rows))
            v = tuple(draw() for _ in range(cols))
            assert intlinalg.mat_vec(a, v) == mat_vec(a, v)
    for name in SURFACE_NAMES:
        embedding = builtin(name).embedding
        for _ in range(20):
            v = tuple(rng.randint(-30, 30) for _ in embedding[0])
            assert intlinalg.mat_vec(embedding, v) == mat_vec(embedding, v)


def test_mat_inverse():
    m = [[1, 2], [3, 5]]
    inv = mat_inverse(m)
    assert mat_mul(m, inv) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        mat_inverse([[1, 2], [2, 4]])


def test_determinant_matches_leibniz_formula():
    rng = random.Random(17)
    for n in range(6):
        for _ in range(20):
            a = tuple(tuple(rng.choice((0, rng.randint(-9, 9))) for _ in range(n)) for _ in range(n))
            leibniz = sum(
                (-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2))
                * math.prod(a[i][p[i]] for i in range(n))
                for p in itertools.permutations(range(n))
            )
            assert intlinalg.determinant(a) == leibniz, a


def test_primitive_vector_is_the_coprime_positive_multiple():
    """On seeded int, Fraction and mixed vectors, with zero entries, both
    signs and parts up to 30 digits, `primitive_vector` returns coprime
    integers r v for one rational r > 0.  100 coefficients with distinct
    1,000-digit denominators clear in under 2 s (about 4 s when the gcd ran
    over the cleared integers): their multiple is lcm(d) / d_i each."""
    rng = random.Random(36)

    def part():
        return rng.choice((0, 1, rng.randint(-99, 99), rng.randint(-10**30, 10**30)))

    def rational(kind):
        if kind == "int" or kind == "mixed" and rng.random() < 0.5:
            return part()
        return Fraction(part(), rng.choice((1, rng.randint(1, 99), rng.randint(1, 10**30))))

    for _ in range(2000):
        kind = rng.choice(("int", "fraction", "mixed"))
        values = [rational(kind) for _ in range(rng.randint(1, 6))]
        if not any(values):
            continue
        got = intlinalg.primitive_vector(values)
        assert all(type(c) is int for c in got) and math.gcd(*got) == 1, values
        r = next(Fraction(c) / v for c, v in zip(got, values) if v)
        assert r > 0 and list(got) == [r * v for v in values], values

    dens = [rng.randrange(10**999, 10**1000) for _ in range(100)]
    start = time.perf_counter()
    got = intlinalg.primitive_vector([Fraction(1, d) for d in dens])
    assert time.perf_counter() - start < 2
    assert len({c * d for c, d in zip(got, dens)}) == 1 and got[0] > 0


def test_coordinate_window_is_exact():
    from oracles import _coordinate_window

    rng = random.Random(13)
    for _ in range(300):
        center = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        radius_sq = Fraction(rng.randint(0, 900), rng.randint(1, 7))
        lo, hi = _coordinate_window(center, radius_sq)
        expected = [m for m in range(-60, 61) if (m + center) ** 2 <= radius_sq]
        got = [m for m in range(lo, hi + 1)]
        assert got == expected
