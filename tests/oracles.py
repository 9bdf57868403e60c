"""Test-only oracles: brute-force counterparts of library routines.

Box enumeration checks the ellipsoid search of `realdp.search`, and the Smith
normal form checks primitivity and kernel saturation in the lattice tests.
The library itself never calls these.
"""

import itertools

from realdp.catalog import SurfaceModel
from realdp.intlinalg import xgcd
from realdp.search import check_conditions


def _box_vectors(model, radius):
    span = range(-radius, radius + 1)
    for coeffs in itertools.product(span, repeat=model.real_lattice.rank):
        yield model.real_lattice.vector(coeffs)


def self_intersection_candidates(model: SurfaceModel, radius=12):
    """Classes in a coefficient box with D.D = r + 2s (condition c2 alone).

    Plain box search; used as an independent oracle for the ellipsoid
    enumeration and to reproduce the intermediate candidate list of the
    worked degree-2 conic-bundle example.
    """
    target = model.r + 2 * model.s
    return [v for v in _box_vectors(model, radius) if v.dot(v) == target]


def brute_force_search(model: SurfaceModel, radius=12):
    """Oracle double-check of search(): box enumeration + condition filter.

    The self-intersection test (condition c2) runs first so the line pairings
    of c5 are only evaluated on the handful of survivors."""
    target = model.r + 2 * model.s
    return [
        v
        for v in _box_vectors(model, radius)
        if v.dot(v) == target and check_conditions(model, v).passed
    ]


def smith_normal_form(m):
    """Elementary divisors d1 | d2 | ... (nonnegative) of an integer matrix.

    Row and column clearing use plain elimination whenever the pivot divides
    the target (this never disturbs the cleared parts) and a unimodular gcd
    combination otherwise (this strictly shrinks |pivot|), so the alternation
    terminates.
    """
    a = [list(r) for r in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    divisors = []
    t = 0
    while t < min(nrows, ncols):
        piv = next(
            ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j]),
            None,
        )
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    if a[i][t] % a[t][t] == 0:
                        q = a[i][t] // a[t][t]
                        a[i] = [p - q * r for p, r in zip(a[i], a[t])]
                    else:
                        g, x, y = xgcd(a[t][t], a[i][t])
                        u, v = a[t][t] // g, a[i][t] // g
                        a[t], a[i] = (
                            [x * p + y * q for p, q in zip(a[t], a[i])],
                            [u * q - v * p for p, q in zip(a[t], a[i])],
                        )
            if any(a[t][j] for j in range(t + 1, ncols)):
                for j in range(t + 1, ncols):
                    if a[t][j]:
                        if a[t][j] % a[t][t] == 0:
                            q = a[t][j] // a[t][t]
                            for row in a:
                                row[j] -= q * row[t]
                        else:
                            g, x, y = xgcd(a[t][t], a[t][j])
                            u, v = a[t][t] // g, a[t][j] // g
                            for row in a:
                                row[t], row[j] = (
                                    x * row[t] + y * row[j],
                                    u * row[j] - v * row[t],
                                )
                continue  # column ops may have disturbed the pivot column
            if not any(a[i][t] for i in range(t + 1, nrows)):
                break
        # Enforce divisibility: the pivot must divide every remaining entry.
        offender = next(
            (
                (i, j)
                for i in range(t + 1, nrows)
                for j in range(t + 1, ncols)
                if a[i][j] % a[t][t]
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            a[t] = [p + q for p, q in zip(a[t], a[i])]
            continue
        divisors.append(abs(a[t][t]))
        t += 1
    return divisors
