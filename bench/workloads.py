"""The three benchmark workloads.

Each workload draws its inputs from a `random.Random` seeded with the
workload name and the run seed, so the same seed gives the same inputs.
Operations come in a fixed cycle of kinds; the seed only chooses the concrete
inputs of each kind.  A fixed mix keeps the cost of a run steady from seed to
seed, and keeps the medians and p90 inside one kind of operation instead of on
the border between two kinds.

An operation is built outside the timed region: `next_op` returns its kind,
a function that makes the realdp calls, a checker, and a summary used for the
answer digest.  Every realdp function is looked up on its module at call
time, so the tracer's wrappers see the call.

Nothing here imports realdp: the caller passes the imported modules in, so a
cold start can time `import realdp` on its own.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import reference as ref


class Realdp:
    """The imported realdp modules.  They come from sys.modules because the
    package attribute `realdp.search` is the `search` function, not the
    module.  `cli` is present only when `realdp.cli` was imported."""

    def __init__(self):
        for name in ("intlinalg", "lattice", "catalog", "search", "conic", "realroots", "topology", "cli"):
            if f"realdp.{name}" in sys.modules:
                setattr(self, name, sys.modules[f"realdp.{name}"])


class Op:
    __slots__ = ("kind", "call", "check", "summary")

    def __init__(self, kind, call, check, summary):
        self.kind, self.call, self.check, self.summary = kind, call, check, summary


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


class _RoundRobin:
    """Cycles through a seeded permutation, so every item gets the same share."""

    def __init__(self, rng, items):
        self.items = _shuffled(rng, items)
        self.index = 0

    def next(self):
        item = self.items[self.index % len(self.items)]
        self.index += 1
        return item


# ---------------------------------------------------------------------------
# classify: the Table 1 pipeline


class Classify:
    """Divisor queries over the 19 catalogue models.

    Seven of ten operations are `check_conditions` on a class drawn from the
    box [-BOX, BOX]^rank; one is `check_conditions` on a Table 1 divisor, so
    the pass path (genus, l(D), very-ampleness) runs; two are `search(model)`,
    the enumerate path, which is 20% of the operations so p90 falls in the
    middle of the search latencies.  Models are taken round robin.
    """

    name = "classify"
    CYCLE = ("box", "box", "box", "search", "box", "table", "box", "box", "search", "box")
    BOX = 3
    TRACE_CYCLES_PER_S = 12.0

    def __init__(self, R, seed):
        self.R = R
        self.rng = random.Random(f"classify:{seed}")
        names = R.catalog.SURFACE_NAMES
        self.box_models = _RoundRobin(self.rng, names)
        self.search_models = _RoundRobin(self.rng, names)
        self.table_rows = _RoundRobin(
            self.rng, [(row[0], d[0]) for row in ref.TABLE1 for d in row[5]])
        self.models = None
        self.count = 0

    def setup(self):
        builtin = self.R.catalog.builtin
        self.models = {name: builtin(name) for name in self.R.catalog.SURFACE_NAMES}

    def setup_problems(self):
        problems = []
        if tuple(self.models) != tuple(row[0] for row in ref.TABLE1):
            problems.append("catalogue order differs from Table 1")
        for name, degree, s, r, basis, _ in ref.TABLE1:
            model = self.models[name]
            if (model.degree, model.s, model.r) != (degree, s, r):
                problems.append(f"{name}: degree/s/r differ from Table 1")
            if model.real_lattice.basis_labels != basis:
                problems.append(f"{name}: basis {model.real_lattice.basis_labels} is not {basis}")
            if len(model.minus_one_classes) != ref.MINUS_ONE_COUNTS[degree]:
                problems.append(f"{name}: {len(model.minus_one_classes)} (-1)-classes, "
                                f"expected {ref.MINUS_ONE_COUNTS[degree]}")
        return problems

    def next_op(self):
        kind = self.CYCLE[self.count % len(self.CYCLE)]
        self.count += 1
        if kind == "search":
            return self._search_op(self.search_models.next())
        if kind == "table":
            name, coeffs = self.table_rows.next()
        else:
            name = self.box_models.next()
            rank = self.models[name].real_lattice.rank
            coeffs = tuple(self.rng.randint(-self.BOX, self.BOX) for _ in range(rank))
        return self._check_op(kind, name, coeffs)

    def _check_op(self, kind, name, coeffs):
        R, model = self.R, self.models[name]
        d = model.real_lattice.vector(coeffs)
        _, _, s, r, _, _ = ref.SURFACES[name]
        divisors = ref.table1_divisors(name)

        def check(rep):
            own = ref.conditions_c2_c4(model.real_lattice.gram, model.canonical.coeffs, s, r, coeffs)
            if not rep.c1 or (rep.c2, rep.c3, rep.c4) != own:
                return f"{name} {coeffs}: c1..c4 {rep.c1, rep.c2, rep.c3, rep.c4}, expected (True, {own})"
            if rep.passed != (coeffs in divisors):
                return f"{name} {coeffs}: passed={rep.passed}, Table 1 says {coeffs in divisors}"
            if rep.passed:
                _, ell, genus, very_ample = divisors[coeffs]
                got = (rep.ell, rep.genus, "yes" if rep.very_ample else "no")
                if got != (ell, genus, very_ample):
                    return f"{name} {coeffs}: (l, g, very ample) {got}, expected {(ell, genus, very_ample)}"
            elif (rep.ell, rep.genus, rep.very_ample) != (None, None, None):
                return f"{name} {coeffs}: invariants set on a failing class"
            return None

        def summary(rep):
            return f"{name}:{coeffs}:{rep}"

        return Op(kind, lambda: R.search.check_conditions(model, d), check, summary)

    def _search_op(self, name):
        R, model = self.R, self.models[name]
        expected = sorted(ref.table1_divisors(name))

        def check(found):
            got = [v.coeffs for v in found]
            return None if got == expected else f"search({name}) gave {got}, expected {expected}"

        def summary(found):
            return f"{name}:{[v.coeffs for v in found]}"

        return Op("search", lambda: R.search.search(model), check, summary)

    @staticmethod
    def cli_case(workdir):
        return ["table1", "--format", "json"]

    @staticmethod
    def cli_problems(code, payload):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        return ref.check_table1_json(payload)


# ---------------------------------------------------------------------------
# hyperbolicity: Sturm-certified line sampling and PL linking numbers


def _sphere(radius):
    return {(0, 2, 0, 0): Fraction(1), (0, 0, 2, 0): Fraction(1), (0, 0, 0, 2): Fraction(1),
            (2, 0, 0, 0): -radius * radius}


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def nested_spheres_terms(radii):
    """Terms of the product of the sphere quadrics with the given radii."""
    poly = {(0, 0, 0, 0): Fraction(1)}
    for radius in radii:
        poly = _poly_mul(poly, _sphere(Fraction(radius)))
    return tuple((e, c) for e, c in sorted(poly.items()) if c)


def _cayley_rotation(rng):
    """Rational rotation (I - S)(I + S)^-1 of R^3 for a random skew S."""
    a, b, c = (Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for _ in range(3))
    # S = [[0, a, b], [-a, 0, c], [-b, -c, 0]]; closed form of the Cayley transform.
    n = 1 + a * a + b * b + c * c
    return (
        ((1 - a * a - b * b + c * c) / n, (-2 * a - 2 * b * c) / n, (-2 * b + 2 * a * c) / n),
        ((2 * a - 2 * b * c) / n, (1 - a * a + b * b - c * c) / n, (-2 * c - 2 * a * b) / n),
        ((2 * b + 2 * a * c) / n, (2 * c - 2 * a * b) / n, (1 + a * a - b * b - c * c) / n),
    )


def _rotate(rot, v):
    return tuple(sum(r * x for r, x in zip(row, v)) for row in rot)


class Hyperbolicity:
    """`hyperbolicity_check` on products of nested sphere quadrics, and
    `linking_number` on PL ovals and pseudolines.

    Per cycle of ten: seven checks with the centre inside the innermost
    sphere (three quadrics, two quartics, two sextics; every trial runs and
    the answer is "supported"), one with the centre far outside all spheres
    (an early exact refutation), and two linking numbers.  The sextics are
    20% of the operations, so p90 falls in the middle of their latencies.
    """

    name = "hyperbolicity"
    CYCLE = ("inside2", "inside4", "inside6", "link", "inside2",
             "outside", "inside4", "inside6", "link", "inside2")
    TRIALS = 16
    REFINEMENTS = 5  # an 8-gon refined five times has 256 vertices
    TRACE_CYCLES_PER_S = 0.5

    def __init__(self, R, seed):
        self.R = R
        self.rng = random.Random(f"hyperbolicity:{seed}")
        self.outside_degrees = _RoundRobin(self.rng, (2, 4, 6))
        self.link_kinds = _RoundRobin(self.rng, ("around", "off", "pseudoline"))
        self.count = 0
        # The centre [1:0:0] of RP^2 and the line x2 = 0 through it.
        self.center_normals = ((0, 1, 0), (0, 0, 1))
        self.chain_normal = (0, 0, 1)

    def setup(self):
        pass

    def setup_problems(self):
        return []

    def next_op(self):
        kind = self.CYCLE[self.count % len(self.CYCLE)]
        self.count += 1
        if kind == "link":
            return self._link_op(self.link_kinds.next())
        if kind == "outside":
            return self._check_op(kind, self.outside_degrees.next() // 2, inside=False)
        return self._check_op(kind, int(kind[-1]) // 2, inside=True)

    def _radii(self, count):
        """Increasing radii with denominator 4 and odd numerators, so that
        the size of the coefficients, and with it the cost of a check, is
        about the same for every seed."""
        rng = self.rng
        radii = [Fraction(rng.choice((5, 7, 9, 11)), 4)]
        while len(radii) < count:
            radii.append(radii[-1] + rng.randint(1, 3))
        return radii

    def _check_op(self, kind, count, inside):
        R, rng = self.R, self.rng
        radii = self._radii(count)
        if inside:
            # |c|^2 <= 3 * (9/20)^2 * r1^2 < r1^2
            center = tuple(radii[0] * Fraction(rng.randint(-9, 9), 20) for _ in range(3))
        else:
            far = 20 * radii[-1]
            center = (far * rng.randint(1, 2), far * Fraction(rng.randint(-5, 5), 5), far * Fraction(rng.randint(-5, 5), 5))
        e = (Fraction(1),) + center
        spec = R.topology.HypersurfaceSpec(2 * count, nested_spheres_terms(radii))
        op_seed = rng.getrandbits(32)
        trials = self.TRIALS

        def check(v):
            if inside:
                if v.refuted or v.trials != trials or v.boundary_contacts != 0:
                    return f"{kind} {radii}: expected support over {trials} trials, got {v}"
                return None
            if not v.refuted or v.witness is None or not 1 <= v.trial <= trials:
                return f"{kind} {radii}: expected a refutation, got {v}"
            if not any(ref.sphere_restriction_discriminant(r, v.witness, e) < 0 for r in radii):
                return f"{kind} {radii}: witness {v.witness} meets every sphere in real points"
            return None

        def summary(v):
            return f"{v.refuted}:{v.trial}:{v.trials}:{v.boundary_contacts}:{v.witness}"

        return Op(kind, lambda: R.topology.hyperbolicity_check(spec, e, trials, op_seed), check, summary)

    def _oval(self):
        """8 rational points on a circle of radius rho around the chart
        origin, as rays (1, x, y), in angular order with gaps below pi."""
        rng = self.rng
        rho = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        # t = tan(theta / 2), one value in each of eight sectors of (-4, 4), never 0.
        ts = [Fraction(4 * (2 * k - 7) + rng.choice((-1, 1)) * rng.randint(1, 3), 8) for k in range(8)]
        return [(Fraction(1), rho * (1 - t * t) / (1 + t * t), rho * 2 * t / (1 + t * t)) for t in ts], rho

    def _pseudoline(self):
        """Two rays joined through the antipode of the first, drawn until no
        segment crosses the chain line x2 = 0 at the centre [1:0:0]."""
        rng = self.rng
        while True:
            p = (Fraction(1), Fraction(rng.randint(-9, 9), 7), Fraction(rng.randint(1, 9), 7))
            q = (Fraction(rng.randint(-9, 9), 5), Fraction(1), -Fraction(rng.randint(1, 9), 5))
            minus_p = tuple(-x for x in p)
            if all(a[2] * b[1] - b[2] * a[1] != 0 for a, b in ((p, q), (q, minus_p))):
                return [p, q]

    def _refine(self, points, closed_by_antipode):
        """Insert w*p + q on every segment, REFINEMENTS times.  New vertices
        lie on the old segments, so the curve and its linking number stay."""
        rng = self.rng
        for _ in range(self.REFINEMENTS):
            out = []
            for i, p in enumerate(points):
                if i + 1 < len(points):
                    q = points[i + 1]
                else:
                    q = tuple(-x for x in points[0]) if closed_by_antipode else points[0]
                out.append(p)
                w = rng.randint(1, 3)
                while w * p[2] + q[2] == 0:  # keep vertices off the chain line x2 = 0
                    w += 1
                out.append(tuple(w * a + b for a, b in zip(p, q)))
            points = out
        return points

    def _link_op(self, kind):
        R, rng = self.R, self.rng
        if kind == "pseudoline":
            points, closure, expected = self._refine(self._pseudoline(), True), "antipode", 1
        else:
            oval, rho = self._oval()
            expected = 2
            if kind == "off":
                shift = rho * Fraction(rng.randint(3, 6), 2)
                oval = [(a, b + shift, c) for a, b, c in oval]
                expected = 0
            points, closure = self._refine(oval, False), "sphere"
        # Rotating the cycle, the centre and the chain together keeps every
        # dot product, so the rotated input is as transversal as the original.
        rot = _cayley_rotation(rng)
        topo = R.topology
        cycle = topo.PLCycle(2, closure, tuple(_rotate(rot, p) for p in points))
        center = topo.GreatSubsphere(2, tuple(_rotate(rot, n) for n in self.center_normals))
        chain = topo.GreatSubsphere(2, (_rotate(rot, self.chain_normal),))

        def check(value):
            return None if abs(value) == expected else f"{kind}: |lk| = {abs(value)}, expected {expected}"

        return Op("link", lambda: R.topology.linking_number(cycle, center, chain), check, str)

    @staticmethod
    def cli_case(workdir):
        path = workdir / "quartic.json"
        terms = [{"exponents": list(e), "coeff": str(c)} for e, c in nested_spheres_terms((1, 2))]
        path.write_text(json.dumps({"degree": 4, "terms": terms}), encoding="utf-8")
        return ["hyp", str(path), "--point", "1,0,0,0", "--trials", "500", "--seed", "0", "--format", "json"]

    @staticmethod
    def cli_problems(code, payload):
        want = {"status": "supported", "trials": 500, "boundary_contacts": 0}
        got = {k: payload.get(k) for k in want}
        problems = [] if got == want else [f"hyp gave {got}, expected {want}"]
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        return problems


# ---------------------------------------------------------------------------
# conic_sections: discriminant, analyze and factored_str


def _rational_root_cost(coeffs):
    """Candidates x degree tried by the rational-root test on a primitive
    integer form; factored_str's time grows with it."""
    nonzero = [c for c in coeffs if c]
    return ref.num_divisors(nonzero[0]) * ref.num_divisors(nonzero[-1]) * len(coeffs)


class ConicSections:
    """The `conic discriminant` + `conic analyze` pipeline on seeded sections.

    Per cycle of five: one general symmetric matrix with coefficients in
    [-3, 3], three diagonal sections from `construct_section` of degree 8,
    and one of degree 12 whose 21-bit constant term makes factored_str's
    rational-root trial division take about half a second.  The degree-8
    sections are 60% of the operations and the degree-12 ones 20%, so p50 and
    p90 fall in the middle of each.

    Roots come from fixed pools of numerators (primes 2 and 3 only) and
    denominators (primes 5 and 7 only): every pairing is in lowest terms, so
    the constant and leading coefficients, and with them the number of
    rational-root candidates, are the same for every seed, and the cost of a
    run stays steady.  The seed picks the splitting, the pairing of
    numerators with denominators, the signs and the order.  A 61-bit
    constant term, where trial division does not finish, is left out: it
    would stall every run.
    """

    name = "conic_sections"
    CYCLE = ("general", "small", "small", "slow", "small")
    GENERAL_SPLITTINGS = ((0, 1, 1), (1, 1, 1), (0, 1, 2), (1, 1, 2))
    GENERAL_COST = 600  # keeps general sections below the degree-8 ones
    SMALL_SPLITTINGS = ((1, 1, 2),)
    SMALL_POOL = ((1, 1, 1, 2, 2, 2, 3, 3), (1, 1, 1, 1, 5, 5, 7, 7))  # 2^3 3^2 and 5^2 7^2
    SLOW_SPLITTINGS = ((2, 2, 2), (1, 2, 3), (1, 1, 4))
    SLOW_POOL = ((1, 1, 2, 2, 3, 3, 4, 4, 6, 6, 8, 9), (1, 1, 1, 1, 1, 5, 5, 5, 7, 7, 25, 49))  # 2^11 3^6 and 5^5 7^4
    TRACE_CYCLES_PER_S = 0.6
    # `factor_low_degree` in realdp.conic labels a u-power factor as v and a
    # v-power factor as u.  General sections whose discriminant vanishes at
    # u = 0 or v = 0 can hit it, so they are redrawn: the operations of a run
    # must not fail.  known_defect() renders this form on every run instead.
    DEFECT_FORM = (0, 0, -20, -20, 12)  # 4 u^2 (3u^2 - 5uv - 5v^2)

    def __init__(self, R, seed):
        self.R = R
        self.rng = random.Random(f"conic_sections:{seed}")
        self.general = _RoundRobin(self.rng, self.GENERAL_SPLITTINGS)
        self.small = _RoundRobin(self.rng, self.SMALL_SPLITTINGS)
        self.slow = _RoundRobin(self.rng, self.SLOW_SPLITTINGS)
        self.count = 0

    def setup(self):
        pass

    def setup_problems(self):
        return []

    def next_op(self):
        kind = self.CYCLE[self.count % len(self.CYCLE)]
        self.count += 1
        if kind == "general":
            return self._general_op()
        if kind == "small":
            return self._constructed_op(kind, self.small.next(), self.SMALL_POOL)
        return self._constructed_op(kind, self.slow.next(), self.SLOW_POOL)

    def _general_op(self):
        rng, conic = self.rng, self.R.conic
        a = self.general.next()
        while True:
            entries = [[None] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    entries[i][j] = entries[j][i] = [rng.randint(-3, 3) for _ in range(a[i] + a[j] + 1)]
            if not any(any(entries[i][j]) for i in range(3) for j in range(i + 1, 3)):
                continue  # diagonal: not a general section
            det = ref.det3_poly(entries)
            if det[0] and det[-1] and _rational_root_cost(det) <= self.GENERAL_COST:
                break
        matrix = conic.ConicMatrix(a, tuple(
            tuple(conic.BinaryForm(len(q) - 1, tuple(q)) for q in row) for row in entries))
        return self._op("general", matrix, entries, None)

    def _constructed_op(self, kind, split, pool):
        rng, conic = self.rng, self.R.conic
        numerators, denominators = pool
        while True:
            roots = [Fraction(rng.choice((-1, 1)) * p, q)
                     for p, q in zip(numerators, _shuffled(rng, denominators))]
            if len(set(roots)) == len(roots):
                break
        roots = _shuffled(rng, roots)
        lists, start = [], 0
        for a in split:
            lists.append(roots[start:start + 2 * a])
            start += 2 * a
        matrix = conic.construct_section(*split, lists)
        entries = [[list(q.coeffs) for q in row] for row in matrix.entries]
        return self._op(kind, matrix, entries, sum(split))

    def _op(self, kind, matrix, entries, spheres):
        R = self.R
        degree = 2 * sum(matrix.splitting)

        def call():
            disc = R.conic.discriminant(matrix)
            return disc, R.conic.analyze(matrix), R.conic.factored_str(disc)

        def check(answer):
            disc, fibers, rendered = answer
            if disc.degree != degree or not ref.determinant_matches(entries, degree, disc.coeffs):
                return f"{kind}: discriminant {disc.coeffs} is not the determinant"
            if not ref.rendering_matches(rendered, disc.coeffs):
                return f"{kind}: rendering {rendered!r} does not expand to the discriminant"
            if fibers.total_fibers != degree:
                return f"{kind}: {fibers.total_fibers} fibres, expected {degree}"
            if spheres is not None:
                want = (degree, degree, True, spheres, True, True)
                got = (fibers.total_fibers, fibers.real_fibers, fibers.squarefree, fibers.s,
                       fibers.smooth_necessary, fibers.smooth_exact)
                return None if got == want else f"{kind}: analysis {got}, expected {want}"
            if fibers.smooth_exact is not None:
                return f"{kind}: smooth_exact set on a non-diagonal section"
            if fibers.squarefree:
                real = fibers.real_fibers
                if real > degree or real % 2 or fibers.s != real // 2:
                    return f"{kind}: inconsistent analysis {fibers}"
            elif fibers.s is not None:
                return f"{kind}: s set on a non-squarefree discriminant"
            return None

        def summary(answer):
            disc, fibers, rendered = answer
            return f"{disc.coeffs}:{fibers}:{rendered}"

        return Op(kind, call, check, summary)

    def known_defect(self):
        """One line on the u/v label defect of factored_str, from DEFECT_FORM.
        It is not an operation of the run and is not counted in `failed`."""
        conic = self.R.conic
        rendered = conic.factored_str(conic.BinaryForm(len(self.DEFECT_FORM) - 1, self.DEFECT_FORM))
        if ref.rendering_matches(rendered, self.DEFECT_FORM):
            return f"factored_str u/v label defect fixed: 4*u^2*(3*u^2 - 5*u*v - 5*v^2) renders as {rendered!r}"
        return (f"KNOWN DEFECT (its inputs are left out of the operations): factored_str renders "
                f"4*u^2*(3*u^2 - 5*u*v - 5*v^2) as {rendered!r}; factor_low_degree swaps the u and v factors")

    @staticmethod
    def cli_case(workdir):
        # The worked degree-two section diag(uv, u^2 - v^2, u^2 - 4v^2).
        path = workdir / "worked.json"
        forms = ([0, 1, 0], [-1, 0, 1], [-4, 0, 1])
        entries = [[{"degree": 2, "coeffs": forms[i] if i == j else [0, 0, 0]} for j in range(3)]
                   for i in range(3)]
        path.write_text(json.dumps({"splitting": [1, 1, 1], "entries": entries}), encoding="utf-8")
        return ["conic", "analyze", str(path), "--format", "json"]

    @staticmethod
    def cli_problems(code, payload):
        want = {"total": 6, "real": 6, "s": 3, "squarefree": True}
        got = {k: payload.get(k) for k in want}
        problems = [] if got == want else [f"conic analyze gave {got}, expected {want}"]
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        return problems


WORKLOADS = {w.name: w for w in (Classify, Hyperbolicity, ConicSections)}
