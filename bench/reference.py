"""Reference answers the harness checks realdp against.

Nothing here imports realdp.  Table 1 and the (-1)-class counts are copied by
hand from the paper; the rest is arithmetic the harness does on its own:
intersection numbers from a Gram matrix, 3x3 determinants by the Leibniz
formula at sample points, per-sphere quadratic discriminants, divisor counts,
and a parser that expands a rendered binary form back into coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Table 1, row by row in catalogue order: (surface, degree, s, r, basis,
# divisors).  Each divisor is (coefficients in the documented basis order,
# rendered form, l(D), genus, very ample).  An empty list is a "---" row.
TABLE1 = (
    ("P2", 9, 0, 1, ("H",), [((1,), "H", 3, 0, "yes")]),
    ("Q31", 8, 1, 0, ("H",), [((1,), "H", 4, 0, "yes")]),
    ("P2_0_2", 7, 0, 1, ("H", "E1+E2"), []),
    ("Q31_0_2", 6, 1, 0, ("H", "E1+E2"), []),
    ("P2_0_4", 5, 0, 1, ("H", "E1+E2", "E3+E4"), []),
    ("Q31_0_4", 4, 1, 0, ("H", "E1+E2", "E3+E4"), []),
    ("D4", 4, 2, 0, ("F", "K"), [((0, -1), "-K", 5, 1, "yes")]),
    ("P2_0_6", 3, 0, 1, ("H", "E1+E2", "E3+E4", "E5+E6"), []),
    ("D4_1_0", 3, 1, 1, ("F", "K", "E6"), [((0, -1, 0), "-K", 4, 1, "yes")]),
    ("D4_2_0_11", 2, 0, 2, ("F", "K", "E6", "E7"), [((0, -1, 0, 0), "-K", 3, 1, "no")]),
    ("Q31_0_6", 2, 1, 0, ("H", "E1+E2", "E3+E4", "E5+E6"), []),
    ("D4_0_2", 2, 2, 0, ("F", "K", "E6+E7"), []),
    ("D2", 2, 3, 0, ("F", "K"), [
        ((-1, -3), "-F-3K", 6, 2, "yes"),
        ((1, -1), "F-K", 6, 2, "yes"),
    ]),
    ("G2", 2, 4, 0, ("K",), [((-2,), "-2K", 7, 3, "yes")]),
    ("P2_0_8", 1, 0, 1, ("H", "E1+E2", "E3+E4", "E5+E6", "E7+E8"), []),
    ("D4_1_2", 1, 1, 1, ("F", "K", "E6", "E7+E8"), []),
    ("D2_1_0", 1, 2, 1, ("K", "Ft", "E"), [
        ((-5, -1, -1), "-5K-Ft-E", 5, 2, "yes"),
        ((-3, -1, 1), "-3K-Ft+E", 5, 2, "yes"),
        ((-3, 1, -1), "-3K+Ft-E", 5, 2, "yes"),
        ((-1, 1, 1), "-K+Ft+E", 5, 2, "yes"),
    ]),
    ("G2_1_0", 1, 3, 1, ("K", "E"), [
        ((-4, -1), "-4K-E", 6, 3, "yes"),
        ((-2, 1), "-2K+E", 6, 3, "yes"),
    ]),
    ("B1", 1, 4, 1, ("K",), [((-3,), "-3K", 7, 4, "yes")]),
)

SURFACES = {row[0]: row for row in TABLE1}

# Number of (-1)-curves on a del Pezzo surface of each degree; degree 8 is
# P^1 x P^1 (the quadric Q31), which has none.
MINUS_ONE_COUNTS = {9: 0, 8: 0, 7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


def table1_divisors(surface):
    """{coeffs: (rendered, ell, genus, very_ample)} for one surface."""
    return {d[0]: d[1:] for d in SURFACES[surface][5]}


def check_table1_json(rows):
    """Problems found in `realdp table1 --format json` output (empty if none)."""
    if len(rows) != 24:
        return [f"expected 24 rows, got {len(rows)}"]
    problems = []
    empty = sum(1 for row in rows if row.get("divisor") is None)
    if empty != 9:
        problems.append(f"expected 9 empty rows, got {empty}")
    noes = [row["surface"] for row in rows if row.get("very_ample") == "no"]
    if noes != ["D4_2_0_11"]:
        problems.append(f"expected the single 'no' at D4_2_0_11, got {noes}")
    by_surface = {}
    for row in rows:
        by_surface.setdefault(row["surface"], []).append(row)
    index = 0
    for surface, degree, s, r, basis, divisors in TABLE1:
        block = by_surface.get(surface, [])
        if rows[index]["surface"] != surface:
            problems.append(f"row {index}: expected {surface}, got {rows[index]['surface']}")
        index += max(1, len(divisors))
        for row in block:
            if (row["degree"], row["s"], row["r"]) != (degree, s, r):
                problems.append(f"{surface}: wrong degree/s/r")
        if not divisors:
            if len(block) != 1 or block[0]["divisor"] is not None or block[0]["rendered"] != "---":
                problems.append(f"{surface}: expected one empty row")
            continue
        want = {(tuple(c), rend, ell, g, va) for c, rend, ell, g, va in divisors}
        got = set()
        for row in block:
            div = row["divisor"] or {}
            if tuple(div.get("basis", ())) != basis:
                problems.append(f"{surface}: wrong basis {div.get('basis')}")
            got.add((tuple(div.get("coeffs", ())), row["rendered"], row["ell"], row["genus"], row["very_ample"]))
        if got != want:
            problems.append(f"{surface}: rows {sorted(got)} differ from Table 1")
    return problems


def pairing(gram, u, v):
    return sum(ui * gij * vj for ui, row in zip(u, gram) for gij, vj in zip(row, v))


def conditions_c2_c4(gram, canonical, s, r, coeffs):
    """(c2, c3, c4) for the class `coeffs`, from the real Gram matrix."""
    dd = pairing(gram, coeffs, coeffs)
    dk = pairing(gram, coeffs, canonical)
    return dd == r + 2 * s, r <= dk + 4 <= r + 2 * s, (dk - r) % 4 == 0


# ---------------------------------------------------------------------------
# Polynomials and binary forms


def num_divisors(n):
    n = abs(n)
    count, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1 if d * d == n else 2
        d += 1
    return count


def eval_form(coeffs, u, v):
    """Value of sum_i c_i u^i v^(d-i) at (u, v)."""
    d = len(coeffs) - 1
    return sum(c * u**i * v ** (d - i) for i, c in enumerate(coeffs))


def det3(m):
    """Leibniz formula for a 3x3 matrix of numbers."""
    return (
        m[0][0] * m[1][1] * m[2][2] + m[0][1] * m[1][2] * m[2][0] + m[0][2] * m[1][0] * m[2][1]
        - m[0][2] * m[1][1] * m[2][0] - m[0][0] * m[1][2] * m[2][1] - m[0][1] * m[1][0] * m[2][2]
    )


def determinant_matches(entries, degree, disc_coeffs):
    """Whether the degree-`degree` form `disc_coeffs` is det(entries).

    `entries` is a 3x3 matrix of integer coefficient lists (binary forms).
    Two forms of degree D that agree at D + 1 distinct points of P^1 are
    equal, so the check evaluates both sides at (k, 1), k = 0..D.
    """
    if len(disc_coeffs) != degree + 1:
        return False
    for k in range(degree + 1):
        m = [[eval_form(q, k, 1) for q in row] for row in entries]
        if det3(m) != eval_form(disc_coeffs, k, 1):
            return False
    return True


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def det3_poly(m):
    """Cofactor expansion of a symmetric 3x3 matrix of binary forms with
    deg m[i][j] = a_i + a_j; every term then has the same degree."""
    def minor(a, b, c, d):
        return [x - y for x, y in zip(poly_mul(a, d), poly_mul(b, c))]
    t0 = poly_mul(m[0][0], minor(m[1][1], m[1][2], m[2][1], m[2][2]))
    t1 = poly_mul(m[0][1], minor(m[1][0], m[1][2], m[2][0], m[2][2]))
    t2 = poly_mul(m[0][2], minor(m[1][0], m[1][1], m[2][0], m[2][1]))
    return [a - b + c for a, b, c in zip(t0, t1, t2)]


_TOKEN = re.compile(r"\s*(\d+|[uv]|[-+*^()])")


def parse_form(text):
    """Expand a rendered form such as '2*u*(u^2 - 4*v^2)^2' into a dict
    {(i, j): c} of the coefficients of u^i v^j."""
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    at = [0]

    def peek():
        return tokens[at[0]]

    def take():
        tok = tokens[at[0]]
        at[0] += 1
        return tok

    def mul(p, q):
        out = {}
        for (a, b), c in p.items():
            for (x, y), d in q.items():
                key = (a + x, b + y)
                out[key] = out.get(key, 0) + c * d
        return {k: c for k, c in out.items() if c}

    def add(p, q, sign):
        out = dict(p)
        for k, c in q.items():
            out[k] = out.get(k, 0) + sign * c
        return {k: c for k, c in out.items() if c}

    def atom():
        tok = take()
        if tok == "(":
            value = expr()
            if take() != ")":
                raise ValueError("unbalanced parentheses")
        elif tok == "u":
            value = {(1, 0): 1}
        elif tok == "v":
            value = {(0, 1): 1}
        elif tok is not None and tok.isdigit():
            value = {(0, 0): int(tok)}
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if peek() == "^":
            take()
            power = int(take())
            result = {(0, 0): 1}
            for _ in range(power):
                result = mul(result, value)
            value = result
        return value

    def term():
        value = atom()
        while peek() == "*":
            take()
            value = mul(value, atom())
        return value

    def expr():
        sign = 1
        if peek() == "-":
            take()
            sign = -1
        value = add({}, term(), sign)
        while peek() in ("+", "-"):
            sign = 1 if take() == "+" else -1
            value = add(value, term(), sign)
        return value

    value = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return value


def rendering_matches(text, coeffs):
    """Whether the rendered form expands to the binary form `coeffs`."""
    d = len(coeffs) - 1
    want = {(i, d - i): c for i, c in enumerate(coeffs) if c}
    try:
        return parse_form(text) == want
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Spheres and lines


def sphere_restriction_discriminant(radius, point, center):
    """Discriminant of t |-> S(point + t center) for the sphere
    S = x1^2 + x2^2 + x3^2 - radius^2 x0^2; negative when the line misses it."""
    def form(x, y):
        return sum(Fraction(a) * b for a, b in zip(x[1:], y[1:])) - radius * radius * Fraction(x[0]) * y[0]

    a = form(center, center)
    b = 2 * form(point, center)
    c = form(point, point)
    return b * b - 4 * a * c
