"""Brute-force classification of divisor classes that can pull back a line
under a finite real-fibered morphism to the projective plane.

For a surface with real part s spheres and r projective planes the candidate
class D must satisfy five conditions:

    c1  the real part consists of spheres and projective planes only;
    c2  D.D = r + 2s;
    c3  r <= D.K + 4 <= r + 2s;
    c4  D.K = r (mod 4);
    c5  D.L > 0 for every (-1)-class L of the complexification.

Conditions c2 + c3 confine D to an ellipsoid (Hodge index), so the search is
finite and complete.  Passing classes carry sectional genus, the
Riemann-Roch section count, and a very-ampleness flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import SURFACE_NAMES, SurfaceModel, builtin
from .intlinalg import dot
from .lattice import ClassVector, adjunction_genus, enumerate_classes, riemann_roch_dim


@dataclass(frozen=True)
class ConditionReport:
    c1 = True  # a class constant: every catalogued model has sphere/plane real part
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    genus: int | None = None
    ell: int | None = None
    very_ample: bool | None = None

    @property
    def passed(self) -> bool:
        return self.c2 and self.c3 and self.c4 and self.c5

    def conditions_dict(self):
        return {f"c{i}": getattr(self, f"c{i}") for i in range(1, 6)}


def _positive_on_lines(model: SurfaceModel, d: ClassVector) -> bool:
    """D.L > 0 for every (-1)-class L, read from the model's line functionals."""
    if d.lattice != model.real_lattice:
        raise ValueError("divisor class does not live in the real Picard lattice")
    coeffs = d.coeffs
    return all(dot(coeffs, row) > 0 for row in model.line_functionals)


def check_conditions(model: SurfaceModel, d: ClassVector) -> ConditionReport:
    """Evaluate c1..c5 for D; genus/ell/very-ample only populate on a pass."""
    c5 = _positive_on_lines(model, d)  # first: it also checks that D is a real class
    k = model.canonical
    dd = d.dot(d)
    dk = d.dot(k)
    c2 = dd == model.r + 2 * model.s
    c3 = model.r <= dk + 4 <= model.r + 2 * model.s
    c4 = (dk - model.r) % 4 == 0
    report = ConditionReport(c2, c3, c4, c5)
    if report.passed:
        report = ConditionReport(
            c2, c3, c4, c5,
            genus=adjunction_genus(d, k),
            ell=riemann_roch_dim(d, k),
            very_ample=very_ample(model, d),
        )
    return report


def very_ample(model: SurfaceModel, d: ClassVector) -> bool:
    """Very-ampleness of a class that already satisfies c1..c5.

    Encoded rule: D must pair >= 1 with every (-1)-class; in degree 2 the
    anticanonical class itself is excluded (it maps 2:1 onto the plane), and
    in degree 1 we additionally require D.(-K) >= 3 and D not in {-K, -2K}
    (the anticanonical and bianticanonical maps are not embeddings).
    """
    if not _positive_on_lines(model, d):
        return False
    k = model.canonical
    minus_k = -k
    if model.degree == 2 and d == minus_k:
        return False
    if model.degree == 1:
        if d.dot(minus_k) < 3:
            return False
        if d == minus_k or d == 2 * minus_k:
            return False
    return True


def search(model: SurfaceModel):
    """All classes satisfying c1..c5, in lexicographic coefficient order.

    Candidates are enumerated with D.D = r + 2s and D.K in the window
    [r - 4, r + 2s - 4] given by c3; the ellipsoid enumeration guarantees no
    passing class is missed.
    """
    target = model.r + 2 * model.s
    lo, hi = model.r - 4, model.r + 2 * model.s - 4
    candidates = enumerate_classes(model.real_lattice, model.canonical, target, lo, hi)
    return [d for d in candidates if check_conditions(model, d).passed]


@dataclass(frozen=True)
class TableRow:
    surface: str
    degree: int
    s: int
    r: int
    divisor: str
    coeffs: tuple | None
    basis: tuple | None
    ell: int | None
    genus: int | None
    very_ample: str | None


def _canonical_multiple(d: ClassVector, k: ClassVector):
    pivot = next((i for i, c in enumerate(k.coeffs) if c), None)
    if pivot is None or d.coeffs[pivot] % k.coeffs[pivot]:
        return None
    m = d.coeffs[pivot] // k.coeffs[pivot]
    return m if m * k == d else None


def render_divisor(model: SurfaceModel, d: ClassVector) -> str:
    """Human form of a divisor class: multiples of K print as e.g. -2K,
    anything else as a signed combination of the basis labels."""
    m = _canonical_multiple(d, model.canonical)
    if m is not None and m != 0:
        mag = "" if abs(m) == 1 else str(abs(m))
        return f"{'-' if m < 0 else ''}{mag}K"
    parts = []
    for coeff, label in zip(d.coeffs, model.real_lattice.basis_labels):
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = "" if abs(coeff) == 1 else str(abs(coeff))
        parts.append(f"{sign}{mag}{label}")
    return "".join(parts) if parts else "0"


def table_rows(model: SurfaceModel):
    divisors = search(model)
    if not divisors:
        return [
            TableRow(model.name, model.degree, model.s, model.r,
                     "---", None, None, None, None, None)
        ]
    rows = []
    for d in divisors:
        report = check_conditions(model, d)
        rows.append(
            TableRow(
                model.name, model.degree, model.s, model.r,
                render_divisor(model, d), d.coeffs, model.real_lattice.basis_labels,
                report.ell, report.genus, "yes" if report.very_ample else "no",
            )
        )
    return rows


def table1():
    """The full classification table over the built-in surfaces.

    Surfaces appear in the catalogue order; surfaces with several divisors
    contribute one row per class, lexicographically by coefficients."""
    rows = []
    for name in SURFACE_NAMES:
        rows.extend(table_rows(builtin(name)))
    return rows


def format_table_text(rows) -> str:
    header = ("X", "deg", "s", "r", "D", "l(D)", "g", "very ample?")
    body = [
        (
            row.surface, str(row.degree), str(row.s), str(row.r), row.divisor,
            "-" if row.ell is None else str(row.ell),
            "-" if row.genus is None else str(row.genus),
            "-" if row.very_ample is None else row.very_ample,
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in [header] + body
    ]
    return "\n".join(lines)


def row_to_json(row: TableRow):
    return {
        "surface": row.surface,
        "degree": row.degree,
        "s": row.s,
        "r": row.r,
        "divisor": None if row.coeffs is None else {"basis": list(row.basis), "coeffs": list(row.coeffs)},
        "rendered": row.divisor,
        "ell": row.ell,
        "genus": row.genus,
        "very_ample": row.very_ample,
    }
