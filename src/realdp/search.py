"""Brute-force classification of divisor classes that can pull back a line
under a finite real-fibered morphism to the projective plane.

For a surface with real part s spheres and r projective planes the candidate
class D must satisfy five conditions:

    c1  the real part consists of spheres and projective planes only;
    c2  D.D = r + 2s;
    c3  r <= D.K + 4 <= r + 2s;
    c4  D.K = r (mod 4);
    c5  D.L > 0 for every (-1)-class L of the complexification, and D.K < 0
        (the only test on P2 and Q31, which have no (-1)-classes).

Conditions c2 and c3 are the class window that `catalog` stores on each
model: an ellipsoid (Hodge index), so the search is finite and complete.
`search` enumerates that window and `check_conditions` tests against it.
"""

from __future__ import annotations

from typing import NamedTuple

from .catalog import SURFACE_NAMES, SurfaceModel, builtin
from .intlinalg import dot, mat_vec
from .lattice import ClassVector, adjunction_genus, check_member, enumerate_classes, riemann_roch_dim


class ConditionReport(NamedTuple):
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


def check_conditions(model: SurfaceModel, d: ClassVector) -> ConditionReport:
    """Evaluate c1..c5 for D; genus, ell and very_ample are set only on a pass.

    One product G d with the real Gram matrix gives the integers D.D and
    D.K.  c2 and c3 compare them with `model.window`, the window `search`
    enumerates, and c4 compares D.K with r.  c5 reads the model's distinct
    line functionals (-K is a nonnegative sum of (-1)-classes where there
    are any; on P2 and Q31 D.K < 0 stands in for their line and rulings).

    On a pass D.D + D.K is even (c2 and c4), so the genus (D.D + D.K)/2 + 1
    and l(D) = (D.D - D.K)/2 + 1 are integers.  Very ampleness is Di Rocco's
    criterion (Math. Nachr. 179, 1996, case k = 1): D.E >= 1 on every
    (-1)-curve E, which c5 already gives, and D.(-K) >= 3.  In degrees 3 to
    7, D.E >= 1 implies D.(-K) >= 3 (Hodge index and the parity of
    D.D + D.K), so only degrees 1 and 2 test it, and in degree 2 it excludes
    just -K.
    """
    lattice = model.real_lattice
    if d.lattice is not lattice:
        check_member(d, lattice)
    x, w = d.coeffs, model.window
    gd = mat_vec(lattice.gram, x)
    dd, dk = dot(x, gd), dot(model.canonical.coeffs, gd)
    c2 = dd == w.self_int
    c3 = w.k_min <= dk <= w.k_max
    c4 = (dk - model.r) % 4 == 0
    c5 = dk < 0 and all(dot(x, row) > 0 for row in model.line_functionals)
    if not (c2 and c3 and c4 and c5):
        return ConditionReport(c2, c3, c4, c5)
    return ConditionReport(
        c2, c3, c4, c5,
        genus=adjunction_genus(dd, dk),
        ell=riemann_roch_dim(dd, dk),
        very_ample=model.degree > 2 or dk <= -3,
    )


def _passing(model: SurfaceModel):
    """(class, report) for every class satisfying c1..c5, in lexicographic
    coefficient order, each class checked once.

    Candidates are the classes of `model.window`, which `_model` built
    with its form, bound and signature certificate, so this runs no
    elimination, no K.K and no lcm; the ellipsoid enumeration guarantees no
    passing class is missed.
    """
    for d in enumerate_classes(model.window):
        report = check_conditions(model, d)
        if report.passed:
            yield d, report


def search(model: SurfaceModel):
    """All classes satisfying c1..c5, in lexicographic coefficient order."""
    return [d for d, _ in _passing(model)]


def _canonical_multiple(d: ClassVector, k: ClassVector):
    pivot = next((i for i, c in enumerate(k.coeffs) if c), None)
    if pivot is None or d.coeffs[pivot] % k.coeffs[pivot]:
        return None
    m = d.coeffs[pivot] // k.coeffs[pivot]
    return m if tuple(m * c for c in k.coeffs) == d.coeffs else None


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


def divisor_json(model: SurfaceModel, d: ClassVector, report: ConditionReport):
    """The JSON fields of one class that `table1`, `enumerate` and `check`
    print: its coefficients in the basis, its rendered form, l(D), the
    genus and very ampleness as yes/no (null until the class passes)."""
    return {
        "divisor": {"basis": list(model.real_lattice.basis_labels), "coeffs": list(d.coeffs)},
        "rendered": render_divisor(model, d),
        "ell": report.ell,
        "genus": report.genus,
        "very_ample": None if report.very_ample is None else ("yes" if report.very_ample else "no"),
    }


def table_rows(model: SurfaceModel):
    """The JSON rows of one surface: one per passing class, or one "---"
    row when no class passes."""
    surface = {"surface": model.name, "degree": model.degree, "s": model.s, "r": model.r}
    rows = [{**surface, **divisor_json(model, d, report)} for d, report in _passing(model)]
    return rows or [{**surface, "divisor": None, "rendered": "---", "ell": None, "genus": None, "very_ample": None}]


def table1():
    """The JSON rows of the full classification table over the built-in
    surfaces, as `table1 --format json` prints them.

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
            row["surface"], str(row["degree"]), str(row["s"]), str(row["r"]), row["rendered"],
            "-" if row["ell"] is None else str(row["ell"]),
            "-" if row["genus"] is None else str(row["genus"]),
            "-" if row["very_ample"] is None else row["very_ample"],
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in [header] + body) for i in range(len(header))]
    lines = [
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in [header] + body
    ]
    return "\n".join(lines)
