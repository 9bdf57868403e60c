"""Command-line interface.

Every command accepts --format {text,json}; JSON payloads are emitted in a
canonical form (sorted keys, compact separators) so outputs are byte-stable
across runs.  Exit codes: 0 success / criterion verified, 1 check failed or
refuted, 2 invalid input, 3 internal error.  Invalid input raises ValueError;
any other exception is a broken invariant of the library, so its traceback
goes to stderr and the exit code cannot be read as an answer.  Rationals
travel as "p/q" strings in JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from math import lcm

from .catalog import SURFACE_NAMES, builtin
from .conic import (
    BinaryForm,
    ConicMatrix,
    analyze,
    candidate_divisor,
    construct_section,
    discriminant,
    factored_str,
    necbundle_conditions,
    surface_class_identities,
)
from .intlinalg import int_tuple, primitive_vector
from .search import _passing, check_conditions, divisor_json, format_table_text, table1
from .topology import GreatSubsphere, HypersurfaceSpec, PLCycle, hyperbolicity_check, linking_number


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_MAX_DIGITS = 4300  # Python's default limit for converting a string to an int
_TOO_LONG = 10**_MAX_DIGITS  # the least integer of more than 4,300 digits


def _check_digits(digits: int):
    """Refuse an integer of more than 4,300 digits, in the input or in an
    answer, with one message on every Python version: since 3.10.7 int()
    and str() raise an error that names an interpreter setting, and older
    versions convert it."""
    if digits > _MAX_DIGITS:
        raise ValueError(f"an integer of {digits} digits exceeds the limit of {_MAX_DIGITS:,} digits")


def _answer(value):
    """`value`, refused by `_check_digits` when it holds an integer of more
    than 4,300 digits in nested lists, tuples and dicts: 3.10.7 and later
    cannot print one and older versions can, so every answer is checked
    before any of it is printed."""
    if type(value) is dict:
        _answer(tuple(value.values()))
    elif type(value) in (list, tuple):
        for item in value:
            _answer(item)
    elif type(value) is int and abs(value) >= _TOO_LONG:
        digits = abs(value).bit_length() * 1233 >> 12  # at most the count: 1233 / 4096 < log10(2)
        while abs(value) >= 10**digits:
            digits += 1
        _check_digits(digits)
    return value


def _int_literal(text: str, name: str | None = None) -> int:
    """An integer written as an optional sign and digits: a JSON literal, or
    the integer argument `name` on the command line, read here and not by
    argparse so that one of more than 4,300 digits gets the same refusal,
    with the argument named as argparse names it."""
    try:
        if not _INTEGER.fullmatch(text):
            shown = text if len(text) <= 20 else text[:20] + "..."
            raise ValueError(f"expected an integer, got {shown!r}")
        _check_digits(len(text.lstrip("+-")))
    except ValueError as exc:
        if name is None:
            raise
        raise ValueError(f"argument {name}: {exc}") from None
    return int(text)


def _fraction(value) -> Fraction:
    """An int, or a string of an optional sign, digits and an optional
    "/digits".  Exponents, decimal points, underscores and spaces are
    refused, so a short string cannot stand for a huge integer."""
    if not (type(value) is int or type(value) is str and _RATIONAL.fullmatch(value)):
        raise ValueError(f"expected an integer or 'p/q' string, got {value!r}")
    if type(value) is str:
        _check_digits(max(len(part.lstrip("+-")) for part in value.split("/")))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def _rationals(values) -> tuple:
    """The rationals of a JSON array.  Anything else is refused, as a
    malformed document: the characters of a string or the keys of an
    object would otherwise read as rationals."""
    if type(values) is not list:
        raise TypeError(f"expected an array of rationals, got {type(values).__name__}")
    return tuple(_fraction(x) for x in values)


def _integer(value) -> int:
    return int_tuple((value,))[0]


def _document(path, what, parse):
    """`parse` applied to the JSON document at `path`; a missing key or a
    value of the wrong shape anywhere in it makes a malformed `what` document."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle, parse_int=_int_literal)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path} is nested too deeply to read") from exc
    try:
        return parse(doc)
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed {what} document: {exc}") from exc


def _parse_conic_matrix(doc) -> ConicMatrix:
    splitting = _splitting(doc)
    entries = tuple(
        tuple(
            BinaryForm(_integer(cell["degree"]), tuple(_integer(c) for c in cell["coeffs"]))
            for cell in row
        )
        for row in doc["entries"]
    )
    return ConicMatrix(splitting, entries)


def _conic_matrix_json(matrix: ConicMatrix):
    return {
        "splitting": list(matrix.splitting),
        "entries": [
            [{"degree": q.degree, "coeffs": list(q.coeffs)} for q in row]
            for row in matrix.entries
        ],
    }


# At degree 64 (Python 3.11, 2-vCPU Xeon VM) the dense form (47,905 monomials,
# centre 3,1,-1,2) has 47,905 polar terms on x_j = 0, computed in 0.5 s; one
# refuting `hyp` trial takes 1.1 s and 44 MB.  100,000 quadric trials take
# about 2 s, and none is drawn when the line discriminant is positive definite.
_MAX_HYP_DEGREE = 64
_MAX_HYP_TRIALS = 100_000
# A supported trial on the product of d/2 nested spheres (centre 4,1,-1,1,
# seed 0; same machine), restriction and Sturm test, takes 0.011, 0.11 and
# 0.45 s at d = 16, 24 and 32 and about 34 s at d = 64, at most 0.6 s *
# (d / 32)^6 from d = 24 up, at small entries.  The restriction's
# coefficients have about B = b + d c bits, b and c the bit sizes of the
# largest stored coefficient and of the centre's largest primitive
# coordinate.  A supported trial on the spheres of radii 1, 2 / 1, 2, 3 /
# 1 to 5 from the centre (10^k, 1, 0, 0) takes (same machine, thread time):
#
#   d = 4:   1.9 ms at B = 3,991,  14 ms at 13,291,  99 ms at 39,867
#   d = 6:   29 ms at B = 5,988,  250 ms at 19,938
#   d = 10:  0.89 s at B = 9,985,  7.4 s at 33,235
#
# at most 0.117 us * d^5 B^2, and 0.09 us at d = 10.  A large b costs like a
# large d c on a dense form; one large sphere among small ones runs about
# 25 times under the bound.  The size term is twice the d = 10 rate, for the
# VM's two speeds: 1.8 s * (d / 10)^5 * (B / 10^4)^2 a trial.  `hyp` takes
# the larger term and refuses trials that would take longer than the budget.
_HYP_TRIAL_US_AT_32 = 600_000
_HYP_TRIAL_US_AT_10_10K = 1_800_000
_BUDGET_S = 60
# A cold `conic discriminant` (same machine, splitting [0, 0, N], coefficients
# in [-3, 3]) takes 0.3 s at discriminant degree 128, 3.1 s at 256 and 49 s
# and 170 MB at 512: the time grows about as d^3.5 to d^4.
_MAX_CONIC_DEGREE = 256
# Cold `conic discriminant` / `conic analyze` runs (same machine, Python
# 3.11) on a general section of splitting [0, 0, d/2] with random b-bit
# entries took, in seconds (one figure where the two are within 10%, or in
# rows * (sections of tests/test_cli.py) from b = 4096 up, `analyze` alone):
#
#   d = 256:  6.6 at b = 4,  39 / 42 at 16
#   d = 128:  0.5 at b = 4,  3.3 / 2.5 at 16,  8.9 at 32,  32 / 29 at 64
#   d = 64:   0.1 at b = 4,  0.3 at 16,  2.5 at 64,  7.6 / 7.1 at 128,  29 / 25 at 256
#   d = 32:   0.3 at b = 64,  2.5 / 2.0 at 256,  17 / 6.2 at 512
#   d = 32*:  27 at b = 768 (discriminant)
#   d = 16:   18 / 1.3 at b = 1024,  41 / 4.5 at 2048
#   d = 16*:  12 / 1.1 at b = 1024,  16 at 1536 (discriminant),  69 to 94 / 4.5 at 2048,  15 at 4096,
#             63 at 8192,  236 at 16384
#   d = 8:    61 / 0.7 at b = 4096
#   d = 8*:   0.2 at b = 1024,  0.3 at 2048,  0.7 at 4096,  3.3 at 8192,  9.2 at 16384
#
# Every `analyze` time is at most 0.2 s (cold start) + 2.04 s * (d / 64)^4 *
# ((b + 4) / 64)^2 (Sturm chains), reached at (64, 64); each `discriminant`
# time is at most that + 26 s * (d / 16)^2 * (b / 1024)^3 (rational-root
# search), nearest at (32, 512).  The search varies much between sections of
# one size (61 s at (8, 4096), 0.7 s on the 8* section); d^2 b^3 follows the
# slowest: (16, 1024) and (64, 256), of one d b, read 17 and 4 s beyond
# `analyze`, and (16*, 2048) up to 90 s.  A discriminant of degree at most
# two has its rational roots in closed form, so no search.  These are times
# at the faster of the VM's two speeds, about 2x apart (the figures 16 s at
# (16*, 1536) and 27 s at (32*, 768) are halves of runs at the slower one,
# which read 23.5 s at (16*, 1024)); the constants below are twice them.
_CONIC_START_US = 400_000
_CONIC_STURM_US_AT_64_60 = 4_080_000
_CONIC_ROOT_SEARCH_US_AT_16_1024 = 52_000_000


def _splitting(doc) -> list:
    """The splitting of a conic document, refused above `_MAX_CONIC_DEGREE`."""
    splitting = [_integer(a) for a in doc["splitting"]]
    if 2 * sum(splitting) > _MAX_CONIC_DEGREE:
        raise ValueError(f"discriminant degree must be at most {_MAX_CONIC_DEGREE}, got {2 * sum(splitting)}")
    return splitting


def _parse_hypersurface(doc) -> HypersurfaceSpec:
    degree = _integer(doc["degree"])
    if degree > _MAX_HYP_DEGREE:
        raise ValueError(f"degree must be at most {_MAX_HYP_DEGREE}, got {degree}")
    # `HypersurfaceSpec` clears the denominators in time quadratic in the
    # length of their common denominator: with distinct 1,000-digit
    # denominators and no limit, a one-trial `hyp` takes 10 s on 400 terms
    # and 42 s on 800 (2-vCPU VM, Python 3.11).  So that denominator is
    # refused as soon as it passes 4,300 digits.
    terms, den = [], 1
    for term in doc["terms"]:
        terms.append((tuple(_integer(e) for e in term["exponents"]), _fraction(term["coeff"])))
        den = lcm(den, terms[-1][1].denominator)
        if den >= _TOO_LONG:
            raise ValueError(f"the common denominator of the coefficients exceeds the limit of {_MAX_DIGITS:,} digits")
    return HypersurfaceSpec(degree, tuple(terms))


def _parse_cycles(doc) -> list:
    return [
        PLCycle(
            _integer(cycle["ambient"]),
            cycle["closure"],
            tuple(_rationals(p) for p in cycle["points"]),
        )
        for cycle in doc["cycles"]
    ]


def _parse_subspace(doc, ambient=None) -> GreatSubsphere:
    normals = tuple(_rationals(n) for n in doc["normals"])
    if ambient is None:
        ambient = len(normals[0]) - 1
    return GreatSubsphere(ambient, normals)


def _parse_center(doc):
    """The center E and the chain L through it, if the document gives one."""
    center = _parse_subspace(doc)
    chain = _parse_subspace(doc["chain"], center.ambient) if "chain" in doc else None
    return center, chain


def _parse_construction(doc) -> ConicMatrix:
    splitting = _splitting(doc)
    if len(splitting) != 3:
        raise ValueError(f"splitting must be three integers, got {len(splitting)}")
    root_lists = [_rationals(roots) for roots in doc["roots"]]
    # Each p_i is primitive: its constant term is the product of the -p and
    # its leading coefficient the product of the q over its roots p/q.  One
    # that cannot be printed is refused before the p_i are multiplied out,
    # which takes minutes at degree 256 with roots of 4,300 digits.
    for _, roots in sorted(zip(splitting, root_lists), key=lambda t: t[0]):
        constant = leading = 1
        for root in roots:
            constant *= -root.numerator
            leading *= root.denominator
        _answer((constant, leading))
    return construct_section(*splitting, root_lists)


# ---------------------------------------------------------------------------
# Command handlers: each returns (exit_code, payload, text)


def _cmd_table1(args):
    rows = table1()
    return 0, rows, format_table_text(rows)


def _cmd_enumerate(args):
    model = builtin(args.surface)
    payload = [
        {**divisor_json(model, d, report), "conditions": report.conditions_dict()} for d, report in _passing(model)
    ]
    lines = [f"{p['rendered']}  l={p['ell']}  g={p['genus']}  very_ample={p['very_ample']}" for p in payload]
    text = "\n".join(lines) if lines else f"no divisors satisfy the conditions on {args.surface}"
    return 0, payload, text


def _verdict(report):
    """The exit code, status and failing conditions of a condition report
    (`search.ConditionReport` or `conic.BundleConditionReport`): 0, "pass"
    and None, or 1, "fail" and the text "fails c2, c5"."""
    failed = [name for name, ok in report.conditions_dict().items() if not ok]
    return (0, "pass", None) if report.passed else (1, "fail", f"fails {', '.join(failed)}")


def _cmd_check(args):
    coeffs = [_int_literal(c, "coeffs") for c in args.coeffs]
    model = builtin(args.surface)
    if len(coeffs) != model.real_lattice.rank:
        raise ValueError(
            f"{args.surface} has real Picard rank {model.real_lattice.rank}, "
            f"got {len(coeffs)} coefficients"
        )
    d = model.real_lattice.vector(coeffs)
    report = check_conditions(model, d)
    code, status, failures = _verdict(report)
    payload = {
        "status": status,
        "surface": args.surface,
        **divisor_json(model, d, report),
        "conditions": report.conditions_dict(),
    }
    text = f"{payload['rendered']} on {args.surface}: {failures or 'passes all conditions'}"
    return code, payload, text


def _cmd_conic_conditions(args):
    s, a, b = (_int_literal(args.s, "s"), _int_literal(args.a, "a"), _int_literal(args.b, "b"))
    report = necbundle_conditions(s, a, b)
    code, status, failures = _verdict(report)
    payload = {
        "s": s,
        "a": a,
        "b": b,
        "conditions": report.conditions_dict(),
        "status": status,
    }
    text = f"D = {a}F - {b}K with s={s}: {failures or 'all six conditions hold'}"
    return code, payload, text


def _cmd_conic_candidate(args):
    data = _answer(candidate_divisor(_int_literal(args.s, "s")))
    text = (
        f"D = {data['a']}F - {data['b']}K: genus {data['genus']}, "
        f"at least {data['ell_lower_bound']} sections"
    )
    return 0, data, text


def _cmd_conic_chow(args):
    data = _answer(surface_class_identities(_int_literal(args.a, "a"), _int_literal(args.c, "c")))
    if data["s"] < 0:
        raise ValueError(f"s = 3(a/2) + c = {data['s']} is a negative number of spheres")
    text = f"K_X^2 = {data['KX2']}, s = {data['s']}, O(1)|_X = {data['x']}F - K"
    return 0, data, text


def _within_budget(us, work, of=""):
    """Refuse `work`, predicted to take `us` microseconds, over the budget."""
    if us > _BUDGET_S * 10**6:
        raise ValueError(f"{work} would take about {us // 10**6} s, over the {_BUDGET_S} s budget{of}")


def _conic_matrix_within_budget(path, command) -> ConicMatrix:
    """The conic matrix at `path`, refused before its determinant when the
    time predicted for `command` from its discriminant degree d and its
    largest entry bit size b is over the budget."""
    matrix = _document(path, "conic matrix", _parse_conic_matrix)
    d = 2 * sum(matrix.splitting)
    b = max(abs(c).bit_length() for row in matrix.entries for q in row for c in q.coeffs)
    us = _CONIC_START_US + _CONIC_STURM_US_AT_64_60 * d**4 * (b + 4) ** 2 // 64**6
    if command == "discriminant" and d > 2:
        us += _CONIC_ROOT_SEARCH_US_AT_16_1024 * d**2 * b**3 // (16**2 * 1024**3)
    _within_budget(us, f"conic {command} at discriminant degree {d} with {b}-bit entries")
    return matrix


def _cmd_conic_discriminant(args):
    disc = discriminant(_conic_matrix_within_budget(args.file, "discriminant"))
    _answer(disc.coeffs)
    rendered = factored_str(disc)
    payload = {"degree": disc.degree, "coeffs": list(disc.coeffs), "rendered": rendered}
    return 0, payload, rendered


def _cmd_conic_analyze(args):
    result = analyze(_conic_matrix_within_budget(args.file, "analyze"))
    payload = {
        "total": result.total_fibers,
        "real": result.real_fibers,
        "squarefree": result.squarefree,
        "s": result.s,
        "smooth_necessary": result.smooth_necessary,
        "smooth_exact": result.smooth_exact,
    }
    text = (
        f"{result.total_fibers} singular fibers, {result.real_fibers} real, "
        f"squarefree={result.squarefree}, s={result.s}"
    )
    return (0 if result.squarefree else 1), payload, text


def _cmd_conic_construct(args):
    payload = _answer(_conic_matrix_json(_document(args.file, "construction", _parse_construction)))
    return 0, payload, canonical_json(payload)


def _cmd_hyp(args):
    trials, seed = _int_literal(args.trials, "--trials"), _int_literal(args.seed, "--seed")
    if trials > _MAX_HYP_TRIALS:
        raise ValueError(f"--trials must be at most {_MAX_HYP_TRIALS}, got {trials}")
    surface = _document(args.polyfile, "hypersurface", _parse_hypersurface)
    point = tuple(_fraction(x) for x in args.point.split(","))
    if len(point) != 4:
        raise ValueError("--point needs four comma-separated rationals")
    d = surface.degree
    b = max((abs(coeff).bit_length() for _, coeff in surface.terms), default=0)
    c = max(abs(x).bit_length() for x in primitive_vector(point)) if any(point) else 0
    trial_us = max(_HYP_TRIAL_US_AT_32 * d**6 // 32**6, _HYP_TRIAL_US_AT_10_10K * d**5 * (b + d * c) ** 2 // 10**13)
    _within_budget(trials * trial_us, f"{trials} trials at degree {d}", " of hyp")
    verdict = hyperbolicity_check(surface, point, trials, seed)
    payload = {
        "status": "refuted" if verdict.refuted else "supported",
        "trials": verdict.trials,
        "trial": verdict.trial,
        "witness": None if verdict.witness is None else [str(x) for x in verdict.witness],
        "boundary_contacts": verdict.boundary_contacts,
    }
    if verdict.refuted:
        text = f"refuted at trial {verdict.trial}: witness {payload['witness']}"
    else:
        text = f"supported over {verdict.trials} trials ({verdict.boundary_contacts} boundary contacts)"
    return (1 if verdict.refuted else 0), payload, text


def _cmd_link(args):
    degree = _int_literal(args.degree, "--degree")
    if degree < 1:
        raise ValueError(f"--degree must be at least 1, got {degree}")
    cycles = _document(args.cycles, "cycles", _parse_cycles)
    center, chain = _document(args.center, "subspace", _parse_center)
    numbers = [linking_number(c, center, chain) for c in cycles]
    total = sum(abs(n) for n in numbers)
    ok = total == degree
    payload = {
        "linking_numbers": numbers,
        "sum_abs": total,
        "claimed_degree": degree,
        "hyperbolic": ok,
        "status": "ok" if ok else "fail",
    }
    text = f"sum |lk| = {total}, degree {degree}: criterion {'holds' if ok else 'fails'}"
    return (0 if ok else 1), payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realdp",
        description="Exact lattice, conic-bundle and linking computations "
        "for real del Pezzo surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = []

    def command(parent, name, handler, help, *positionals):
        """The parser of one leaf command, with its plain positionals; every
        leaf gets --format after its own arguments, below."""
        p = parent.add_parser(name, help=help)
        for positional in positionals:
            p.add_argument(positional)
        p.set_defaults(handler=handler)
        commands.append(p)
        return p

    command(sub, "table1", _cmd_table1, "classification table over all built-in surfaces")
    p = command(sub, "enumerate", _cmd_enumerate, "divisor search on one surface")
    p.add_argument("surface", choices=SURFACE_NAMES)
    p = command(sub, "check", _cmd_check, "condition report for an explicit divisor class")
    p.add_argument("surface", choices=SURFACE_NAMES)
    p.add_argument("coeffs", nargs="+", help="coefficients in the documented basis order")

    conic = sub.add_parser("conic", help="minimal conic bundle computations")
    conic_sub = conic.add_subparsers(dest="subcommand", required=True)
    command(conic_sub, "conditions", _cmd_conic_conditions, "the six conditions for D = aF - bK", "s", "a", "b")
    command(conic_sub, "candidate", _cmd_conic_candidate, "the distinguished divisor (s-2)F - K", "s")
    command(conic_sub, "chow", _cmd_conic_chow, "Chow-ring identities for the class 2H + aE", "a", "c")
    command(conic_sub, "discriminant", _cmd_conic_discriminant, "determinant of a section matrix", "file")
    command(conic_sub, "analyze", _cmd_conic_analyze, "singular fiber analysis of a section matrix", "file")
    command(conic_sub, "construct", _cmd_conic_construct, "diagonal section from prescribed roots", "file")

    p = command(sub, "hyp", _cmd_hyp, "randomized hyperbolicity check for a hypersurface in P^3", "polyfile")
    p.add_argument("--point", required=True, help="center, four comma-separated rationals")
    p.add_argument("--trials", default="100")
    p.add_argument("--seed", default="0")
    p = command(sub, "link", _cmd_link, "linking-number criterion for PL cycles", "cycles", "center")
    p.add_argument("--degree", required=True)

    for p in commands:
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, payload, text = args.handler(args)
        _answer(payload)
    except ValueError as exc:
        message = {"status": "error", "message": str(exc)}
        if getattr(args, "format", "text") == "json":
            print(canonical_json(message))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not bad input: print the traceback for the report
        sys.excepthook(*sys.exc_info())
        return 3
    if args.format == "json":
        print(canonical_json(payload))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
