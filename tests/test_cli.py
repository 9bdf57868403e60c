import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time

import pytest

import realdp
from realdp import cli
from realdp.cli import canonical_json, main
import golden
from conftest import nested_spheres, worked_conic_matrix


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    return code, json.loads(out)


def write_matrix_file(tmp_path, matrix, name="matrix.json"):
    doc = {
        "splitting": list(matrix.splitting),
        "entries": [
            [{"degree": q.degree, "coeffs": list(q.coeffs)} for q in row]
            for row in matrix.entries
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def write_sphere_file(tmp_path):
    doc = {
        "degree": 2,
        "terms": [
            {"exponents": [0, 2, 0, 0], "coeff": 1},
            {"exponents": [0, 0, 2, 0], "coeff": 1},
            {"exponents": [0, 0, 0, 2], "coeff": 1},
            {"exponents": [2, 0, 0, 0], "coeff": -1},
        ],
    }
    path = tmp_path / "sphere.json"
    path.write_text(json.dumps(doc))
    return str(path)


def write_cycles_file(tmp_path, radii, name="cycles.json"):
    cycles = []
    for r in radii:
        cycles.append(
            {
                "ambient": 2,
                "closure": "sphere",
                "points": [
                    ["1", f"{r}", f"{r}"],
                    ["1", f"-{r}", f"{r}"],
                    ["1", f"-{r}", f"-{r}"],
                    ["1", f"{r}", f"-{r}"],
                ],
            }
        )
    path = tmp_path / name
    path.write_text(json.dumps({"cycles": cycles}))
    return str(path)


def write_center_file(tmp_path):
    path = tmp_path / "center.json"
    path.write_text(json.dumps({"normals": [["0", "1", "0"], ["0", "0", "1"]]}))
    return str(path)


def assert_replays(capsys, tmp_path, case):
    """The golden case, run through `main` in process, gives what the store
    records."""
    got, expected = golden.replay(case, tmp_path, lambda argv: (main(argv), *capsys.readouterr()))
    assert got == expected, case["argv"]


def case_id(case):
    """A short pytest id for a golden case: its argv, cut at 60 characters
    (some arguments run to 4,301 digits)."""
    text = " ".join(case["argv"])
    return text if len(text) <= 60 else text[:57] + "..."


@pytest.mark.parametrize("case", golden.cases(), ids=case_id)
def test_golden_case_replays(capsys, tmp_path, case):
    """Each case of cli_golden.json, run through `main` in process, gives its
    recorded exit code and stdout byte for byte, and its stderr where the
    case records one."""
    assert_replays(capsys, tmp_path, case)


def test_catalogue_stdout_matches_golden():
    """The store holds, for `test_golden_case_replays` to replay:
    `table1` in json and text, refusing `--format yaml`, `enumerate` on
    every surface in json and text and refusing the surface XYZ, and `check`
    on D2 (passing and failing) and on -H of P2 and Q31, which fail c5, in
    json, and in json and text on -3K of B1 (passing, degree 1), -K of
    D4_2_0_11 (passing, the one Table 1 class that is not very ample) and a
    P2_0_8 class that fails c5 alone, and in json and text refusing one
    coefficient on D2, whose real Picard rank is 2, and a coefficient of
    4,301 digits with the message of a JSON literal that long, after the
    argument's name; the six refusals record their stderr."""
    cases = golden.cases("table1", "enumerate", "check")
    enumerated = {c["argv"][1] for c in cases if c["argv"][0] == "enumerate"}
    assert enumerated == {*realdp.catalog.SURFACE_NAMES, "XYZ"}
    checked = {c["argv"][1] for c in cases if c["argv"][0] == "check"}
    assert checked == {"D2", "P2", "Q31", "B1", "D4_2_0_11", "P2_0_8"}
    assert sum(c["exit"] == 2 and "stderr" in c for c in cases) == 6


def test_conic_stdout_matches_golden():
    """The store holds, for `test_golden_case_replays` to replay:
    every `conic` subcommand, in json and text: `conditions` passing and
    failing, `candidate`, `chow` on a = 0, 2 and -2, `construct` on three
    root sets, and `discriminant` and `analyze` on the worked matrix, a general section
    with a repeated rational root, a degree-12 constructed section with a
    21-bit constant term, a form with u- and v-power factors and one with an
    irreducible cubic cofactor, `analyze` on diag(u^2, u^2, (u + v)^2), which
    is not squarefree (exit 1), and `discriminant` refusing a section of
    degree 258 and a degree-64 section with a 256-bit entry, whose predicted
    time is over the budget.  `discriminant` on a section with 1,500-digit diagonal
    entries and `construct` on roots with 3,000-digit denominators admit
    their input but refuse their answer, whose integers pass 4,300 digits,
    with one message, `construct` refuses root lists written as strings as
    a malformed document, and `analyze` refuses a construction document and
    a matrix document without entries; these ten record their stderr.
    A case with a matrix or construction document holds it, written to a
    file in place of DOCUMENT."""
    cases = golden.cases("conic")
    assert {c["argv"][1] for c in cases} == {
        "conditions", "candidate", "chow", "construct", "discriminant", "analyze"}
    assert sum("documents" in c for c in cases) == 40
    assert sum(c["exit"] == 2 and "stderr" in c for c in cases) == 10
    assert {c["exit"] for c in cases} == {0, 1, 2}


def test_link_and_hyp_stdout_matches_golden():
    """The store holds, for `test_golden_case_replays` to replay:
    `link` on an oval around the center, an oval beside it, a pseudoline,
    and a ring and a line in RP^3, each with and without a `chain`
    hyperplane, on one and on two nested ovals around the center at degree
    4 (holds with two, fails with one, and holds with two given a `chain`),
    and refusing a cycle with a vertex on the center after one on L, one
    with a vertex on L and one with a segment through the center, points
    written as strings as a malformed document and a center without
    normals, which is not cut out by two equations;
    `hyp` on the sphere quadric from a center inside (supported, with 100,
    200 and 100,000 trials), outside (refuted) and on it (refused), on the
    products of the spheres of radii 1, 1 and 2, and 1, 2 and 3 from a
    center inside (supported) and one outside (refuted, with its witness),
    and on x1^2 times the unit sphere (supported with a boundary contact on
    every trial), on the cylinder
    x1^2 + x2^2 - x0^2 from [1:0:0:0] (supported over all its trials), on the
    hyperboloid x1^2 + x2^2 - x3^2 - x0^2 from [2:0:0:3] (refuted at trial
    6), on the smooth cubic 100 (x1^2 + x2^2 + x3^2 - x0^2)(x3 - 2 x0) +
    x0^3 + x1^3 + x2^3 + x3^3, whose real part is a sphere and a projective
    plane as on D4_1_0 (over 2,000 trials supported from [1:0:0:0] and
    [1:0:0:1/2], inside the sphere, and refuted at trial 1 from [1:3:0:0],
    [1:0:0:5] and [1:0:0:2], outside it), on
    the Fermat cubic x0^3 + x1^3 + x2^3 + x3^3, whose real part is a
    projective plane as on P2_0_6 (refuted at trial 1 from [1:0:0:0] and
    [1:1:1:1]), refusing the seed -1 in json, refusing a --trials of 4,301
    digits with the message of a JSON literal that long, after the
    argument's name, refusing 100,000 trials on two degree-10 forms
    whose coefficient or centre sizes put them over the budget, and refusing
    a quadric whose six coefficients have distinct 1,000-digit denominators,
    whose common denominator passes 4,300 digits; in json and text, with
    stderr recorded for the five `link` refusals and the --trials, budget
    and denominator ones, whose text message goes there."""
    cases = golden.cases("link", "hyp")
    links = [c for c in cases if c["argv"][0] == "link"]
    assert len(links) == 32 and sum("chain" in c["documents"]["CENTER"] for c in links) == 10
    assert sum(c["exit"] == 2 and "stderr" in c for c in links) == 10
    assert len(cases) - len(links) == 39
    assert {c["exit"] for c in cases} == {0, 1, 2}


def test_golden_store_is_well_formed():
    """The argument in each document slot of a case (the matrix or
    construction of `conic`, the form of `hyp`, the cycles and center of
    `link`) is a placeholder naming one of its documents, and every document
    is named; no two cases share argv and documents; every exit code is 0, 1
    or 2; and every text-format case that exits 2 records its stderr, where
    its message goes, since its stdout is empty."""
    cases = golden.cases()
    for case in cases:
        argv = case["argv"]
        if argv[0] == "conic":
            slots = argv[2:3] if argv[1:2] in (["discriminant"], ["analyze"], ["construct"]) else []
        else:
            slots = {"hyp": argv[1:2], "link": argv[1:3]}.get(argv[0], [])
        assert sorted(slots) == sorted(case.get("documents", {})), argv
        assert case["exit"] in (0, 1, 2), argv
        as_json = ["--format", "json"] in [argv[i:i + 2] for i in range(len(argv))]
        assert case["exit"] != 2 or as_json or "stderr" in case, argv
    runs = {json.dumps([c["argv"], c.get("documents")], sort_keys=True) for c in cases}
    assert len(runs) == len(cases)


def test_enumerate_checks_each_candidate_once(capsys, monkeypatch):
    """`enumerate` reads the reports of the one pass that the search makes,
    so over the 19 surfaces its 15 divisors are not checked a second time
    (86 calls)."""
    from realdp import cli, search as search_module

    calls = []
    check = search_module.check_conditions

    def counted(model, d):
        calls.append(d)
        return check(model, d)

    monkeypatch.setattr(search_module, "check_conditions", counted)
    monkeypatch.setattr(cli, "check_conditions", counted)
    found = 0
    for name in realdp.catalog.SURFACE_NAMES:
        code, payload = run_json(capsys, ["enumerate", name])
        assert code == 0
        found += len(payload)
    assert found == 15
    assert len(calls) == 71


def test_table1_enumerate_and_check_print_one_row_per_divisor(capsys):
    """The `table1` rows of a surface are its `enumerate` rows with the
    surface's name, degree, s and r in place of the conditions, or one "---"
    row where `enumerate` finds nothing; `check` on each of the 15 divisors
    passes and prints its `enumerate` row with the status and surface."""

    def without(row, *keys):
        return {k: v for k, v in row.items() if k not in keys}

    code, table = run_json(capsys, ["table1"])
    assert code == 0
    checked = 0
    for name in realdp.catalog.SURFACE_NAMES:
        rows = [row for row in table if row["surface"] == name]
        code, found = run_json(capsys, ["enumerate", name])
        assert code == 0
        if not found:
            assert [row["rendered"] for row in rows] == ["---"], name
            continue
        assert [without(row, "surface", "degree", "s", "r") for row in rows] == [
            without(row, "conditions") for row in found], name
        for row in found:
            code, payload = run_json(capsys, ["check", name, *map(str, row["divisor"]["coeffs"])])
            assert (code, payload["status"], payload["surface"]) == (0, "pass", name)
            assert without(payload, "status", "surface") == row
            checked += 1
    assert checked == 15


def test_conic_construct_unprintable_answer_exits_2_at_once(capsys, tmp_path):
    """Splitting [42, 43, 43] (discriminant degree 256) with roots of 4,300
    digits: the constant term of p1, the product of its 84 numerators, has
    361,117 digits, so `construct` refuses before it multiplies the linear
    forms out, which takes 39 s (2-vCPU VM) and ends in the same line."""
    roots = [[str(10**4299 + 1000 * j + i) for i in range(2 * a)] for j, a in enumerate((42, 43, 43))]
    path = tmp_path / "construct.json"
    path.write_text(json.dumps({"splitting": [42, 43, 43], "roots": roots}))
    start = time.perf_counter()
    code, payload = run_json(capsys, ["conic", "construct", str(path)])
    assert time.perf_counter() - start < 5
    assert (code, payload) == (2, {
        "status": "error", "message": "an integer of 361117 digits exceeds the limit of 4,300 digits"})


def test_link_degenerate_input_exits_2(capsys, tmp_path):
    center = write_center_file(tmp_path)
    doc = {
        "cycles": [
            {
                "ambient": 2,
                "closure": "sphere",
                "points": [["1", "1", "0"], ["1", "0", "1"], ["1", "-1", "-1"]],
            }
        ]
    }
    path = tmp_path / "bad_cycle.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["link", str(path), center, "--degree", "2"])
    assert code == 2
    assert "perturb" in payload["message"]


def test_link_degree_below_one_exits_2(capsys, tmp_path):
    center = write_center_file(tmp_path)
    oval = write_cycles_file(tmp_path, ["1/4"])
    for degree in ("-3", "0"):
        argv = ["link", oval, center, "--degree", degree]
        code, payload = run_json(capsys, argv)
        assert code == 2
        assert payload == {"status": "error", "message": f"--degree must be at least 1, got {degree}"}
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --degree must be at least 1, got {degree}\n"


def write_power_file(tmp_path, degree):
    path = tmp_path / f"x0_{degree}.json"
    path.write_text(json.dumps({"degree": degree, "terms": [{"exponents": [degree, 0, 0, 0], "coeff": 1}]}))
    return str(path)


def test_hyp_degree_above_64_exits_2_at_once(capsys, tmp_path):
    argv = ["hyp", write_power_file(tmp_path, 65), "--point", "1,0,0,0"]
    start = time.perf_counter()
    code, payload = run_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert payload == {"status": "error", "message": "degree must be at most 64, got 65"}
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: degree must be at most 64, got 65\n"


def test_hyp_degree_64_still_answers(capsys, tmp_path):
    argv = ["hyp", write_power_file(tmp_path, 64), "--point", "1,0,0,0", "--trials", "1"]
    code, payload = run_json(capsys, argv)
    assert code in (0, 1) and payload["status"] in ("supported", "refuted")


def test_hyp_work_over_the_budget_exits_2_at_once(capsys, tmp_path):
    """The product of 32 nested spheres has degree 64, where one supported
    trial takes about 34 s, so the default 100 trials are refused before
    the polar forms or any trial.  A degree-2 document of 400 terms with
    distinct 1,000-digit denominators (about 420 KB), which took minutes
    to clear, is refused while it is read, once the common denominator of
    its coefficients passes 4,300 digits."""
    rng = random.Random(0)
    squares = [e for e in itertools.product(range(3), repeat=4) if sum(e) == 2]
    terms = [{"exponents": list(squares[i % 10]), "coeff": f"1/{rng.randrange(10**999, 10**1000)}"} for i in range(400)]
    denominators = tmp_path / "denominators.json"
    denominators.write_text(json.dumps({"degree": 2, "terms": terms}))
    spheres64 = write_form_file(tmp_path, "spheres64", nested_spheres(*range(1, 33)))
    for argv, message in [
        (["hyp", spheres64, "--point", "4,1,-1,1"],
         "100 trials at degree 64 would take about 3840 s, over the 60 s budget of hyp"),
        (["hyp", str(denominators), "--point", "1,0,0,0"],
         "the common denominator of the coefficients exceeds the limit of 4,300 digits"),
    ]:
        start = time.perf_counter()
        code, payload = run_json(capsys, argv)
        assert time.perf_counter() - start < 1
        assert (code, payload) == (2, {"status": "error", "message": message})
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_hyp_budget_admits_100_trials_at_degree_32(capsys, tmp_path):
    """100 trials at degree 32 fit the budget and 101 do not.  Every line
    meets x0^32 in one real point of multiplicity 32, so the run is quick."""
    path = write_power_file(tmp_path, 32)
    code, payload = run_json(capsys, ["hyp", path, "--point", "1,0,0,0", "--trials", "100"])
    assert code == 0 and payload["boundary_contacts"] == 100
    code, payload = run_json(capsys, ["hyp", path, "--point", "1,0,0,0", "--trials", "101"])
    assert code == 2 and payload["message"].startswith("101 trials at degree 32 would take about 60 s")


def test_hyp_sizes_over_the_budget_exit_2_before_any_trial(capsys, tmp_path, monkeypatch):
    """The golden refusals of 100,000 trials on the degree-10 product of the
    spheres of radii 1 to 5 from the centre (1, 10^-1000, 0, 0), about 7 s
    a trial, and on the same product with its outer radius^2 times 10^4000
    from [1:0:0:0], about 0.1 s a trial: in json and text, each exits 2 in
    under 1 s, refused from the sizes of the coefficients and the centre
    before `hyperbolicity_check` is called."""

    def never(*args):
        raise AssertionError("hyperbolicity_check was called")

    monkeypatch.setattr(cli, "hyperbolicity_check", never)
    cases = [c for c in golden.cases("hyp") if "budget of hyp" in c["stdout"] + c.get("stderr", "")]
    assert sorted(c["argv"][-1] for c in cases) == ["json", "json", "text", "text"]
    for case in cases:
        start = time.perf_counter()
        assert_replays(capsys, tmp_path, case)
        assert time.perf_counter() - start < 1


def test_hyp_trials_above_100000_exit_2_at_once(capsys, tmp_path):
    argv = ["hyp", write_sphere_file(tmp_path), "--point", "1,0,0,0", "--trials", "100001"]
    start = time.perf_counter()
    code, payload = run_json(capsys, argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert payload == {"status": "error", "message": "--trials must be at most 100000, got 100001"}
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --trials must be at most 100000, got 100001\n"


def test_hyp_100000_trials_still_answer(capsys, tmp_path):
    empty = {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1}
    argv = ["hyp", write_form_file(tmp_path, "empty", empty), "--point", "1,0,0,0", "--trials", "100000"]
    code, payload = run_json(capsys, argv)
    assert code == 1 and payload["status"] == "refuted"
    assert payload["trial"] == 1 and payload["trials"] == 100000


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_hyp_seed_outside_64_bits_exits_2(capsys, tmp_path, seed):
    """The generator works modulo 2^64, so -1 and 2^64 would silently act as
    2^64 - 1 and 0."""
    argv = ["hyp", write_sphere_file(tmp_path), "--point", "0,0,0,1", "--trials", "5", "--seed", str(seed)]
    code, payload = run_json(capsys, argv)
    assert code == 2
    assert payload == {"status": "error", "message": f"seed must lie in [0, 2^64), got {seed}"}


def test_hyp_seed_range_ends_still_answer(capsys, tmp_path):
    sphere = write_sphere_file(tmp_path)
    witnesses = set()
    for seed in (0, 2**64 - 1):
        code, payload = run_json(capsys, ["hyp", sphere, "--point", "0,0,0,1", "--trials", "5", "--seed", str(seed)])
        assert code == 1 and payload["status"] == "refuted"
        witnesses.add(tuple(payload["witness"]))
    assert len(witnesses) == 2


def write_conic_power_file(tmp_path, n):
    """A symmetric section on splitting [0, 0, n], whose discriminant has
    degree 2n, with coefficients in [-3, 3]."""
    splitting = [0, 0, n]
    entries = [[{"degree": splitting[i] + splitting[j],
                 "coeffs": [(k * k + i + j + 4 * i * j) % 7 - 3 for k in range(splitting[i] + splitting[j] + 1)]}
                for j in range(3)] for i in range(3)]
    path = tmp_path / f"conic_{n}.json"
    path.write_text(json.dumps({"splitting": splitting, "entries": entries}))
    return str(path)


def test_conic_discriminant_degree_above_256_exits_2_at_once(capsys, tmp_path):
    """A document whose discriminant degree 2(a1 + a2 + a3) is 258, above
    `cli._MAX_CONIC_DEGREE`, is refused when its splitting is read."""
    matrix = write_conic_power_file(tmp_path, 129)
    construction = tmp_path / "construction.json"
    construction.write_text(json.dumps({"splitting": [1, 1, 127], "roots": [[1, 2], [3, 4], list(range(5, 259))]}))
    for argv in (["conic", "discriminant", matrix], ["conic", "analyze", matrix],
                 ["conic", "construct", str(construction)]):
        start = time.perf_counter()
        code, payload = run_json(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert payload == {"status": "error", "message": "discriminant degree must be at most 256, got 258"}


def write_general_section(tmp_path, n, bits):
    """A general section on splitting [0, 0, n], whose discriminant has
    degree 2n, with seeded entries of up to `bits` bits."""
    rng = random.Random(f"{n}:{bits}")
    splitting = [0, 0, n]
    entries = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            degree = splitting[i] + splitting[j]
            coeffs = [rng.randint(1 - 2**bits, 2**bits - 1) for _ in range(degree + 1)]
            entries[i][j] = entries[j][i] = {"degree": degree, "coeffs": coeffs}
    path = tmp_path / f"general_{n}_{bits}.json"
    path.write_text(json.dumps({"splitting": splitting, "entries": entries}))
    return str(path)


@pytest.mark.parametrize("n, bits", [(64, 64), (32, 256)])
def test_conic_work_over_the_budget_exits_2_at_once(capsys, tmp_path, n, bits):
    """General sections of degree 128 with 64-bit entries and of degree 64
    with 256-bit entries, which took about 30 s each on a 2-vCPU VM at the
    faster of its two speeds, are over the 60 s budget at the slower one:
    both commands refuse them from the degree and the entry size alone, in
    json and in text, before any determinant."""
    path = write_general_section(tmp_path, n, bits)
    for command in ("discriminant", "analyze"):
        for fmt in ("json", "text"):
            start = time.perf_counter()
            code = main(["conic", command, path, "--format", fmt])
            assert time.perf_counter() - start < 1
            out, err = capsys.readouterr()
            assert code == 2
            message = json.loads(out)["message"] if fmt == "json" else err.removeprefix("error: ")
            assert message.rstrip("\n").count("\n") == 0 and "budget" in message
            assert f"degree {2 * n}" in message and f"{bits}-bit" in message


def test_conic_work_bound_predictions(tmp_path):
    """The bound alone, without the commands: `analyze` at discriminant
    degree 8 with 8192-bit entries (about 3 s on a 2-vCPU VM) is admitted,
    while degree 128 with 64-bit entries and degree 64 with 256-bit entries
    (about 30 s each) are still refused for both commands."""
    matrix = cli._conic_matrix_within_budget(write_general_section(tmp_path, 4, 8192), "analyze")
    assert 2 * sum(matrix.splitting) == 8
    for n, bits in ((64, 64), (32, 256)):
        for command in ("analyze", "discriminant"):
            with pytest.raises(ValueError, match="over the 60 s budget"):
                cli._conic_matrix_within_budget(write_general_section(tmp_path, n, bits), command)


def test_conic_discriminant_degree_16_with_1536_bit_entries_exits_2_at_once(capsys, tmp_path):
    """A degree-16 general section with 1,536-bit entries, whose rational-root
    search took 31 s cold at the slower of a 2-vCPU VM's two speeds (its
    2,048-bit sibling took up to 94 s at the faster one), is refused by
    `discriminant` at once; `analyze`, which runs no root search, admits it."""
    path = write_general_section(tmp_path, 8, 1536)
    start = time.perf_counter()
    code, payload = run_json(capsys, ["conic", "discriminant", path])
    assert time.perf_counter() - start < 1
    assert code == 2 and "degree 16 with 1536-bit entries" in payload["message"]
    assert "over the 60 s budget" in payload["message"]
    matrix = cli._conic_matrix_within_budget(path, "analyze")
    assert 2 * sum(matrix.splitting) == 16


def test_conic_discriminant_degree_256_still_answers(capsys, tmp_path):
    construction = tmp_path / "construction.json"
    construction.write_text(json.dumps({"splitting": [1, 1, 126], "roots": [[1, 2], [3, 4], list(range(5, 257))]}))
    code, payload = run_json(capsys, ["conic", "construct", str(construction)])
    assert code == 0 and payload["splitting"] == [1, 1, 126]


def write_form_file(tmp_path, name, form):
    degree = sum(next(iter(form)))
    terms = [{"exponents": list(e), "coeff": c} for e, c in sorted(form.items())]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"degree": degree, "terms": terms}))
    return str(path)


def test_hyp_on_every_monomial_of_degree_32_within_2_s(capsys, tmp_path):
    """The sum of the 6,545 monomials of degree 32, too large a document for
    the golden store: refuted at trial 1 with its pinned witness in under
    2 s; restriction to a line by monomial expansion took 4 to 5 s."""
    dense = {(a, b, c, 32 - a - b - c): 1 for a in range(33) for b in range(33 - a) for c in range(33 - a - b)}
    argv = ["hyp", write_form_file(tmp_path, "dense32", dense), "--point", "3,1,-1,2",
            "--trials", "1", "--seed", "0", "--format", "json"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 2
    assert capsys.readouterr() == (
        '{"boundary_contacts":0,"status":"refuted","trial":1,"trials":1,'
        '"witness":["8973/5701","1234/815","-2086/697","-3929/6941"]}\n', "")


def test_json_payloads_round_trip(capsys, tmp_path):
    sphere = write_sphere_file(tmp_path)
    commands = [
        ["table1"],
        ["enumerate", "G2_1_0"],
        ["check", "B1", "-3"],
        ["conic", "conditions", "5", "3", "1"],
        ["conic", "chow", "2", "1"],
        ["hyp", sphere, "--point", "1,0,0,0", "--trials", "5", "--seed", "7"],
    ]
    for argv in commands:
        _, out = run(capsys, argv + ["--format", "json"])
        payload = json.loads(out)
        assert canonical_json(payload) == out.strip()


def test_parser_refusals_are_one_line_on_stderr(capsys):
    """argparse's own refusals exit 2 with one `error:` line on stderr and no
    usage block, in both formats: the parser refuses before --format is
    read.  -h still prints the help and exits 0."""
    as_json = ["--format", "json"]
    cases = (
        ([], "the following arguments are required: command"),
        (["conic"], "the following arguments are required: subcommand"),
        (["enumerate", "XYZ", *as_json], "argument surface: invalid choice: 'XYZ' (choose from "),
        (["check", "D2", *as_json], "the following arguments are required: coeffs"),
        (["hyp", "f.json"], "the following arguments are required: --point"),
        (["hyp", "f.json", *as_json], "the following arguments are required: --point"),
        (["table1", "extra", *as_json], "unrecognized arguments: extra"),
    )
    for argv, message in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert (out, err.startswith(f"error: {message}"), err.count("\n")) == ("", True, 1), argv
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: realdp enumerate")


# Every leaf command, its minimal arguments, and its handler.
LEAF_COMMANDS = [
    (["table1"], [], cli._cmd_table1),
    (["enumerate"], ["B1"], cli._cmd_enumerate),
    (["check"], ["B1", "-3"], cli._cmd_check),
    (["conic", "conditions"], ["5", "3", "1"], cli._cmd_conic_conditions),
    (["conic", "candidate"], ["5"], cli._cmd_conic_candidate),
    (["conic", "chow"], ["2", "1"], cli._cmd_conic_chow),
    (["conic", "discriminant"], ["m.json"], cli._cmd_conic_discriminant),
    (["conic", "analyze"], ["m.json"], cli._cmd_conic_analyze),
    (["conic", "construct"], ["c.json"], cli._cmd_conic_construct),
    (["hyp"], ["f.json", "--point", "1,0,0,0"], cli._cmd_hyp),
    (["link"], ["c.json", "e.json", "--degree", "2"], cli._cmd_link),
]


def test_help_available_per_subcommand():
    """Every parser has --help, and every leaf command --format and its
    handler, which a leaf declared outside `command()` in `build_parser`
    would lack."""
    for argv in ([], ["conic"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--help"])
        assert exc.value.code == 0, argv
    for leaf, arguments, handler in LEAF_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main(leaf + ["--help"])
        assert exc.value.code == 0, leaf
        args = cli.build_parser().parse_args(leaf + arguments + ["--format", "json"])
        assert args.format == "json" and args.handler is handler, leaf


def rational_slots(tmp_path):
    """One argv builder per place the CLI reads a rational: a hypersurface
    coefficient, a cycle point, a centre normal, a construction root and a
    --point entry.  Each builder writes its own documents."""
    sphere = write_sphere_file(tmp_path)
    center = write_center_file(tmp_path)
    nested = write_cycles_file(tmp_path, ["1/4", "1/2"], name="nested.json")
    count = itertools.count()

    def write(doc):
        path = tmp_path / f"slot{next(count)}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def coefficient(value):
        doc = json.loads(pathlib.Path(sphere).read_text())
        doc["terms"][0]["coeff"] = value
        return ["hyp", write(doc), "--point", "1,0,0,0", "--trials", "5"]

    def cycle_point(value):
        doc = json.loads(pathlib.Path(nested).read_text())
        doc["cycles"][0]["points"][0][1] = value
        return ["link", write(doc), center, "--degree", "4"]

    def normal(value):
        doc = {"normals": [["0", value, "0"], ["0", "0", "1"]]}
        return ["link", nested, write(doc), "--degree", "4"]

    def root(value):
        doc = {"splitting": [1, 1, 1], "roots": [[value, 5], [1, -1], [3, -3]]}
        return ["conic", "construct", write(doc)]

    def point(value):
        return ["hyp", sphere, "--point", f"1,0,0,{value}", "--trials", "5"]

    return (coefficient, cycle_point, normal, root, point)


def test_documented_rationals_are_accepted(capsys, tmp_path):
    slots = rational_slots(tmp_path)
    for value in ("-3/4", "+2", "7"):
        for build in slots:
            argv = build(value)
            code, payload = run_json(capsys, argv)
            assert code in (0, 1), (argv, payload)


def test_huge_exponent_rational_exits_2_at_once(tmp_path):
    sphere = write_sphere_file(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(realdp.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "realdp", "hyp", sphere, "--point", "1e1000000,0,0,1", "--trials", "1"],
        capture_output=True, text=True, timeout=5, env=env,
    )
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == "error: expected an integer or 'p/q' string, got '1e1000000'\n"


def test_integers_past_4300_digits_exit_2_with_one_message(capsys, tmp_path):
    """An integer of more than 4,300 digits, as a JSON literal or in a "p/q"
    string, in a document or on the command line, is refused with the CLI's
    own one-line message, not Python's, whatever the Python version; one of
    4,300 digits is read."""

    def sphere_with(coeff):
        doc = {"degree": 2, "terms": [{"exponents": [0, 2, 0, 0], "coeff": "COEFF"},
                                      {"exponents": [2, 0, 0, 0], "coeff": -1}]}
        path = tmp_path / f"sphere{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(doc).replace('"COEFF"', coeff))
        return str(path)

    long, longer = "7" * 4300, "7" * 4301
    refused = [
        ["hyp", sphere_with(longer), "--point", "1,0,0,0"],
        ["hyp", sphere_with("-" + longer), "--point", "1,0,0,0"],
        ["hyp", sphere_with(f'"{longer}"'), "--point", "1,0,0,0"],
        ["hyp", sphere_with(f'"-1/{longer}"'), "--point", "1,0,0,0"],
        ["hyp", sphere_with(f'"+{longer}/3"'), "--point", "1,0,0,0"],
        ["hyp", sphere_with("1"), "--point", f"1,{longer},0,0"],
    ]
    for argv in refused:
        code = main(argv + ["--trials", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv[1:]
        assert captured.err == "error: an integer of 4301 digits exceeds the limit of 4,300 digits\n"
    for coeff in (long, "-" + long, f'"{long}/{long}"', f'"-{long}"'):
        code, payload = run_json(capsys, ["hyp", sphere_with(coeff), "--point", "1,0,0,0", "--trials", "1"])
        assert code in (0, 1) and payload["status"] != "error", coeff[:5]


def test_integer_arguments_past_4300_digits_exit_2_with_one_message(capsys, tmp_path):
    """Every integer on the command line, a `check` coefficient, the
    integers of `conic conditions`, `candidate` and `chow`, and --trials,
    --seed and --degree, goes through the reader of JSON literals: past
    4,300 digits it gets that refusal in json and text, after the name of
    the argument as argparse gives it, not argparse's usage text, while a
    sign and 4,300 digits are read as the number; text that is not an
    optional sign and digits is refused with exit 2 too, and shown cut to
    its first 20 characters."""
    sphere, center = write_sphere_file(tmp_path), write_center_file(tmp_path)
    cycles = write_cycles_file(tmp_path, ["1/4", "1/2"], name="nested.json")
    slots = (
        ("coeffs", lambda n: ["check", "D2", "1", n]),
        ("s", lambda n: ["conic", "conditions", n, "1", "1"]),
        ("a", lambda n: ["conic", "conditions", "3", n, "1"]),
        ("b", lambda n: ["conic", "conditions", "3", "1", n]),
        ("s", lambda n: ["conic", "candidate", n]),
        ("a", lambda n: ["conic", "chow", n, "0"]),
        ("c", lambda n: ["conic", "chow", "0", n]),
        ("--trials", lambda n: ["hyp", sphere, "--point", "1,0,0,0", "--trials", n]),
        ("--seed", lambda n: ["hyp", sphere, "--point", "1,0,0,0", "--trials", "1", "--seed", n]),
        ("--degree", lambda n: ["link", cycles, center, "--degree", n]),
    )
    for name, build in slots:
        message = f"argument {name}: an integer of 4301 digits exceeds the limit of 4,300 digits"
        for value in ("7" * 4301, "-" + "7" * 4301, "+" + "7" * 4301):
            argv = build(value)
            assert run_json(capsys, argv) == (2, {"status": "error", "message": message}), argv[:2]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        for value in ("1_0", "1e3", " 2", "0x1", "\u0663"):  # int() reads the first and the last
            assert run_json(capsys, build(value)) == (
                2, {"status": "error", "message": f"argument {name}: expected an integer, got {value!r}"}
            ), value
        code, payload = run_json(capsys, build("x" * 4301))
        assert payload["message"] == f"argument {name}: expected an integer, got {'x' * 20 + '...'!r}"
    assert run_json(capsys, ["conic", "candidate", "+" + "0" * 4299 + "5"]) == run_json(capsys, ["conic", "candidate", "5"])


def test_answers_past_4300_digits_exit_2_with_one_message(capsys):
    """An admitted input whose answer holds an integer of more than 4,300
    digits is refused before anything is printed, in json and in text, with
    the message of the input refusal; the digit count is exact at the
    powers of ten around the limit."""
    nines = "9" * 4300  # s + 3 and s + 4 of the answers pass 4,300 digits
    for argv in (["conic", "candidate", nines], ["conic", "chow", "0", nines]):
        code, payload = run_json(capsys, argv)
        assert (code, payload["status"]) == (2, "error"), argv[1]
        assert payload["message"] == "an integer of 4301 digits exceeds the limit of 4,300 digits"
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: an integer of 4301 digits exceeds the limit of 4,300 digits\n"
    for value, digits in ((10**4300, 4301), (1 - 10**4301, 4301), (10**4301, 4302), ([{"x": (3, -10**9000)}], 9001)):
        with pytest.raises(ValueError, match=f"^an integer of {digits} digits exceeds"):
            cli._answer(value)
    assert cli._answer([10**4300 - 1, {"x": (1 - 10**4300,)}])[0] == 10**4300 - 1


def test_malformed_documents_exit_2(capsys, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text('"just a string"')
    wrong_dim = tmp_path / "wrong_dim.json"
    wrong_dim.write_text(
        json.dumps({"cycles": [{"ambient": 2, "closure": "sphere",
                                "points": [["1", "2"], ["1", "3"]]}]})
    )
    center = write_center_file(tmp_path)
    sphere = write_sphere_file(tmp_path)
    nested = write_cycles_file(tmp_path, ["1/4", "1/2"], name="nested.json")
    no_normals = tmp_path / "no_normals.json"
    no_normals.write_text(json.dumps({"normals": []}))
    list_chain = tmp_path / "list_chain.json"
    list_chain.write_text(json.dumps({"normals": [["0", "1", "0"], ["0", "0", "1"]], "chain": []}))
    scalar_roots = tmp_path / "scalar_roots.json"
    scalar_roots.write_text(json.dumps({"splitting": [1, 1, 1], "roots": 5}))
    scalar_cycles = tmp_path / "scalar_cycles.json"
    scalar_cycles.write_text(json.dumps({"cycles": 3}))
    short_splitting = tmp_path / "short_splitting.json"
    short_splitting.write_text(json.dumps({"splitting": [1, 1], "roots": [[1, 2], [3, 4]]}))
    long_splitting = tmp_path / "long_splitting.json"
    long_splitting.write_text(json.dumps({"splitting": [1, 1, 1, 1], "roots": [[1, 2], [3, 4], [5, 6], [7, 8]]}))
    negative_degree = tmp_path / "negative_degree.json"
    negative_degree.write_text(json.dumps({"degree": -1, "terms": []}))

    def document(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    # lists of rationals written as strings or objects, whose characters or keys would read as rationals
    arrays = [
        ["conic", "construct", document("string_roots", {"splitting": [1, 1, 1], "roots": ["12", "34", "56"]})],
        ["conic", "construct", document("object_roots", {
            "splitting": [1, 1, 1], "roots": [{"1": 0, "2": 0}, {"3": 0, "4": 0}, {"5": 0, "6": 0}]})],
        ["conic", "construct", document("keyed_roots", {"splitting": [1, 1, 1], "roots": {"12": 0, "34": 0, "56": 0}})],
        ["link", document("string_points", {
            "cycles": [{"ambient": 2, "closure": "sphere", "points": ["102", "012", "111"]}]}), center, "--degree", "2"],
        ["link", nested, document("string_normals", {"normals": ["100", "010"]}), "--degree", "4"],
        ["link", nested, document("string_chain", {
            "normals": [["0", "1", "0"], ["0", "0", "1"]], "chain": {"normals": ["001"]}}), "--degree", "4"],
    ]
    cases = [
        ["conic", "analyze", str(junk)],
        ["conic", "construct", str(junk)],
        ["conic", "construct", str(scalar_roots)],
        ["hyp", str(junk), "--point", "1,0,0,0"],
        ["hyp", sphere, "--point", "1,0,0"],
        ["hyp", sphere, "--point", "a,b,c,d"],
        ["link", str(wrong_dim), center, "--degree", "2"],
        ["link", str(tmp_path / "missing.json"), center, "--degree", "2"],
        ["link", nested, str(no_normals), "--degree", "4"],
        ["link", nested, str(list_chain), "--degree", "4"],
        ["link", str(scalar_cycles), center, "--degree", "4"],
        ["conic", "construct", str(short_splitting)],
        ["conic", "construct", str(long_splitting)],
        ["hyp", str(negative_degree), "--point", "1,0,0,0"],
        *arrays,
    ]
    slots = rational_slots(tmp_path)
    for value in ("1e5", "0.5", "1_000", " 3/4"):  # outside the documented grammar
        cases += [build(value) for build in slots]
    for argv in cases:
        code, payload = run_json(capsys, argv)
        assert code == 2, argv
        assert payload["status"] == "error"
        if argv[-1] in (str(short_splitting), str(long_splitting)):
            assert "splitting" in payload["message"], payload
        if str(negative_degree) in argv:
            assert payload["message"] == "degree must be nonnegative", payload
        if argv in arrays:
            assert payload["message"].startswith("malformed ") and "expected an array" in payload["message"], payload
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), argv


def test_deeply_nested_documents_exit_2(capsys, tmp_path):
    """A document nested past the interpreter's recursion limit is bad input
    for every command that reads one, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    center, cycles = write_center_file(tmp_path), write_cycles_file(tmp_path, ["1/2"])
    cases = [
        ["conic", "discriminant", str(deep)],
        ["conic", "analyze", str(deep)],
        ["conic", "construct", str(deep)],
        ["hyp", str(deep), "--point", "1,0,0,0"],
        ["link", str(deep), center, "--degree", "2"],
        ["link", cycles, str(deep), "--degree", "2"],
    ]
    for argv in cases:
        code, payload = run_json(capsys, argv)
        assert code == 2 and payload == {"status": "error", "message": f"{deep} is nested too deeply to read"}, argv
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == f"error: {deep} is nested too deeply to read\n", argv


@pytest.mark.parametrize("slot", ["conic discriminant", "conic analyze", "conic construct", "hyp", "link cycles", "link center"])
def test_documents_that_are_not_json_exit_2(capsys, tmp_path, slot):
    truncated = tmp_path / "truncated.json"
    truncated.write_text('{"degree": 2,')
    doc = str(truncated)
    center, cycles = write_center_file(tmp_path), write_cycles_file(tmp_path, ["1/2"])
    argv = {
        "conic discriminant": ["conic", "discriminant", doc],
        "conic analyze": ["conic", "analyze", doc],
        "conic construct": ["conic", "construct", doc],
        "hyp": ["hyp", doc, "--point", "1,0,0,0"],
        "link cycles": ["link", doc, center, "--degree", "2"],
        "link center": ["link", cycles, doc, "--degree", "2"],
    }[slot]
    prefix = f"{doc} is not valid JSON: "
    code, payload = run_json(capsys, argv)
    assert code == 2 and payload["status"] == "error" and payload["message"].startswith(prefix), payload
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {prefix}") and captured.err.count("\n") == 1, captured.err


def test_bad_rationals_exit_2(capsys, tmp_path):
    sphere = write_sphere_file(tmp_path)
    code, payload = run_json(capsys, ["hyp", sphere, "--point", "1,0,0,1/0"])
    assert code == 2 and payload["status"] == "error"
    assert "zero denominator" in payload["message"]
    for coeff in ("1/0", True):
        doc = json.loads(pathlib.Path(sphere).read_text())
        doc["terms"][0]["coeff"] = coeff
        path = tmp_path / "bad_coeff.json"
        path.write_text(json.dumps(doc))
        code, payload = run_json(capsys, ["hyp", str(path), "--point", "1,0,0,0"])
        assert code == 2 and payload["status"] == "error", coeff
    code, out = run(capsys, ["hyp", sphere, "--point", "1,0,0,1/0"])
    assert code == 2 and out == ""


def test_non_integer_fields_exit_2(capsys, tmp_path):
    matrix = json.loads(pathlib.Path(write_matrix_file(tmp_path, worked_conic_matrix())).read_text())
    sphere = json.loads(pathlib.Path(write_sphere_file(tmp_path)).read_text())
    cycles = json.loads(pathlib.Path(write_cycles_file(tmp_path, ["1/2"])).read_text())
    construct = {"splitting": [1, 1, 1], "roots": [[0, 5], [1, -1], [2, -2]]}
    center = write_center_file(tmp_path)
    # (command, document, key path of one integer field, trailing arguments)
    cases = [
        (["conic", "discriminant"], matrix, ("splitting", 0), []),
        (["conic", "discriminant"], matrix, ("entries", 0, 0, "degree"), []),
        (["conic", "analyze"], matrix, ("entries", 0, 0, "coeffs", 1), []),
        (["conic", "construct"], construct, ("splitting", 2), []),
        (["hyp"], sphere, ("degree",), ["--point", "1,0,0,0"]),
        (["hyp"], sphere, ("terms", 0, "exponents", 1), ["--point", "1,0,0,0"]),
        (["link"], cycles, ("cycles", 0, "ambient"), [center, "--degree", "2"]),
    ]
    path = tmp_path / "bad.json"
    for command, doc, keys, tail in cases:
        for value in (1.7, True, "3"):
            bad = json.loads(json.dumps(doc))
            field = bad
            for key in keys[:-1]:
                field = field[key]
            field[keys[-1]] = value
            path.write_text(json.dumps(bad))
            argv = command + [str(path)] + tail
            code, payload = run_json(capsys, argv)
            assert code == 2 and payload["status"] == "error", (argv, keys, value)
            assert "expected an integer" in payload["message"], (argv, keys, value)
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("value", [1.7, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", ["conic degree", "conic coeffs", "hyp exponents", "link ambient"])
def test_fields_checked_by_their_constructor_name_the_value(capsys, tmp_path, field, value):
    """The parsers hand these fields to `BinaryForm`, `HypersurfaceSpec` and
    `PLCycle` unchecked; the constructor's refusal is the whole message, in
    both formats, and names the offending value."""
    if field.startswith("conic"):
        doc = json.loads(pathlib.Path(write_matrix_file(tmp_path, worked_conic_matrix())).read_text())
        cell = doc["entries"][0][0]
        if field == "conic degree":
            cell["degree"] = value
        else:
            cell["coeffs"][-1] = value
        argv, tail = ["conic", "discriminant"], []
    elif field == "hyp exponents":
        doc = json.loads(pathlib.Path(write_sphere_file(tmp_path)).read_text())
        doc["terms"][0]["exponents"][1] = value
        argv, tail = ["hyp"], ["--point", "1,0,0,0"]
    else:
        doc = json.loads(pathlib.Path(write_cycles_file(tmp_path, ["1/2"])).read_text())
        doc["cycles"][0]["ambient"] = value
        argv, tail = ["link"], [write_center_file(tmp_path), "--degree", "2"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    argv = argv + [str(path)] + tail
    message = f"expected an integer, got {value!r}"
    code, payload = run_json(capsys, argv)
    assert (code, payload) == (2, {"status": "error", "message": message})
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_conic_cell_with_bad_degree_and_coeffs_names_the_degree(capsys, tmp_path):
    doc = json.loads(pathlib.Path(write_matrix_file(tmp_path, worked_conic_matrix())).read_text())
    doc["entries"][1][2] = {"degree": "2", "coeffs": [0.5, 1, 1]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["conic", "analyze", str(path)])
    assert (code, payload) == (2, {"status": "error", "message": "expected an integer, got '2'"})


def test_conic_chow_negative_sphere_count_exits_2(capsys):
    code, payload = run_json(capsys, ["conic", "chow", "0", "-5"])
    assert code == 2 and payload["status"] == "error"
    assert "-5" in payload["message"]
    code, payload = run_json(capsys, ["conic", "chow", "-2", "3"])
    assert code == 0 and payload["s"] == 0


def test_internal_error_exits_3_with_traceback(capsys, tmp_path, monkeypatch):
    """A non-ValueError is a broken invariant, not bad input: it must not
    read as exit 1 (refuted) or exit 2 (invalid input)."""
    import realdp.cli

    def broken(matrix):
        raise RuntimeError("odd real root count for a squarefree real form")

    monkeypatch.setattr(realdp.cli, "analyze", broken)
    path = write_matrix_file(tmp_path, worked_conic_matrix())
    for fmt in ("text", "json"):
        code = main(["conic", "analyze", path, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("Traceback") and "RuntimeError: odd real root count" in captured.err
