import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import realdp
from realdp.cli import canonical_json, main
from conftest import worked_conic_matrix


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


def test_table1_json(capsys):
    code, rows = run_json(capsys, ["table1"])
    assert code == 0
    assert len(rows) == 24
    d2_rows = [r for r in rows if r["surface"] == "D2"]
    assert {r["rendered"] for r in d2_rows} == {"F-K", "-F-3K"}


def test_table1_text_contains_row(capsys):
    code, out = run(capsys, ["table1"])
    assert code == 0
    assert ["D2", "2", "3", "0", "F-K", "6", "2", "yes"] in [l.split() for l in out.splitlines()]


def test_table1_json_byte_stable(capsys):
    _, out1 = run(capsys, ["table1", "--format", "json"])
    _, out2 = run(capsys, ["table1", "--format", "json"])
    assert out1 == out2
    payload = json.loads(out1)
    assert canonical_json(payload) == out1.strip()


GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")


def test_catalogue_stdout_matches_golden(capsys):
    """`table1`, `enumerate` on every surface and two `check`s, in json and
    text: exit code and stdout byte for byte as recorded in cli_golden.json."""
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert {c["argv"][1] for c in cases if c["argv"][0] == "enumerate"} == set(realdp.catalog.SURFACE_NAMES)
    for case in cases:
        assert run(capsys, case["argv"]) == (case["exit"], case["stdout"]), case["argv"]


def test_enumerate(capsys):
    code, payload = run_json(capsys, ["enumerate", "D2"])
    assert code == 0
    assert [d["rendered"] for d in payload] == ["-F-3K", "F-K"]
    assert payload[0]["divisor"]["basis"] == ["F", "K"]
    code, payload = run_json(capsys, ["enumerate", "Q31_0_4"])
    assert code == 0 and payload == []


def test_enumerate_unknown_surface_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "XYZ"])
    assert exc.value.code == 2


def test_check(capsys):
    code, payload = run_json(capsys, ["check", "D2", "1", "-1"])
    assert code == 0
    assert payload["status"] == "pass"
    assert payload["conditions"] == {f"c{i}": True for i in range(1, 6)}
    assert payload["ell"] == 6 and payload["genus"] == 2
    code, payload = run_json(capsys, ["check", "D2", "-1", "-1"])
    assert code == 1
    assert payload["status"] == "fail" and payload["conditions"]["c5"] is False


def test_check_wrong_rank_exits_2(capsys):
    code, payload = run_json(capsys, ["check", "D2", "1"])
    assert code == 2
    assert payload["status"] == "error"


def test_conic_conditions(capsys):
    code, payload = run_json(capsys, ["conic", "conditions", "3", "1", "1"])
    assert code == 0
    assert payload["conditions"] == {f"c{i}": True for i in range(1, 7)}
    code, payload = run_json(capsys, ["conic", "conditions", "3", "1", "2"])
    assert code == 1


def test_conic_candidate_and_chow(capsys):
    code, payload = run_json(capsys, ["conic", "candidate", "3"])
    assert code == 0
    assert payload == {"a": 1, "b": 1, "ell_lower_bound": 6, "genus": 2}
    code, payload = run_json(capsys, ["conic", "chow", "0", "3"])
    assert code == 0
    assert payload == {"KX2": 2, "s": 3, "x": 1, "y": -1}


def test_conic_matrix_commands(capsys, tmp_path):
    path = write_matrix_file(tmp_path, worked_conic_matrix())
    code, payload = run_json(capsys, ["conic", "analyze", path])
    assert code == 0
    assert payload["total"] == 6 and payload["real"] == 6 and payload["s"] == 3
    code, payload = run_json(capsys, ["conic", "discriminant", path])
    assert code == 0
    assert payload["degree"] == 6
    assert payload["coeffs"] == [0, 4, 0, -5, 0, 1, 0]
    assert payload["rendered"] == "u*v*(u - v)*(u + v)*(u - 2*v)*(u + 2*v)"


def test_conic_analyze_non_squarefree_exits_1(capsys, tmp_path):
    doc = {
        "splitting": [1, 1, 1],
        "entries": [
            [{"degree": 2, "coeffs": [0, 0, 1]}, {"degree": 2, "coeffs": [0, 0, 0]}, {"degree": 2, "coeffs": [0, 0, 0]}],
            [{"degree": 2, "coeffs": [0, 0, 0]}, {"degree": 2, "coeffs": [0, 0, 1]}, {"degree": 2, "coeffs": [0, 0, 0]}],
            [{"degree": 2, "coeffs": [0, 0, 0]}, {"degree": 2, "coeffs": [0, 0, 0]}, {"degree": 2, "coeffs": [1, 2, 1]}],
        ],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["conic", "analyze", str(path)])
    assert code == 1
    assert payload["squarefree"] is False


def test_conic_construct(capsys, tmp_path):
    doc = {"splitting": [1, 1, 1], "roots": [[0, 5], [1, -1], [2, -2]]}
    path = tmp_path / "construct.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["conic", "construct", str(path)])
    assert code == 0
    assert payload["splitting"] == [1, 1, 1]
    diag = [payload["entries"][i][i]["coeffs"] for i in range(3)]
    assert diag[0] == [0, -5, 1]  # u(u - 5v)
    code, payload = run_json(capsys, ["conic", "analyze", str(path)])
    assert code == 2  # a construction document is not a matrix document


def test_conic_matrix_schema_violation_exits_2(capsys, tmp_path):
    doc = {"splitting": [1, 1, 1], "entries": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, ["conic", "analyze", str(path)])
    assert code == 2 and payload["status"] == "error"


def test_hyp_command(capsys, tmp_path):
    sphere = write_sphere_file(tmp_path)
    code, payload = run_json(capsys, ["hyp", sphere, "--point", "1,0,0,0", "--trials", "100", "--seed", "0"])
    assert code == 0 and payload["status"] == "supported"
    code, payload = run_json(capsys, ["hyp", sphere, "--point", "0,0,0,1", "--trials", "50", "--seed", "0"])
    assert code == 1 and payload["status"] == "refuted"
    assert payload["trial"] is not None and payload["trial"] <= 50
    code, payload = run_json(capsys, ["hyp", sphere, "--point", "1,1,0,0", "--trials", "5", "--seed", "0"])
    assert code == 2  # center lies on the hypersurface


def test_link_command(capsys, tmp_path):
    center = write_center_file(tmp_path)
    nested = write_cycles_file(tmp_path, ["1/4", "1/2"], name="nested.json")
    code, payload = run_json(capsys, ["link", nested, center, "--degree", "4"])
    assert code == 0
    assert payload["sum_abs"] == 4 and payload["hyperbolic"] is True
    single = write_cycles_file(tmp_path, ["1/4"], name="single.json")
    code, payload = run_json(capsys, ["link", single, center, "--degree", "4"])
    assert code == 1
    assert payload["sum_abs"] == 2 and payload["hyperbolic"] is False


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


def _form_product(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def nested_spheres(*radii):
    """The product of the spheres x1^2 + x2^2 + x3^2 = r^2 in the x0 = 1 chart."""
    form = {(0, 0, 0, 0): 1}
    for r in radii:
        form = _form_product(form, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 1, (2, 0, 0, 0): -r * r})
    return form


def dense_form(degree):
    """Every monomial of the given degree, with coefficient 1."""
    return {
        (a, b, c, degree - a - b - c): 1
        for a in range(degree + 1) for b in range(degree + 1 - a) for c in range(degree + 1 - a - b)
    }


def write_form_file(tmp_path, name, form):
    degree = sum(next(iter(form)))
    terms = [{"exponents": list(e), "coeff": c} for e, c in sorted(form.items())]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"degree": degree, "terms": terms}))
    return str(path)


INSIDE, FAR = "4,1,-1,1", "1,10,3,-2"

# name: (form, centre, trials, seed, exit code, JSON stdout); the stdout is
# that of the sampler with restrictions by monomial expansion and full Sturm
# chains.
PINNED_HYP = {
    "quadric_inside": (lambda: nested_spheres(1), INSIDE, 100, 3, 0,
        '{"boundary_contacts":0,"status":"supported","trial":null,"trials":100,"witness":null}'),
    "quartic_inside": (lambda: nested_spheres(1, 2), INSIDE, 100, 3, 0,
        '{"boundary_contacts":0,"status":"supported","trial":null,"trials":100,"witness":null}'),
    "sextic_inside": (lambda: nested_spheres(1, 2, 3), INSIDE, 100, 3, 0,
        '{"boundary_contacts":0,"status":"supported","trial":null,"trials":100,"witness":null}'),
    "quadric_far": (lambda: nested_spheres(1), FAR, 100, 5, 1,
        '{"boundary_contacts":0,"status":"refuted","trial":1,"trials":100,"witness":["-2981/6345","-187/355","-1555/1479","2099/1516"]}'),
    "quartic_far": (lambda: nested_spheres(1, 2), FAR, 100, 6, 1,
        '{"boundary_contacts":0,"status":"refuted","trial":3,"trials":100,"witness":["-73/1867","-2348/1975","-6445/7697","-6953/2127"]}'),
    "sextic_far": (lambda: nested_spheres(1, 2, 3), FAR, 100, 7, 1,
        '{"boundary_contacts":0,"status":"refuted","trial":4,"trials":100,"witness":["8941/6906","1463/8240","8447/1166","786/607"]}'),
    "x1_squared_sphere": (lambda: _form_product({(0, 2, 0, 0): 1}, nested_spheres(1)), INSIDE, 100, 3, 0,
        '{"boundary_contacts":100,"status":"supported","trial":null,"trials":100,"witness":null}'),
    "dense32": (lambda: dense_form(32), "3,1,-1,2", 1, 0, 1,
        '{"boundary_contacts":0,"status":"refuted","trial":1,"trials":1,"witness":["8973/5701","1234/815","-2086/697","-3929/6941"]}'),
}


@pytest.mark.parametrize("name", sorted(PINNED_HYP))
def test_hyp_output_is_pinned(capsys, tmp_path, name):
    form, center, trials, seed, code, expected = PINNED_HYP[name]
    argv = ["hyp", write_form_file(tmp_path, name, form()), "--point", center,
            "--trials", str(trials), "--seed", str(seed), "--format", "json"]
    start = time.perf_counter()
    assert main(argv) == code
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected + "\n", "")
    if name == "dense32":
        assert elapsed < 2  # restriction by monomial expansion took 4 to 5 s


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


def test_link_with_explicit_chain(capsys, tmp_path):
    nested = write_cycles_file(tmp_path, ["1/4", "1/2"], name="nested.json")
    path = tmp_path / "center_chain.json"
    path.write_text(
        json.dumps(
            {
                "normals": [["0", "1", "0"], ["0", "0", "1"]],
                "chain": {"normals": [["0", "1", "2"]]},
            }
        )
    )
    code, payload = run_json(capsys, ["link", nested, str(path), "--degree", "4"])
    assert code == 0 and payload["sum_abs"] == 4


def test_malformed_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--format", "yaml"])
    assert exc.value.code == 2


def test_help_available_per_subcommand():
    for argv in (["--help"], ["table1", "--help"], ["conic", "--help"], ["conic", "analyze", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


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
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), argv


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
