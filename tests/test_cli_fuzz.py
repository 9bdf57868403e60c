"""Fuzzing of the CLI on documents mutated from the worked examples.

Each example changes up to three parts of a worked conic matrix,
construction, hypersurface or cycles document: it puts a new number in a
leaf, replaces a part by a number or a value of the wrong type, deletes a
part or duplicates it.  Numbers go up to 2^64 in size; degrees, exponents,
splittings and ambient dimensions stay small, so that every valid document
is cheap to answer.  Whatever the document, the CLI must answer (exit 0 or
1) or reject it with exit 2 and one line on stderr, without a traceback and
within a time bound.
"""

import contextlib
import io
import json
import time

import pytest

from realdp.cli import main

st = pytest.importorskip("hypothesis.strategies")
from hypothesis import HealthCheck, given, settings  # noqa: E402  (after the skip check)

SECONDS_PER_CALL = 5
CAPPED = {"degree", "splitting", "exponents", "ambient"}
BIG = st.integers(-(2**64), 2**64)
SMALL = st.integers(-2, 8)
JUNK = st.sampled_from((None, True, 1.5, "x", "1/0", "3", "", [], {}, [[1]], {"degree": 1}))
RATIONAL_TEXT = st.builds(lambda p, q: f"{p}/{q}", BIG, BIG)


def _matrix():
    forms = ([0, 1, 0], [-1, 0, 1], [-4, 0, 1])  # diag(uv, u^2 - v^2, u^2 - 4v^2)
    return {
        "splitting": [1, 1, 1],
        "entries": [[{"degree": 2, "coeffs": forms[i] if i == j else [0, 0, 0]} for j in range(3)] for i in range(3)],
    }


def _hypersurface():
    squares = ([0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2], [2, 0, 0, 0])
    return {"degree": 2, "terms": [{"exponents": e, "coeff": c} for e, c in zip(squares, (1, 1, 1, -1))]}


def _cycles():
    def square(r):
        return {"ambient": 2, "closure": "sphere", "points": [["1", r, r], ["1", f"-{r}", r], ["1", f"-{r}", f"-{r}"], ["1", r, f"-{r}"]]}

    return {"cycles": [square("1/4"), square("1/2")]}


# name: (worked document, arguments before its path, arguments after it)
DOCUMENTS = {
    "analyze": (_matrix(), ["conic", "analyze"], []),
    "discriminant": (_matrix(), ["conic", "discriminant"], []),
    "construct": ({"splitting": [1, 1, 1], "roots": [[0, 5], [1, -1], [2, -2]]}, ["conic", "construct"], []),
    "hyp": (_hypersurface(), ["hyp"], ["--point", "1,0,0,0", "--trials", "3"]),
    "link": (_cycles(), ["link"], ["{center}", "--degree", "4"]),
}


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _capped(path):
    return any(key in CAPPED for key in path if isinstance(key, str))


@st.composite
def mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        action = draw(st.sampled_from(("number", "number", "number", "replace", "delete", "duplicate")))
        if action == "number":  # a new coefficient keeps the document valid more often
            paths = [p for p in paths if not (_capped(p) or isinstance(_node(doc, p), (list, dict)))] or paths
        path = draw(st.sampled_from(paths))
        parent, key = _node(doc, path[:-1]), path[-1]
        numbers = SMALL if _capped(path) else st.one_of(BIG, RATIONAL_TEXT)
        if action == "number":
            parent[key] = draw(numbers)
        elif action == "replace":
            parent[key] = draw(st.one_of(numbers, JUNK))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(json.loads(json.dumps(parent[key])))
        else:
            parent[key] = [parent[key]]
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "center.json").write_text(json.dumps({"normals": [["0", "1", "0"], ["0", "0", "1"]]}))
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_documents_are_answered_or_rejected_in_one_line(workdir, data):
    name = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    worked, head, tail = DOCUMENTS[name]
    path = workdir / "doc.json"
    path.write_text(json.dumps(data.draw(mutated(worked))))
    argv = head + [str(path)] + [arg.format(center=workdir / "center.json") for arg in tail]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < SECONDS_PER_CALL
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().count("\n") <= 1
    assert (code == 2) == err.getvalue().startswith("error: ")
