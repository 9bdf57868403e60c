"""Package shape and the no-floating-point rule of the library."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import realdp
from realdp import realroots

SUBMODULES = ("catalog", "conic", "intlinalg", "lattice", "realroots", "search", "topology")
SRC = pathlib.Path(realdp.__file__).parent


def test_package_attributes_are_submodules():
    from realdp import search

    assert search is sys.modules["realdp.search"]
    for name in SUBMODULES:
        assert isinstance(getattr(realdp, name), types.ModuleType)
        assert f"realdp.{name}" in sys.modules


def test_cold_import_loads_neither_dataclasses_nor_inspect():
    """A fresh `import realdp`, and `import realdp.cli` that every command
    runs, leave out `dataclasses` and the `inspect` it pulls in (with `ast`,
    `dis` and `tokenize`): they cost about half of a cold `import realdp`."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    for module in ("realdp", "realdp.cli"):
        code = f"import sys, {module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
        assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", ""), module


# The integer functions of `math`; every other name there returns a float or
# acts on floats (sqrt, log, pi, inf, floor, ...).
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def _float_uses(source):
    """Float and complex literals, `float()` calls and names of `math`
    outside INTEGER_MATH, imported or read as attributes, in one module."""
    tree = ast.parse(source)
    math_aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno} literal {node.value!r}")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{node.lineno} float() call")
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{node.lineno} math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in math_aliases and node.attr not in INTEGER_MATH):
            found.append(f"{node.lineno} math.{node.attr}")
    return found


def test_no_floating_point_in_library():
    found = [f"{path.name}:{use}" for path in sorted(SRC.glob("*.py"))
             for use in _float_uses(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("from math import gcd, isqrt, lcm, comb", []),
        ("from math import sqrt", ["1 math.sqrt"]),
        ("from math import gcd, pi as PI", ["1 math.pi"]),
        ("from math import *", ["1 math.*"]),
        ("import math\nx = math.isqrt(8) + math.gcd(4, 6)", []),
        ("import math\nx = math.log(2)", ["2 math.log"]),
        ("import math as m\nx = m.inf", ["2 math.inf"]),
        ("x = 1e3 + float(2)", ["1 literal 1000.0", "1 float() call"]),
    ],
)
def test_float_guard_flags_float_names_of_math(source, flagged):
    assert sorted(_float_uses(source)) == sorted(flagged)


def test_no_true_division_in_library():
    """The exact cores run over Z: no `/` or `/=` anywhere in the library,
    so no division gives a Fraction or a float."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_realroots_imports_nothing_from_fractions():
    """`realroots` is integer-only: it neither imports `fractions` nor takes
    a name from it."""
    tree = ast.parse((SRC / "realroots.py").read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
             or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))]
    assert found == []


def test_conic_half_imports_nothing_of_the_lattice_half():
    """The library is two halves over `intlinalg`: `conic`, `realroots` and
    `topology` import nothing from `lattice`, `catalog` or `search`, so a
    command of the one half need not load the other."""
    lattice_half = {"lattice", "catalog", "search"}
    found = []
    for name in ("conic", "realroots", "topology"):
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = {(node.module or "").rsplit(".", 1)[-1]} | {a.name for a in node.names}
            elif isinstance(node, ast.Import):
                modules = {a.name.rsplit(".", 1)[-1] for a in node.names}
            else:
                continue
            found += [f"{name}.py:{node.lineno} {module}" for module in sorted(modules & lattice_half)]
    assert found == []


def test_one_dot_product_helper():
    """`intlinalg.dot` is the one module-level dot product of the library."""
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.lstrip("_").endswith("dot")
    ]
    assert found == ["intlinalg.py:dot"]


def test_one_determinant():
    """`intlinalg.determinant` is the one module-level determinant of a
    matrix of numbers: no other function is named for one or writes a
    cofactor sign (-1) ** k, as a hand-built adjugate or expansion would.
    `conic._determinant` is exempt: its entries are binary forms, and its
    determinant is the discriminant of a section.  So is
    `intlinalg._bareiss`, which neither test reaches: the pivots of its
    elimination are the leading principal minors that certify a form
    positive definite."""

    def cofactor_sign(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and ast.unparse(node.left) == "-1"

    found = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and (node.name.lstrip("_").startswith("det") or any(map(cofactor_sign, ast.walk(node))))
    ]
    assert found == ["conic.py:_determinant", "intlinalg.py:determinant"]


# ---------------------------------------------------------------------------
# No floating point and no Fraction: integer input to realroots gives int output

P = (1, 0, 3)  # 3t^2 + 1
Q = (-2, 1, 2, 3)  # 3t^3 + 2t^2 + t - 2
R = (0, 0, -1, 3, -3, 1)  # t^2 (t - 1)^3

INTEGER_CALLS = {
    "normalize": ((1, 2, 0, 0),),
    "degree": (P,),
    "add": (P, Q),
    "neg": (Q,),
    "mul": (P, Q),
    "derivative": (Q,),
    "deflate": (realroots.mul(Q, (-2, 3)), 2, 3),
    "gcd_poly": (realroots.mul(P, (1, 2)), realroots.mul(Q, (1, 2))),
    "primitive_part": ((4, -6, 2),),
    "squarefree_decomposition": (realroots.mul(R, (1, 2)),),
    "sturm_sequence": (Q,),
    "root_profile": (R,),
    "real_rooted_profile": (R,),
    "sturm_count": (R,),
    "rational_roots": (realroots.mul(R, (1, 2)),),
    "coprime": (realroots.mul(P, (1, 2)), realroots.mul(Q, (1, 2))),
}


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_integer_input_stays_exact():
    public = {
        name
        for name, obj in vars(realroots).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == realroots.__name__
    }
    assert public == set(INTEGER_CALLS)
    for name, args in INTEGER_CALLS.items():
        result = getattr(realroots, name)(*args)
        kinds = {type(x) for x in _leaves(result)}
        assert kinds <= {int, bool}, (name, kinds)


def _decorator_name(node):
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)


def test_no_cache_keyed_on_a_model():
    """Data computed per model lives on the model; no memoised function takes one."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not {"lru_cache", "cache"} & {_decorator_name(d) for d in node.decorator_list}:
                continue
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            for arg in args:
                annotation = ast.unparse(arg.annotation) if arg.annotation else ""
                if arg.arg == "model" or "SurfaceModel" in annotation:
                    found.append(f"{path.name}:{node.lineno} {node.name}({arg.arg})")
    assert found == []


# ---------------------------------------------------------------------------
# Strict integers: library constructors refuse what int() would truncate

NOT_INTEGERS = (True, 1.7, Fraction(3, 2), Fraction(2), "3")


def _strict_constructors():
    from realdp import conic
    from realdp.catalog import builtin
    from realdp.lattice import ClassVector, IntLattice, class_window
    from realdp.topology import GreatSubsphere, HypersurfaceSpec, PLCycle, hyperbolicity_check
    from conftest import sphere_quadric

    lattice, k = builtin("D2").real_lattice, builtin("D2").canonical
    sphere = sphere_quadric()
    form = conic.BinaryForm(0, (1,))
    return {
        "IntLattice.rank": lambda x: IntLattice(x, ("H",), ((1,),)),
        "IntLattice.gram": lambda x: IntLattice(1, ("H",), ((x,),)),
        "BinaryForm": lambda x: conic.BinaryForm(2, (x, 0, 1)),
        "BinaryForm.degree": lambda x: conic.BinaryForm(x, (1, 0)),
        "zero_form": conic.zero_form,
        "form_from_roots.degree": lambda x: conic.form_from_roots(x, (1,)),
        "construct_section": lambda x: conic.construct_section(x, 1, 1, ((1, 2), (3, 4), (5, 6))),
        "ConicMatrix": lambda x: conic.ConicMatrix((0, 0, x), ((form,) * 3,) * 3),
        "diagonal_matrix": lambda x: conic.diagonal_matrix((0, 0, x), (form, form, form)),
        "surface_class_identities.a": lambda x: conic.surface_class_identities(x, 1),
        "surface_class_identities.c": lambda x: conic.surface_class_identities(0, x),
        "necbundle_conditions.s": lambda x: conic.necbundle_conditions(x, 1, 1),
        "necbundle_conditions.a": lambda x: conic.necbundle_conditions(3, x, 1),
        "necbundle_conditions.b": lambda x: conic.necbundle_conditions(3, 1, x),
        "candidate_divisor": conic.candidate_divisor,
        "IntLattice.vector": lambda x: lattice.vector((x, -1)),
        "ClassVector": lambda x: ClassVector(lattice, (x, -1)),
        "class_window.self_int": lambda x: class_window(lattice, k, x, -1, 1),
        "class_window.k_min": lambda x: class_window(lattice, k, 1, x, 1),
        "class_window.k_max": lambda x: class_window(lattice, k, 1, -1, x),
        "HypersurfaceSpec": lambda x: HypersurfaceSpec(2, (((x, 1, 0, 0), 1), ((0, 0, 2, 0), 1))),
        "HypersurfaceSpec.degree": lambda x: HypersurfaceSpec(x, (((1, 0, 0, 0), 1),)),
        "GreatSubsphere.ambient": lambda x: GreatSubsphere(x, ((0, 0, 1),)),
        "PLCycle.ambient": lambda x: PLCycle(x, "sphere", ((1, 0, 1), (1, 1, 0))),
        "hyperbolicity_check.trials": lambda x: hyperbolicity_check(sphere, (1, 0, 0, 0), x, 0),
        "hyperbolicity_check.seed": lambda x: hyperbolicity_check(sphere, (1, 0, 0, 0), 1, x),
    }


@pytest.mark.parametrize("name", sorted(_strict_constructors()))
@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_library_constructors_reject_non_integers(name, value):
    with pytest.raises(ValueError, match="expected an integer"):
        _strict_constructors()[name](value)


def test_library_constructors_keep_integers():
    valid = {
        "ConicMatrix": 0,
        "diagonal_matrix": 0,
        "surface_class_identities.a": 2,
        "candidate_divisor": 2,
        "GreatSubsphere.ambient": 2,
        "PLCycle.ambient": 2,
    }
    for name, build in _strict_constructors().items():
        build(valid.get(name, 1))


def test_truncation_examples_are_refused():
    from realdp import conic
    from realdp.catalog import builtin
    from realdp.lattice import IntLattice

    with pytest.raises(ValueError):
        conic.BinaryForm(2, (Fraction(3, 2), 0, 1))
    with pytest.raises(ValueError):
        builtin("D2").real_lattice.vector((1.7, -1))
    with pytest.raises(ValueError):
        IntLattice(1, ("H",), ((1.5,),))  # v.dot(v) would return 1.5
    with pytest.raises(ValueError):
        conic.BinaryForm(2.0, (1, 0, 1))  # f * f would raise TypeError


def _input_checks():
    from realdp import conic
    from realdp.catalog import builtin
    from realdp.lattice import ClassVector, IntLattice, class_window
    from realdp.search import check_conditions
    from realdp.topology import GreatSubsphere, HypersurfaceSpec, PLCycle

    lattice, other = builtin("D2").real_lattice, builtin("B1").real_lattice
    not_a_member = "^classes do not belong to this lattice$"
    form = conic.BinaryForm(0, (1,))
    return {
        "IntLattice.rank": (lambda: IntLattice(0, (), ()), "rank must be positive"),
        "IntLattice.labels": (lambda: IntLattice(2, ("H", "H"), ((1, 0), (0, -1))), "labels must be distinct"),
        "IntLattice.gram size": (lambda: IntLattice(2, ("H", "E"), ((1, 0),)), "size must match the rank"),
        "IntLattice.gram symmetry": (lambda: IntLattice(2, ("H", "E"), ((1, 1), (0, -1))), "must be symmetric"),
        "builtin.unhashable": (lambda: builtin(["P2"]), "^unknown surface \\['P2'\\]; known: P2, Q31,"),
        "builtin.not_a_name": (lambda: builtin(3), "^unknown surface 3; known: P2, Q31,"),
        "ClassVector": (lambda: ClassVector(lattice, (1,)), "length must equal the lattice rank"),
        "ClassVector.dot": (lambda: lattice.vector((1, 0)).dot(other.vector((1,))), not_a_member),
        "check_conditions": (lambda: check_conditions(builtin("D2"), other.vector((1,))), not_a_member),
        "class_window": (lambda: class_window(lattice, other.vector((1,)), -1, 1, 1), "K does not belong"),
        "form_from_roots": (lambda: conic.form_from_roots(2, (1,)), "number of roots must equal the degree"),
        "ConicMatrix.splitting": (lambda: conic.ConicMatrix((-1, 0, 0), ((form,) * 3,) * 3), "a_i \\+ a_j must all be nonnegative"),
        "ConicMatrix.entries": (lambda: conic.ConicMatrix((0, 0, 0), ((form, form, 1),) * 3), "must be binary forms"),
        "HypersurfaceSpec": (lambda: HypersurfaceSpec(2, (((1, 0, 0, 0), 1),)), "declared total degree"),
        "GreatSubsphere.ambient": (lambda: GreatSubsphere(4, ((0, 0, 0, 0, 1),)),
                                   "ambient projective space must be RP\\^2 or RP\\^3"),
        "GreatSubsphere.normals": (lambda: GreatSubsphere(2, ((0, 0, 1, 0),)), "normals must have ambient \\+ 1 coordinates"),
        "PLCycle.ambient": (lambda: PLCycle(1, "sphere", ((1, 0), (0, 1))),
                            "ambient projective space must be RP\\^2 or RP\\^3"),
        "PLCycle.points": (lambda: PLCycle(2, "sphere", ((1, 0, 1),)), "a cycle needs at least two points"),
        "BinaryForm.infinity_multiplicity": (lambda: conic.BinaryForm(2, (0, 0, 0)).infinity_multiplicity(), "zero form"),
    }


@pytest.mark.parametrize("name", sorted(_input_checks()))
def test_library_input_checks(name):
    call, fragment = _input_checks()[name]
    with pytest.raises(ValueError, match=fragment):
        call()


def test_value_is_not_equal_to_its_fields():
    from realdp.conic import BinaryForm

    assert BinaryForm(0, (1,)) != (0, (1,))


# ---------------------------------------------------------------------------
# Strict rationals: library entry points take int and Fraction only; "p/q"
# strings are a CLI format

NOT_RATIONALS = (0.1, True, "1/2")


def _rational_entry_points():
    from realdp import conic, topology
    from realdp.topology import GreatSubsphere, HypersurfaceSpec, PLCycle
    from conftest import sphere_quadric

    sphere = sphere_quadric()
    return {
        "HypersurfaceSpec": lambda x: HypersurfaceSpec(2, (((2, 0, 0, 0), x), ((0, 2, 0, 0), 1))),
        "PLCycle": lambda x: PLCycle(2, "sphere", ((1, x, 1), (1, -1, 1), (1, 0, -1))),
        "GreatSubsphere": lambda x: GreatSubsphere(2, ((0, x, 1),)),
        "hyperbolicity_check": lambda x: topology.hyperbolicity_check(sphere, (1, x, 0, 0), 2, 0),
        "all_real_restriction.center": lambda x: topology.all_real_restriction(sphere, (1, x, 0, 0), (0, 1, 2, 3)),
        "all_real_restriction.point": lambda x: topology.all_real_restriction(sphere, (1, 0, 0, 0), (0, x, 2, 3)),
        "form_from_roots": lambda x: conic.form_from_roots(2, (x, 3)),
        "construct_section": lambda x: conic.construct_section(1, 1, 1, ((x, 5), (1, -1), (2, -2))),
    }


@pytest.mark.parametrize("name", sorted(_rational_entry_points()))
@pytest.mark.parametrize("value", NOT_RATIONALS, ids=repr)
def test_library_entry_points_reject_non_rationals(name, value):
    with pytest.raises(ValueError, match="expected an integer or Fraction"):
        _rational_entry_points()[name](value)


@pytest.mark.parametrize("name", sorted(_rational_entry_points()))
@pytest.mark.parametrize("value", (Fraction(1, 2), Fraction(-3), 0), ids=repr)
def test_library_entry_points_accept_int_and_fraction(name, value):
    _rational_entry_points()[name](value)


def test_rationals_are_coerced_in_one_place():
    """One-argument Fraction(...) converts or parses; only the CLI's "p/q"
    reader may do that (the strict check in intlinalg returns its input)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
                and len(node.args) + len(node.keywords) == 1
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# ---------------------------------------------------------------------------
# Dead code: the library holds only code that the library or the CLI calls

UNREFERENCED_BY_DESIGN = {
    "sturm_count": "wrapped by bench/tracer.py",
    "squarefree_decomposition": "wrapped by bench/tracer.py",
    "search": "wrapped by bench/tracer.py; `enumerate` and `table1` read the reports of search._passing",
    "all_real_restriction": "the public single-line certificate",
    "error": "cli._Parser.error, the hook argparse calls with each of its refusals",
}

# The guard skips dunder names: Python calls them, never the code by name.
# The library defines only those of the value protocol (`intlinalg.Value`
# and the `__post_init__` checks of its subclasses), which serve every
# value; it has no operators, so a class is paired and never added (the
# tests form sums with `oracles.combination`).
VALUE_PROTOCOL = {"__init__", "__init_subclass__", "__post_init__", "__setattr__", "__delattr__",
                  "__eq__", "__hash__", "__repr__"}

# The guard counts references by bare name, so it cannot tell apart two
# definitions of one name, nor a call of a function from a read of a field
# of that name: each such name is listed with where it is used.
SHARED_BY_DESIGN = {
    "dot": "intlinalg.dot on integer vectors; ClassVector.dot, the lattice pairing, reads the degree K.K in catalog",
    "passed": "the verdict of search.ConditionReport (cli check) and conic.BundleConditionReport (cli conic conditions)",
    "conditions_dict": "the per-condition JSON of the same two reports, read by the same two commands",
    "degree": "realroots.degree of a coefficient tuple, called in conic; also a field of SurfaceModel, "
              "BinaryForm and HypersurfaceSpec",
}


def _definitions(tree):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_library_function_is_called_in_the_library():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    counts = {}
    for tree in trees:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    unused = []
    for tree in trees:
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for ref in _references(node) if ref == name)  # recursion
            if counts.get(name, 0) == own and name not in UNREFERENCED_BY_DESIGN:
                unused.append(name)
    assert unused == []
    assert all(counts.get(name, 0) == 0 for name in UNREFERENCED_BY_DESIGN)
    dunders = {
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        if node.name.startswith("__") and node.name.endswith("__") and node.name not in VALUE_PROTOCOL
    }
    assert dunders == set()


def test_tracer_spans_resolve(monkeypatch):
    """Every (module, attribute) that `bench/tracer.py` wraps resolves after
    `import realdp.cli`, so a rename fails here and not only in the traced
    benchmark, and every allowlist entry kept for the tracer names one of
    its spans."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
    import realdp.cli  # noqa: F401  (loads what the tracer patches)

    tracer = importlib.import_module("tracer")
    for module, attr, _ in tracer.SPANS:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
    wrapped = {attr.rsplit(".", 1)[-1] for _, attr, _ in tracer.SPANS}
    for name, reason in UNREFERENCED_BY_DESIGN.items():
        if "wrapped by bench/tracer.py" in reason:
            assert name in wrapped, name


def _fields(tree):
    """The annotated names of top-level classes: the fields of the
    `NamedTuple` records and of the `intlinalg.Value` types."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from (n.target.id for n in node.body if isinstance(n, ast.AnnAssign))


def test_shared_definition_names_are_listed():
    """A name defined twice hides an unused definition from the guard above,
    and so does a top-level function named like a field, whose reads count
    as references (`report.very_ample` kept a function `very_ample` that
    nothing called), so every such name needs an entry in SHARED_BY_DESIGN."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    defined = {}
    for tree in trees:
        for node in _definitions(tree):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined[node.name] = defined.get(node.name, 0) + 1
    fields = {name for tree in trees for name in _fields(tree)}
    functions = {node.name for tree in trees for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "very_ample" in fields and "degree" in fields
    shared = {name for name, count in defined.items() if count > 1} | (functions & fields)
    assert shared == set(SHARED_BY_DESIGN)
