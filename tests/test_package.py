"""Package shape and the no-floating-point rule of the library."""

import ast
import inspect
import pathlib
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


def test_no_floating_point_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append(f"{path.name}:{node.lineno} float() call")
    assert found == []


def test_true_division_only_in_quotient():
    """The exact cores run over Z; `realroots._quotient` is the one place that
    may divide with `/` (and gives a Fraction only when the division is not
    exact)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "realroots.py":
            quotient = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_quotient")
            allowed = set(map(id, ast.walk(quotient)))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
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


# ---------------------------------------------------------------------------
# No floating point: integer input to realroots gives int or Fraction output

P = (1, 0, 3)  # 3t^2 + 1
Q = (-2, 1, 2, 3)  # 3t^3 + 2t^2 + t - 2
R = (0, 0, -1, 3, -3, 1)  # t^2 (t - 1)^3

INTEGER_CALLS = {
    "normalize": ((1, 2, 0, 0),),
    "degree": (P,),
    "evaluate": (Q, 3),
    "add": (P, Q),
    "neg": (Q,),
    "mul": (P, Q),
    "derivative": (Q,),
    "divmod_poly": (Q, (1, 2)),
    "gcd_poly": (realroots.mul(P, (1, 2)), realroots.mul(Q, (1, 2))),
    "primitive_part": ((4, -6, 2),),
    "squarefree_decomposition": (realroots.mul(R, (1, 2)),),
    "sturm_sequence": (Q,),
    "root_profile": (R,),
    "real_rooted_profile": (R,),
    "sturm_count": (R,),
    "rational_roots": (realroots.mul(R, (1, 2)),),
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
        assert kinds <= {int, bool, Fraction}, (name, kinds)


def test_exact_division_keeps_ints():
    quot, rem = realroots.divmod_poly(realroots.mul((3, 2), (-1, 5)), (-1, 5))
    assert quot == (3, 2) and rem == ()
    assert all(type(c) is int for c in quot)
    quot, rem = realroots.divmod_poly((1, 0, 1), (1, 2))
    assert quot == (Fraction(-1, 4), Fraction(1, 2)) and rem == (Fraction(5, 4),)


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
    from realdp.catalog import blow_up
    from realdp.lattice import ClassVector, IntLattice
    from realdp.topology import GreatSubsphere, HypersurfaceSpec, PLCycle, hyperbolicity_check
    from conftest import sphere_quadric

    lattice = builtin("D2").real_lattice
    sphere = sphere_quadric()
    form = conic.BinaryForm(0, (1,))
    return {
        "IntLattice.rank": lambda x: IntLattice(x, ("H",), ((1,),)),
        "IntLattice.gram": lambda x: IntLattice(1, ("H",), ((x,),)),
        "BinaryForm": lambda x: conic.BinaryForm(2, (x, 0, 1)),
        "BinaryForm.degree": lambda x: conic.BinaryForm(x, (1, 0)),
        "ConicMatrix": lambda x: conic.ConicMatrix((0, 0, x), ((form,) * 3,) * 3),
        "diagonal_matrix": lambda x: conic.diagonal_matrix((0, 0, x), (form, form, form)),
        "intersection_number.c": lambda x: conic.intersection_number(x, (1, 0), (1, 0), (1, 0)),
        "intersection_number.class": lambda x: conic.intersection_number(1, (1, 0), (x, 0), (1, 0)),
        "surface_class_identities.a": lambda x: conic.surface_class_identities(x, 1),
        "surface_class_identities.c": lambda x: conic.surface_class_identities(0, x),
        "necbundle_conditions.s": lambda x: conic.necbundle_conditions(x, 1, 1),
        "necbundle_conditions.a": lambda x: conic.necbundle_conditions(3, x, 1),
        "necbundle_conditions.b": lambda x: conic.necbundle_conditions(3, 1, x),
        "blow_up.real_points": lambda x: blow_up(builtin("Q31"), real_points=x),
        "blow_up.conj_pairs": lambda x: blow_up(builtin("Q31"), conj_pairs=x),
        "IntLattice.vector": lambda x: lattice.vector((x, -1)),
        "ClassVector": lambda x: ClassVector(lattice, (x, -1)),
        "ClassVector.__rmul__": lambda x: x * lattice.basis_vector(0),
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
    "all_real_restriction": "the public single-line certificate",
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
