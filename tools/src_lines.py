"""Print the physical lines and the code lines of each module of src/realdp,
and their totals, and under them those of tests/oracles.py, the test-only
counterparts of library routines, so that code moved from the library into
the oracles shows as a move and not as a deletion.  Code lines are the
non-blank lines that are neither comments nor docstrings.

Usage: python3 tools/src_lines.py
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "realdp"
ORACLES = ROOT / "tests" / "oracles.py"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path):
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = text.splitlines()
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(lines), code


total_physical = total_code = 0
for path in sorted(SRC.glob("*.py")):
    physical, code = counts(path)
    total_physical, total_code = total_physical + physical, total_code + code
    print(f"{path.name:16} {physical:6,} {code:6,}")
print(f"{'total':16} {total_physical:6,} {total_code:6,}")
physical, code = counts(ORACLES)
print(f"{'tests/oracles.py':16} {physical:6,} {code:6,}")
