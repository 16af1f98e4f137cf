"""No test-only API in ``src/``: every public top-level name has a caller.

Reads ``src/admatch/*.py`` and ``perfbench/*.py`` as source with ``ast``.
A public (no leading underscore) top-level function or class counts as
used when another statement of ``src/`` names it, or any benchmark file
does; a name used only inside its own definition, or only by tests, is
test-only API.
"""

import ast
from pathlib import Path

import admatch

SRC = Path(admatch.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# kept on purpose although only tests call them
ALLOWED = {
    "grad_check": "acceptance criterion 1's finite-difference gradient checker",
    "pq_decode": "the PQ tests' reconstruction oracle for the stored codes",
    "sum_all": "the scalar reducer that gradient checks differentiate",
}


def names_in(node: ast.AST) -> set[str]:
    """Every identifier ``node`` refers to: names, attributes, imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in sub.names)
    return found


def unused_public_names() -> set[str]:
    """Public top-level functions and classes of src/ that nothing but
    their own definition names, in src/ or in the benchmark."""
    used_by_bench = set()
    for path in PERFBENCH.glob("*.py"):
        used_by_bench |= names_in(ast.parse(path.read_text()))
    # (module, defined name or None, names referred to) per top-level statement
    statements = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((path.name, getattr(stmt, "name", None), names_in(stmt)))
    unused = set()
    for module, name, _ in statements:
        if name is None or name.startswith("_") or name in used_by_bench:
            continue
        if not any(
            name in refs for m, owner, refs in statements if (m, owner) != (module, name)
        ):
            unused.add(name)
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    assert unused_public_names() - set(ALLOWED) == set()


def test_every_allowed_name_is_still_defined_and_unused():
    # an entry that gains a caller, or whose definition goes, leaves the list
    assert set(ALLOWED) <= unused_public_names()
