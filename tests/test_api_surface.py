"""No test-only API in ``src/``: every public name has a caller.

Reads ``src/admatch/*.py`` and ``perfbench/*.py`` as source with ``ast``.
A public (no leading underscore) top-level function or class, or a
public method or property of a top-level class, counts as used when
``src/`` names it outside its own definition, or any benchmark file
names it: as an identifier, or as a string constant such as the
attribute names in ``perfbench/spans.py``'s ``TARGETS``. A name used only
inside its own definition, or only by tests, is test-only API. Names are
matched by their last part, so ``load`` used anywhere counts for every
class's ``load``.
"""

import ast
from collections import Counter
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


def name_counts(node: ast.AST) -> Counter:
    """How often ``node`` refers to each identifier: names, attributes, imports."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in sub.names)
    return found


def bench_names() -> set[str]:
    """Every identifier and identifier-shaped string the benchmark holds."""
    found = set()
    for path in PERFBENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        found |= set(name_counts(tree))
        found |= {
            sub.value
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and sub.value.isidentifier()
        }
    return found


def public_definitions(tree: ast.Module):
    """(qualified name, name, node) of each public top-level function and
    class, and of each public method or property of a top-level class."""
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not stmt.name.startswith("_"):
            yield stmt.name, stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{stmt.name}.{member.name}", member.name, member


def unused_public_names() -> set[str]:
    """Public names of src/ that nothing but their own definition names,
    in src/ or in the benchmark."""
    used_by_bench = bench_names()
    total = Counter()
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        total += name_counts(tree)
        definitions += public_definitions(tree)
    return {
        qualified
        for qualified, name, node in definitions
        if name not in used_by_bench and total[name] == name_counts(node)[name]
    }


def test_every_public_name_has_a_caller_outside_tests():
    assert unused_public_names() - set(ALLOWED) == set()


def test_every_allowed_name_is_still_defined_and_unused():
    # an entry that gains a caller, or whose definition goes, leaves the list
    assert set(ALLOWED) <= unused_public_names()
