"""The benchmark calls admatch by name; every name and call form must hold.

``perfbench/spans.py`` rebinds every ``(owner, attribute)`` in its
``TARGETS`` when a run is traced, and the workloads call admatch
functions with fixed positional counts and keyword names. A deleted or
renamed entry point, or a dropped parameter, would otherwise fail only a
benchmark run, not the test suite.

The call check reads ``perfbench/*.py`` as source and writes nothing. It
follows attribute chains that start at a name the file imports from
admatch (``pipeline.retrieve(...)``, ``model.MatchingModel.load(...)``);
calls on instances, such as ``st.index.pq_search(...)``, start at a
local value and are out of its reach.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def load_spans(monkeypatch):
    # read-only: leave no bytecode cache beside the benchmark's files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    spans = load_spans(monkeypatch)
    missing = []
    for owner, attr, _ in spans.TARGETS:
        # install() reads a class's own __dict__ and a module's attributes
        found = attr in owner.__dict__ if isinstance(owner, type) else hasattr(owner, attr)
        if not found:
            missing.append(f"{owner.__name__}.{attr}")
    assert missing == []


def admatch_imports(tree: ast.Module) -> dict[str, object]:
    """Names a file binds to admatch modules or their members."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "admatch":
                    continue
                if alias.asname:
                    bound[alias.asname] = importlib.import_module(alias.name)
                else:  # ``import admatch.x`` binds the package name
                    bound["admatch"] = importlib.import_module("admatch")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "admatch":
            module = importlib.import_module(node.module)
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                try:
                    member = importlib.import_module(full)
                except ModuleNotFoundError:
                    member = getattr(module, alias.name)
                bound[alias.asname or alias.name] = member
    return bound


def chain(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None unless it ends at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def resolve(names: list[str], bound: dict[str, object]):
    obj = bound[names[0]]
    for attr in names[1:]:
        obj = getattr(obj, attr)
    return obj


def check_admatch_calls(path: Path, checked: set[str]) -> list[str]:
    """Errors of every admatch chain and call in one file; the dotted names
    of the calls bound are added to ``checked``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = admatch_imports(tree)
    errors = []
    for node in ast.walk(tree):
        names = chain(node) if isinstance(node, ast.Attribute) else None
        call = node if isinstance(node, ast.Call) else None
        if call is not None:
            names = chain(call.func)
        if not names or names[0] not in bound:
            continue
        where = f"{path.name}:{node.lineno} {'.'.join(names)}"
        try:
            target = resolve(names, bound)
        except AttributeError as exc:
            errors.append(f"{where}: {exc}")
            continue
        if call is None or not callable(target):
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        positional = [None] * (0 if starred else len(call.args))
        keywords = {k.arg: None for k in call.keywords if k.arg is not None}
        try:
            inspect.signature(target).bind_partial(*positional, **keywords)
        except TypeError as exc:
            errors.append(f"{where}: {exc}")
        else:
            checked.add(".".join(names))
    return errors


def test_every_admatch_call_binds():
    checked: set[str] = set()
    errors = [
        e for path in sorted(PERFBENCH.glob("*.py")) for e in check_admatch_calls(path, checked)
    ]
    assert errors == []
    # the walk reaches the calls whose parameters the benchmark relies on
    assert {
        "evaluation.model_aucs",
        "pipeline.retrieve",
        "data.make_instances",
        "training.TrainConfig",
        "pipeline.PipelineConfig",
    } <= checked
