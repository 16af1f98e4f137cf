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

The workloads also pass the model lists of one-row column sets, from
``request_from_record``, ``ad_item_from_descriptor`` and
``make_instances``, where the program passes one built batch. The last
tests pin that the two shapes give the same bits.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from admatch import data, evaluation, training
from admatch.model import EncoderConfig, MatchingModel

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


# ----------------------------------------------------------------------
# the input shapes the workloads pass

ENCODER = EncoderConfig(
    item_dim=6, shop_dim=3, brand_dim=3, term_dim=6, profile_dim=3, gru_hidden=8,
    attention_hidden=8, tower_dims=(12, 10), prerank_hidden=8,
)


@pytest.fixture(scope="module")
def world():
    records, ads, _ = data.generate_synthetic(
        data.GeneratorConfig(seed=19, n_users=40, days=4, impressions_per_user_day=5,
                             n_items=120, n_categories=5)
    )
    vocab = data.build_vocab(records, 5000)
    splits = data.split_by_day(
        records, data.DatasetSplit(("2024-01-01", "2024-01-02", "2024-01-03"), "2024-01-04")
    )
    return records, ads, vocab, splits, MatchingModel(ENCODER, vocab.sizes, seed=19)


def test_a_list_of_one_row_requests_encodes_as_their_block(world):
    records, _, vocab, _, model = world
    m = ENCODER.behavior_window
    rows = [data.request_from_record(r, vocab, m) for r in records[:50]]
    block = data.request_columns(records[:50], vocab, m)
    assert model.qu_forward(rows).data.tobytes() == model.qu_forward(block).data.tobytes()


def test_a_list_of_one_row_ads_encodes_as_their_block(world):
    _, ads, vocab, _, model = world
    rows = [data.ad_item_from_descriptor(ad, vocab) for ad in ads[:30]]
    block = data.ad_columns(ads[:30], vocab)
    assert model.ad_forward(rows).data.tobytes() == model.ad_forward(block).data.tobytes()


def test_training_and_scoring_on_the_rows_equal_the_batch(world, tmp_path):
    _, _, vocab, splits, _ = world
    m = ENCODER.behavior_window
    shapes = {
        "rows": [list(data.make_instances(part, vocab, m)) for part in splits],
        "batch": [data.instance_batch(part, vocab, m) for part in splits],
    }
    assert len(shapes["rows"][0]) == len(shapes["batch"][0]) > 64
    outs = {}
    for shape, (tr, va, te) in shapes.items():
        model = MatchingModel(ENCODER, vocab.sizes, seed=7)
        config = training.TrainConfig(batch_size=64, max_epochs=2, patience=2, seed=7)
        result = training.train(model, tr, va, config)
        result.model.save(tmp_path / f"{shape}.ckpt")
        outs[shape] = (
            result.history,
            (tmp_path / f"{shape}.ckpt").read_bytes(),
            evaluation.model_aucs(result.model, te),
        )
    assert outs["rows"] == outs["batch"]
