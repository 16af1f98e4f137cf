"""One binary framing: only ``admatch.artifact`` reads or writes bytes.

Reads ``src/admatch/*.py`` as source with ``ast``. A module other than
``artifact.py`` that imports ``base64``, ``struct`` or ``zlib``, opens a
file in a binary mode, or calls ``read_bytes``/``write_bytes`` is
building a second binary format beside ``artifact.write``/``Reader``.
"""

import ast
from pathlib import Path

import pytest

import admatch

SRC = Path(admatch.__file__).resolve().parent
CODECS = {"base64", "struct", "zlib"}


def _mode(call: ast.Call):
    """The constant mode of ``open(path, mode)`` or ``path.open(mode)``, if any."""
    at = 1 if isinstance(call.func, ast.Name) else 0
    given = call.args[at : at + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    for node in given:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
    return None


def binary_io(source: str) -> list[str]:
    """Each codec import, binary-mode ``open`` and bytes read or write in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in CODECS]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in CODECS:
            found.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr in ("read_bytes", "write_bytes"):
            found.append(node.attr)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            mode = _mode(node) if name == "open" else None
            if mode is not None and "b" in mode:
                found.append(f"open(..., {mode!r})")
    return found


def test_only_the_artifact_module_handles_bytes():
    offenders = {
        path.name: binary_io(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "artifact.py"
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_artifact_module_is_where_the_bytes_are():
    # the check looks at the right files: the framing itself trips it
    assert binary_io((SRC / "artifact.py").read_text())


@pytest.mark.parametrize(
    "source",
    [
        "import base64",
        "import zlib as z",
        "from struct import pack",
        "open(p, 'rb')",
        "open(p, mode='wb')",
        "p.open('ab')",
        "Path(p).read_bytes()",
        "p.write_bytes(b'')",
    ],
)
def test_each_kind_of_binary_io_is_caught(source):
    assert binary_io(source)


@pytest.mark.parametrize(
    "source", ["import json", "open(p)", "open(p, 'w', newline='')", "p.read_text()"]
)
def test_text_io_passes(source):
    assert binary_io(source) == []
