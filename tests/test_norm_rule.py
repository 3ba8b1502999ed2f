"""Only scalars, where the QQi part layout is defined, and the PBW kernel
(enveloping), which writes its sums out on the parts, use _norm, the rule
that normalizes a QQi part.  Every other module adds QQi values with QQi
arithmetic or scalars._accumulate, so a third accumulator written out on
the parts has to be added here deliberately."""

import ast
from pathlib import Path

import ncspacetime

SRC = Path(ncspacetime.__file__).resolve().parent
ALLOWED = {"scalars.py", "enveloping.py"}


def test_only_scalars_and_enveloping_import_norm():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ALLOWED:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "_norm":
                uses.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert uses == []
