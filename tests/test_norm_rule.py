"""Only scalars, where the QQi part layout is defined, writes QQi parts:
no other module uses _norm, the rule that normalizes a QQi part, or
assigns to a .re or .im attribute.  Every other module adds QQi values
with QQi arithmetic, scalars._add_times (Scalar terms and the PBW kernel's
coefficients) or scalars._accumulate, so a second accumulator written out
on the parts has to be added here deliberately."""

import ast
from pathlib import Path

import ncspacetime

SRC = Path(ncspacetime.__file__).resolve().parent


def _targets(node):
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def _part_writes(name: str, source: str) -> list:
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_norm" \
                or isinstance(node, ast.alias) and node.name == "_norm":
            uses.append(f"{name}:{getattr(node, 'lineno', '?')} _norm")
        for target in _targets(node):
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and t.attr in ("re", "im"):
                    uses.append(f"{name}:{t.lineno} .{t.attr} =")
    return uses


def test_only_scalars_writes_qqi_parts():
    uses = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "scalars.py":
            uses += _part_writes(path.name,
                                 path.read_text(encoding="utf-8"))
    assert uses == []


def test_the_rule_finds_each_kind_of_write():
    """So an empty list over src/ is not an empty search."""
    source = ("from .scalars import _norm\n"
              "from . import scalars\n"
              "q.re = scalars._norm(x)\n"
              "v.im += 1\n"
              "a, (b.re, c) = 1, (2, 3)\n")
    assert sorted(_part_writes("m.py", source)) == [
        "m.py:1 _norm", "m.py:3 .re =", "m.py:3 _norm", "m.py:4 .im =",
        "m.py:5 .re ="]
