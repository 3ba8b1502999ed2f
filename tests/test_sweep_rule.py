"""Only algebra finds a generating set: no other module calls
generating_set, so the shortcut "a defect that vanishes on a generating
set vanishes everywhere" and its full-sweep fallback stay in
algebra.sweep.  The one exception is cli.cmd_verify, which finds the set
of the clean full table once and hands it down to its checks."""

import ast
from pathlib import Path

import ncspacetime

SRC = Path(ncspacetime.__file__).resolve().parent

ALLOWED = {("cli.py", "cmd_verify")}


def _callee(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _generating_set_calls(name: str, source: str) -> list:
    """name:line of each generating_set call outside an allowed function,
    with the outermost function that holds it."""
    found = []

    def visit(node, outer):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and outer is None:
            outer = node.name
        if isinstance(node, ast.Call) \
                and _callee(node) == "generating_set" \
                and (name, outer) not in ALLOWED:
            found.append(f"{name}:{node.lineno} in {outer}")
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(ast.parse(source), None)
    return found


def test_only_algebra_finds_a_generating_set():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "algebra.py":
            found += _generating_set_calls(path.name,
                                           path.read_text(encoding="utf-8"))
    assert found == []


def test_the_rule_finds_each_form():
    """So an empty list over src/ is not an empty search."""
    source = ("def check(spec):\n"
              "    return generating_set(spec)\n"
              "def other(spec):\n"
              "    def inner():\n"
              "        return algebra.generating_set(spec)\n"
              "    return inner\n"
              "seeds = generating_set(SPEC)\n"
              "def cmd_verify(spec):\n"
              "    return generating_set(spec)\n")
    assert _generating_set_calls("reps.py", source) == [
        "reps.py:2 in check", "reps.py:5 in other", "reps.py:7 in None",
        "reps.py:9 in cmd_verify"]
    assert _generating_set_calls("cli.py", source) == [
        "cli.py:2 in check", "cli.py:5 in other", "cli.py:7 in None"]
