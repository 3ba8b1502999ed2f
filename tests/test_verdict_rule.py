"""Only report states the verdict of an exact check: no other module
builds a Check with a literal "pass" or "fail" status.  An exact check
goes through Check.exact (a fail with residual 1.0 and its failure, or a
pass with "exact-zero" and its note).  A numeric oracle check, whose
status is computed from its residual and a tolerance, and a "skip" check
stay allowed."""

import ast
from pathlib import Path

import ncspacetime

SRC = Path(ncspacetime.__file__).resolve().parent


def _status(call: ast.Call):
    if len(call.args) >= 2:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "status"), None)


def _literal_verdicts(name: str, source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        status = _status(node)
        if callee == "Check" and isinstance(status, ast.Constant) \
                and status.value in ("pass", "fail"):
            found.append(f"{name}:{node.lineno} {status.value}")
    return found


def test_only_report_states_an_exact_verdict():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "report.py":
            found += _literal_verdicts(path.name,
                                       path.read_text(encoding="utf-8"))
    assert found == []


def test_the_rule_finds_each_form():
    """So an empty list over src/ is not an empty search."""
    source = ('Check("a", "pass", EXACT_ZERO, "")\n'
              'report.Check("b", "fail", 1.0)\n'
              'Check("c", status="pass")\n'
              'Check("d", "skip", details="x")\n'
              'Check("e", status, worst, note)\n'
              'Check.exact("f", None, "note")\n')
    assert _literal_verdicts("m.py", source) == [
        "m.py:1 pass", "m.py:2 fail", "m.py:3 pass"]
