"""The names perfbench/tracing.py rebinds still resolve in the package.

The tracer instruments the package from outside, by rebinding functions
and methods by name and by identity (tracing._Patcher).  A renamed
function, a method moved to a base class, or a module holding its own
wrapper of a builder would make a traced metric silently read 0 or miss
calls.  This reads tracing.py and edits nothing under perfbench/.
"""

import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import ncspacetime
from ncspacetime.algebra import Signature, build_deformed_algebra

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# what tracing.Counts.install rebinds besides SPANS: (module, attribute path)
COUNTED = (("scalars", "QQi.__mul__"), ("scalars", "Scalar.__add__"),
           ("scalars", "Scalar.__mul__"),
           ("enveloping", "RewriteEngine.normal_order"),
           ("enveloping", "get_engine"))


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def modules():
    """Every module of the package, imported."""
    out = {"ncspacetime": ncspacetime}
    for info in pkgutil.iter_modules(ncspacetime.__path__):
        name = f"ncspacetime.{info.name}"
        out[name] = importlib.import_module(name)
    return out


def resolve(modules, module: str, path: str):
    """What tracing._Patcher.resolve finds: a method in its class's own
    namespace, or a module attribute."""
    mod = modules[f"ncspacetime.{module}"]
    if "." in path:
        cls_name, attr = path.split(".")
        return vars(getattr(mod, cls_name))[attr]
    return getattr(mod, path)


def names(tracing):
    return list(tracing.SPANS) + list(COUNTED)


def test_every_name_resolves_to_a_callable(tracing, modules):
    assert len(tracing.SPANS) >= 20
    for module, path in names(tracing):
        assert callable(resolve(modules, module, path)), f"{module}.{path}"


def test_modules_share_one_object_per_function(tracing, modules):
    """A module that imports a rebound function holds the package's object
    under the same name, so that rebinding by identity reaches every call
    site; no module holds a second wrapper of the same function."""
    for module, path in names(tracing):
        if "." in path:
            continue
        fn = resolve(modules, module, path)
        inner = getattr(fn, "__wrapped__", fn)
        for mod_name, mod in modules.items():
            for key, value in vars(mod).items():
                if key == path:
                    assert value is fn, f"{mod_name}.{key}"
                elif value is fn or value is inner or (
                        getattr(value, "__wrapped__", None) is inner):
                    pytest.fail(f"{mod_name}.{key} holds {module}.{path} "
                                "under another name")


def test_wrapped_builders_are_imported_where_used(modules):
    """cli and specfile call build_deformed_algebra through their own
    binding of the one memoized builder."""
    fn = modules["ncspacetime.algebra"].build_deformed_algebra
    for name in ("cli", "specfile"):
        assert vars(modules[f"ncspacetime.{name}"])[
            "build_deformed_algebra"] is fn
    so6 = modules["ncspacetime.algebra"].build_so6_algebra
    for name in ("cli", "clifford"):
        assert vars(modules[f"ncspacetime.{name}"])[
            "build_so6_algebra"] is so6


def test_counted_attributes_exist(modules):
    """Counts reads each engine's _norm_cache and wraps every evaluate of
    the Expr class tree."""
    engine = build_deformed_algebra(Signature(1, 1), "full").engine
    assert isinstance(engine._norm_cache, dict)
    classes, evaluators = [modules["ncspacetime.expressions"].Expr], 0
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        evaluators += callable(vars(cls).get("evaluate"))
    assert evaluators >= 2


@pytest.mark.parametrize("which, pairs", [("so32", 45), ("5d", 105)])
def test_rep_reaches_the_traced_check_and_commutator(tracing, modules, capsys,
                                                     which, pairs):
    """cli.cmd_rep reaches reps.check_rep_exact through the binding the
    tracer rebinds, and every bracket it decides runs one
    DiffOperator.commutator inside that check, so the metrics
    reps.check_rep_exact.self_s and expressions.DiffOperator.commutator.self_s
    time the exact bracket check.  Both are rebound with the tracer's own
    _Patcher."""
    calls, depth = Counter(), [0]
    patcher = tracing._Patcher()
    _, check = patcher.resolve("reps", "check_rep_exact")
    owner, commutator = patcher.resolve("expressions", "DiffOperator.commutator")

    def counted_check(*args, **kwargs):
        calls["check_rep_exact"] += 1
        depth[0] += 1
        try:
            return check(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_commutator(self, other):
        calls["inside" if depth[0] else "outside"] += 1
        return commutator(self, other)

    patcher.rebind(None, check, counted_check)
    patcher.rebind(owner, commutator, counted_commutator)
    try:
        assert modules["ncspacetime.cli"].main(["rep", which]) == 0
    finally:
        patcher.restore()
    capsys.readouterr()
    assert calls == {"check_rep_exact": 1, "inside": pairs}


@pytest.mark.parametrize("phi_cell, calls", [("1/2", 1), ("1", 0)],
                         ids=["on-locus", "off-locus"])
def test_clifford_reaches_the_traced_closure(tracing, modules, capsys,
                                             tmp_path, phi_cell, calls):
    """cli.cmd_clifford reaches clifford.closure_report through the binding
    the tracer rebinds, once on the constraint locus and never off it (the
    constraint check fails first), so clifford.closure_report.self_s times
    the whole closure table of an on-locus request."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"finkelstein": {"n_cells": 3, "chi": "1/2", '
                    f'"phi_cell": "{phi_cell}"}}}}', encoding="utf-8")
    seen = Counter()
    patcher = tracing._Patcher()
    _, closure = patcher.resolve("clifford", "closure_report")

    def counted(*args, **kwargs):
        seen["closure_report"] += 1
        return closure(*args, **kwargs)

    patcher.rebind(None, closure, counted)
    try:
        code = modules["ncspacetime.cli"].main(
            ["--spec", str(spec), "clifford"])
    finally:
        patcher.restore()
    capsys.readouterr()
    assert code == (0 if calls else 1)
    assert seen["closure_report"] == calls
