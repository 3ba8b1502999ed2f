"""Work counts, with no time bound: the Jacobi sweep and the Casimir
builders run on packed coefficients, not on QQi or Scalar operators.

A product of the operators is counted by wrapping QQi.__mul__ and
Scalar.__mul__ (and __rmul__, the same function) on their classes.
"""

from collections import Counter

import pytest

from ncspacetime.algebra import Signature, build_deformed_algebra, jacobi_defect
from ncspacetime.enveloping import casimir
from ncspacetime.scalars import QQi, Scalar

SIG = Signature(1, 1)


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()
    for cls in (QQi, Scalar):
        mul = cls.__mul__

        def counted(a, b, mul=mul, name=cls.__name__):
            counts[name] += 1
            return mul(a, b)
        monkeypatch.setattr(cls, "__mul__", counted)
        monkeypatch.setattr(cls, "__rmul__", counted)
    return counts


@pytest.mark.parametrize("regime", ["full", "tangent"])
def test_jacobi_sweep_multiplies_no_scalars(calls, regime):
    spec = build_deformed_algebra(SIG, regime)
    calls.clear()  # a first build of the table multiplies
    assert jacobi_defect(spec) == []
    assert calls == {}


@pytest.mark.parametrize("kind", ["C1", "C2", "C3"])
def test_casimir_multiplies_one_qqi(calls, kind):
    """The one product, of Scalars and so of QQi, is ell * R_inv, the
    image of Im, made by identify_orthogonal."""
    spec = build_deformed_algebra(SIG, "full")
    calls.clear()
    assert casimir(kind, SIG, spec).terms
    assert calls["QQi"] <= 1
    assert calls["Scalar"] <= 1
