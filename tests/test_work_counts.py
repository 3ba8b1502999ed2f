"""Work counts, with no time bound: the Jacobi sweep and the Casimir
builders run on packed coefficients, not on QQi or Scalar operators, and
the clean centrality and d^2 checks take five generators, not fifteen.

A product of the operators is counted by wrapping QQi.__mul__ and
Scalar.__mul__ (and __rmul__, the same function) on their classes; a
function call by wrapping the module attribute its caller looks up.
"""

from collections import Counter

import pytest

from ncspacetime import cli, diffcalc, enveloping
from ncspacetime.algebra import Signature, build_deformed_algebra, jacobi_defect
from ncspacetime.enveloping import casimir, centrality_defect
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
    assert casimir(kind, spec).terms
    assert calls["QQi"] <= 1
    assert calls["Scalar"] <= 1


@pytest.fixture
def count(monkeypatch):
    """count(module, name) wraps module.name and returns its Counter key."""
    counts = Counter()

    def wrap(module, name):
        f = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    wrap.counts = counts
    return wrap


@pytest.mark.parametrize("kind", ["C1", "C2", "C3"])
def test_centrality_takes_five_generators(count, kind):
    spec = build_deformed_algebra(SIG, "full")
    c = casimir(kind, spec)
    count(enveloping, "ad_generator")
    assert centrality_defect(c, spec) == []
    assert count.counts["ad_generator"] <= 5


def test_d_squared_takes_five_full_generators(count):
    full = build_deformed_algebra(SIG, "full")
    tangent = build_deformed_algebra(SIG, "tangent")
    count(cli, "differential_of_generator")
    count(diffcalc, "derivation_commutator_coeffs")
    assert cli.check_d_squared(full, tangent).status == "pass"
    # 5 full and 15 tangent generators; each of the 105 + 10 derivation
    # pairs is resolved once
    assert count.counts["differential_of_generator"] <= 20
    assert count.counts["derivation_commutator_coeffs"] <= 115
