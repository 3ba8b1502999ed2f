"""Work counts, with no time bound: the Jacobi sweep and the Casimir
builders run on packed coefficients, not on QQi or Scalar operators, the
clean centrality and d^2 checks take five generators, not fifteen, one
verify request sweeps Jacobi twice (its own check and the generating-set
precondition), and the exact rep checks build one coefficient per operator
slot, with no ring product.

A product of the operators is counted by wrapping QQi.__mul__ and
Scalar.__mul__ (and __rmul__, the same function) on their classes; a
function call by wrapping the module attribute its caller looks up.
"""

from collections import Counter

import pytest

from ncspacetime import algebra, cli, diffcalc, enveloping, expressions, reps
from ncspacetime.algebra import (Signature, build_deformed_algebra,
                                 generating_set, jacobi_defect)
from ncspacetime.enveloping import casimir, centrality_defect
from ncspacetime.expressions import DiffOperator, Poly, TrigLaurent
from ncspacetime.reps import (build_rep_5d, build_rep_so32, check_rep_exact,
                              exact_rep_so32, scalar_to_poly, scalar_to_trig)
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
    seeds = generating_set(full)
    assert cli.check_d_squared(full, tangent, seeds).status == "pass"
    # 5 full and 15 tangent generators; each of the 105 + 10 derivation
    # pairs is resolved once
    assert count.counts["differential_of_generator"] <= 20
    assert count.counts["derivation_commutator_coeffs"] <= 115


@pytest.mark.parametrize("deep", [[], ["--deep"]], ids=["", "deep"])
@pytest.mark.parametrize("regime", ["full", "tangent"])
def test_verify_sweeps_jacobi_twice(count, capsys, tmp_path, deep, regime):
    """check_jacobi on the spec's table, and generating_set(full) once for
    the C1-C3 centrality and d^2 checks."""
    spec = tmp_path / "spec.json"
    spec.write_text(f'{{"regime": "{regime}"}}', encoding="utf-8")
    count(cli, "jacobi_defect")
    count(algebra, "jacobi_defect")  # what generating_set calls
    assert cli.main(["--spec", str(spec), "verify"] + deep) == 0
    capsys.readouterr()
    assert count.counts["jacobi_defect"] == 2


def _so32():
    return (exact_rep_so32(build_rep_so32(0.37, 1)),
            build_deformed_algebra(Signature(1, -1), "spacetime"),
            scalar_to_trig)


def _rep5d():
    return (build_rep_5d(SIG), build_deformed_algebra(SIG, "tangent"),
            scalar_to_poly)


@pytest.mark.parametrize("ring, make", [(TrigLaurent, _so32), (Poly, _rep5d)],
                         ids=["so32", "5d"])
def test_rep_check_finishes_one_coefficient_per_slot(monkeypatch, ring, make):
    """Each coefficient of a commutator and of a table image is one
    multiply-accumulate, finished once; no ring product runs, so the check
    makes no coefficient object per term."""
    rep, target, coeff = make()
    counts = Counter()

    def counting(name, f, slots):
        def counted(*args):
            out = f(*args)
            counts[name] += 1
            if slots:
                counts["slots"] += 1 + len(out.firsts)
            return out
        return counted

    monkeypatch.setattr(DiffOperator, "commutator", counting(
        "commutator", DiffOperator.commutator, True))
    monkeypatch.setattr(reps, "rep_of_element", counting(
        "rep_of_element", reps.rep_of_element, True))
    monkeypatch.setattr(expressions._ExactSum, "finish", counting(
        "finish", expressions._ExactSum.finish, False))
    mul = counting("mul", ring.__mul__, False)
    monkeypatch.setattr(ring, "__mul__", mul)
    monkeypatch.setattr(ring, "__rmul__", mul)
    assert check_rep_exact(rep, target, coeff) == []
    pairs = len(target.basis) * (len(target.basis) - 1) // 2
    assert counts["commutator"] == counts["rep_of_element"] == pairs
    assert counts["finish"] == counts["slots"]
    assert counts["mul"] == 0
