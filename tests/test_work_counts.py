"""Work counts, with no time bound: the Jacobi sweep and the Casimir
builders run on packed coefficients, not on QQi or Scalar operators, the
clean centrality and d^2 checks take five generators, not fifteen, one
verify request sweeps Jacobi twice (its own check and the generating-set
precondition), the exact rep checks build one coefficient per operator
slot, with no ring product, and the cell closure divides once per distinct
coefficient, the same number of times at any cell count.

A product of the operators is counted by wrapping QQi.__mul__ and
Scalar.__mul__ (and __rmul__, the same function) on their classes; a
function call by wrapping the module attribute its caller looks up.
"""

from collections import Counter
from fractions import Fraction

import pytest

from ncspacetime import algebra, cli, diffcalc, enveloping, expressions, reps
from ncspacetime.algebra import (MAB_PAIRS, Signature,
                                 build_deformed_algebra, build_so6_algebra,
                                 generating_set, jacobi_defect)
from ncspacetime.clifford import (FAMILY_NAMES, FinkelsteinParams,
                                  closure_report, family_terms)
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


def _closure_keys(params, sig) -> set:
    """The distinct (class of A, class of B, class of G, s_G) of the
    matches of closure_report, the class read off the family name."""
    terms = family_terms(params)
    table = build_so6_algebra(sig).table
    name_of = {MAB_PAIRS.index((a, b)): name
               for name, (a, b, _c) in terms.items()}
    keys = set()
    for i, name_a in enumerate(FAMILY_NAMES):
        for name_b in FAMILY_NAMES[i + 1:]:
            bracket = table.get(tuple(MAB_PAIRS.index(terms[n][:2])
                                      for n in (name_a, name_b)))
            if bracket is None:
                continue
            for (gid,), coeff in bracket.terms.items():
                keys.add(tuple(n.rstrip("0123") for n in
                               (name_a, name_b, name_of[gid]))
                         + (coeff.constant_value(),))
    return keys


@pytest.fixture
def qqi_ops(monkeypatch):
    counts = Counter()
    for op in ("__mul__", "__truediv__"):
        f = getattr(QQi, op)

        def counted(a, b, f=f, op=op):
            counts[op] += 1
            return f(a, b)
        monkeypatch.setattr(QQi, op, counted)
        if op == "__mul__":
            monkeypatch.setattr(QQi, "__rmul__", counted)
    return counts


def test_closure_divides_once_per_distinct_coefficient(qqi_ops):
    """On the default N = 3 cell: 12 distinct keys, one division each, and
    three products each plus the two of the constraint check.  One
    coefficient per match would take 60 divisions and 227 products."""
    params = FinkelsteinParams(3, QQi(Fraction(1, 2)), QQi(Fraction(1, 2)))
    keys = _closure_keys(params, SIG)
    assert len(keys) == 12
    qqi_ops.clear()
    closure_report(params, SIG)
    assert qqi_ops["__truediv__"] <= len(keys)
    assert qqi_ops["__mul__"] <= 3 * len(keys) + 2


@pytest.mark.parametrize("sig", [Signature(1, 1), Signature(-1, -1)])
def test_closure_work_does_not_grow_with_n(qqi_ops, sig):
    counts = []
    for n in (2, 3, 7, 50):
        params = FinkelsteinParams(n, QQi(Fraction(1, 2)),
                                   QQi(Fraction(1, n - 1)))
        qqi_ops.clear()
        closure_report(params, sig)
        counts.append(dict(qqi_ops))
    assert all(c == counts[0] for c in counts), counts
