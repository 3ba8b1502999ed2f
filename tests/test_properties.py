"""Hypothesis property tests: QQi field laws, env_product associativity,
the minilang print/parse round trip, the Leibniz rule of derivations and
the first-order closure of polynomial-coefficient operators."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncspacetime.algebra import Signature, build_deformed_algebra  # noqa: E402
from ncspacetime.diffcalc import derivation_set  # noqa: E402
from ncspacetime.enveloping import (EnvElement, env_product,  # noqa: E402
                                    random_env_element)
from ncspacetime.expressions import DiffOperator, Poly  # noqa: E402
from ncspacetime.minilang import format_env, parse_element  # noqa: E402
from ncspacetime.scalars import PARAMS, QQi, Scalar  # noqa: E402

FEW = settings(max_examples=60, deadline=None)

# denominators are mostly powers of two, as in the algebra's coefficients
rationals = st.builds(
    Fraction, st.integers(-40, 40),
    st.builds(lambda k, odd: 2 ** k * odd, st.integers(0, 6),
              st.sampled_from([1, 1, 1, 3, 5])))
pairs = st.tuples(rationals, rationals)


def qqi(pair):
    return QQi(*pair)


def matches(q, ref):
    """q equals the pure-Fraction pair ref, with ints for integral parts."""
    for part, want in zip((q.re, q.im), ref):
        if part != want:
            return False
        if type(part) is not (int if want.denominator == 1 else Fraction):
            return False
    return True


@FEW
@given(pairs, pairs)
def test_ring_operations_match_fraction_reference(x, y):
    (a, b), (c, d) = x, y
    assert matches(qqi(x) + qqi(y), (a + c, b + d))
    assert matches(qqi(x) - qqi(y), (a - c, b - d))
    assert matches(qqi(x) * qqi(y), (a * c - b * d, a * d + b * c))
    assert matches(-qqi(x), (-a, -b))
    assert matches(qqi(x).conj(), (a, -b))
    n = c * c + d * d
    if n:
        assert matches(qqi(x) / qqi(y),
                       ((a * c + b * d) / n, (b * c - a * d) / n))


@FEW
@given(pairs, pairs, pairs)
def test_field_laws(x, y, z):
    p, q, r = qqi(x), qqi(y), qqi(z)
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == QQi(0) and p * QQi(1) == p
    assert hash((p * q) * r) == hash(p * (q * r))
    if q:
        assert (p / q) * q == p
        assert matches(q * (QQi(1) / q), (Fraction(1), Fraction(0)))


SPECS = {regime: build_deformed_algebra(Signature(1, 1), regime)
         for regime in ("full", "tangent")}


@pytest.mark.parametrize("regime", sorted(SPECS))
@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_env_product_associative(regime, seed):
    spec, rng = SPECS[regime], random.Random(seed)
    a, b, c = (random_env_element(rng, spec, 2, 2) for _ in range(3))
    assert env_product(env_product(a, b, spec), c, spec) == \
        env_product(a, env_product(b, c, spec), spec)


def monomial(exponents) -> Scalar:
    out = Scalar.one()
    for name, e in zip(PARAMS, exponents):
        out = out * Scalar.param(name, e)
    return out


# coefficients: the printer's special cases +-1 and +-i, and general ones
units = st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])
coeffs = st.one_of(units, pairs).map(qqi)
monomials = st.one_of(
    st.just((0,) * len(PARAMS)),
    st.lists(st.integers(-2, 2), min_size=len(PARAMS),
             max_size=len(PARAMS)).map(tuple)).map(monomial)
scalars = st.lists(st.tuples(monomials, coeffs), min_size=1, max_size=3).map(
    lambda terms: sum((m * Scalar.of(c) for m, c in terms), Scalar.zero()))


def elements(spec):
    """Canonical elements: nondecreasing words over the basis."""
    words = st.lists(st.sampled_from(spec.basis), max_size=3).map(
        lambda w: tuple(sorted(w)))
    return st.lists(st.tuples(words, scalars), max_size=4).map(
        lambda terms: sum((EnvElement.monomial(w, s) for w, s in terms),
                          EnvElement.zero()))


@pytest.mark.parametrize("regime", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_print_parse_round_trip(regime, data):
    spec = SPECS[regime]
    e = data.draw(elements(spec))
    assert parse_element(format_env(e, regime), spec) == e


DERIVATIONS = {regime: derivation_set(spec)
               for regime, spec in SPECS.items()}


@pytest.mark.parametrize("regime", sorted(SPECS))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_derivation_leibniz_rule(regime, data):
    spec, derivs = SPECS[regime], DERIVATIONS[regime]
    d = derivs[data.draw(st.sampled_from(sorted(derivs)))]
    word = st.lists(st.sampled_from(spec.basis), max_size=3).map(
        lambda w: EnvElement.monomial(sorted(w)))
    a, b = data.draw(word), data.draw(word)
    assert d.apply(env_product(a, b, spec)) == \
        env_product(d.apply(a), b, spec) + env_product(a, d.apply(b), spec)


# first-order operators with polynomial coefficients in three variables
OP_VARS = ("u", "v", "w")
polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * len(OP_VARS)), pairs),
    max_size=3).map(lambda terms: sum(
        (Poly(OP_VARS, {p: qqi(c)}) for p, c in terms), Poly(OP_VARS)))
operators = st.builds(
    lambda zeroth, firsts: DiffOperator(OP_VARS, zeroth, firsts),
    polys, st.dictionaries(st.sampled_from(OP_VARS), polys, max_size=3))


def apply_op(op, f):
    out = op.zeroth * f
    for var, coeff in op.firsts.items():
        out = out + coeff * f.diff(var)
    return out


@settings(max_examples=25, deadline=None)
@given(operators, operators, polys)
def test_poly_commutator_is_first_order(a, b, f):
    # the symmetrized second-order part cancels, so the first-order result
    # is the commutator of the compositions
    c = a.commutator(b)
    assert apply_op(c, f) == \
        apply_op(a, apply_op(b, f)) - apply_op(b, apply_op(a, f))
