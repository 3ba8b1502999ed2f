"""Hypothesis property tests: QQi field laws and env_product associativity."""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncspacetime.algebra import Signature, build_deformed_algebra  # noqa: E402
from ncspacetime.enveloping import env_product, random_env_element  # noqa: E402
from ncspacetime.scalars import QQi  # noqa: E402

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
