"""The monomial encoding: a Scalar keys each term by one int whose
balanced digits are the exponents, PARAMS[0] the most significant, so key
order is exponent-tuple order.  Every exponent stays below 2^63 in
magnitude, and each way a monomial grows raises ExponentRangeError
rather than wrapping into a neighbouring field."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncspacetime import enveloping  # noqa: E402
from ncspacetime.algebra import (P_IDS, EnvElement, Signature,  # noqa: E402
                                 build_deformed_algebra)
from ncspacetime.enveloping import env_product  # noqa: E402
from ncspacetime.scalars import (PARAMS, ExponentRangeError,  # noqa: E402
                                 Scalar, powers)

TOP = 2 ** 63 - 1  # the largest exponent magnitude
KEYS = settings(max_examples=300, deadline=None, derandomize=True)
RANGE = settings(max_examples=40, deadline=None, derandomize=True)

exponents = st.one_of(st.sampled_from([TOP, -TOP, 0, 1, -1]),
                      st.integers(-3, 3), st.integers(-TOP, TOP))
monomials = st.tuples(*[exponents] * len(PARAMS))
names = st.sampled_from(PARAMS)


def monomial(exps) -> Scalar:
    out = Scalar.one()
    for name, e in zip(PARAMS, exps):
        out = out * Scalar.param(name, e)
    return out


def key(exps) -> int:
    k, = monomial(exps).terms
    return k


@KEYS
@given(monomials)
def test_digits_round_trip(exps):
    assert powers(key(exps)) == {n: e for n, e in zip(PARAMS, exps) if e}


@pytest.mark.parametrize("e", [TOP, -TOP])
def test_round_trip_at_the_limit(e):
    for k in range(len(PARAMS) + 1):
        exps = (e,) * k + (-e,) * (len(PARAMS) - k)
        assert powers(key(exps)) == dict(zip(PARAMS, exps))


@KEYS
@given(monomials, monomials)
def test_key_order_is_tuple_order(a, b):
    ka, kb = key(a), key(b)
    assert (ka < kb) == (a < b)
    assert (ka == kb) == (a == b)
    if all(abs(x + y) <= TOP for x, y in zip(a, b)):
        assert key(tuple(x + y for x, y in zip(a, b))) == ka + kb


@RANGE
@given(names, st.integers(1, TOP))
def test_product_past_the_limit_raises(name, e):
    up = Scalar.param(name, e)
    assert powers(next(iter((up * Scalar.param(name, TOP - e)).terms))) \
        == {name: TOP}
    with pytest.raises(ExponentRangeError):
        up * Scalar.param(name, TOP - e + 1)
    with pytest.raises(ExponentRangeError):
        Scalar.param(name, -e) * Scalar.param(name, e - TOP - 1)


@RANGE
@given(names, st.integers(1, TOP))
def test_division_and_negative_powers_raise(name, e):
    # the range is symmetric, so inverse() itself always fits; what grows
    # past the limit is the product it feeds
    x = Scalar.param(name, e)
    assert x.inverse() == Scalar.param(name, -e)
    with pytest.raises(ExponentRangeError):
        x / Scalar.param(name, e - TOP - 1)
    if e > 1:
        with pytest.raises(ExponentRangeError):
            Scalar.param(name, -e) ** -(TOP // e + 1)


def test_power_past_the_limit_raises():
    # sigma is the least significant field: 2^128 * its key would carry
    # into chi's field if the power were taken before the check
    for n in (2 ** 63, 2 ** 128, -2 ** 128):
        with pytest.raises(ExponentRangeError):
            Scalar.param("sigma") ** n
    assert Scalar.i() ** (2 ** 128 + 1) == Scalar.i()


def test_constructors_check_the_range():
    for e in (TOP + 1, -TOP - 1, 2 ** 70):
        with pytest.raises(ExponentRangeError):
            Scalar.param("ell", e)
    with pytest.raises(ExponentRangeError):
        Scalar({1 << 1000: 1})
    with pytest.raises(TypeError):
        Scalar({(0,) * len(PARAMS): 1})


@RANGE
@given(st.integers(1, TOP), st.integers(-TOP, TOP))
def test_restore_phi_past_the_limit_raises(k, r):
    # phi^k R_inv^r -> R_inv^(r + 2k) on the locus phi = eps5 * R_inv^2
    s = Scalar.param("phi", k) * Scalar.param("R_inv", r)

    def restore_phi(eps5):
        return s.substitute({"phi": Scalar.param("R_inv", 2, coeff=eps5)})
    if r + 2 * k <= TOP:
        assert restore_phi(-1) == Scalar.param(
            "R_inv", r + 2 * k, coeff=(-1) ** k)
    else:
        with pytest.raises(ExponentRangeError):
            restore_phi(1)


@RANGE
@given(st.integers(1, TOP - 1))
def test_kernel_output_past_the_limit_raises(e):
    full = build_deformed_algebra(Signature(1, 1), "full")

    def p(k, exp):
        return EnvElement.monomial((P_IDS[k],), Scalar.param("phi", exp))
    # p1 * p0 = p0 * p1 + [p1, p0], and [p1, p0] carries a factor phi
    assert env_product(p(1, e), p(0, TOP - 1 - e), full) == \
        env_product(p(1, 0), p(0, 0), full).scale(Scalar.param("phi", TOP - 1))
    for rest in (TOP - e, TOP - e + 1):  # the bracket term; the product
        with pytest.raises(ExponentRangeError):
            env_product(p(1, e), p(0, rest), full)
    assert enveloping.ExponentRangeError is ExponentRangeError


def test_repeated_squaring_raises_rather_than_wraps():
    x = Scalar.param("ell", 2 ** 40)
    for k in range(41, 63):
        x = x * x
        assert powers(next(iter(x.terms))) == {"ell": 2 ** k}
    with pytest.raises(ExponentRangeError):
        x * x
