import random
from fractions import Fraction

import pytest

from ncspacetime.minilang import format_qqi
from ncspacetime.scalars import (PARAMS, CoefficientSizeError, QQi, Scalar,
                                 _add_times, powers)

CONST, = Scalar.one().terms  # the key of the constant monomial


def test_qqi_arithmetic():
    a = QQi(Fraction(1, 2), Fraction(3, 4))
    b = QQi(2, -1)
    assert a + b == QQi(Fraction(5, 2), Fraction(-1, 4))
    assert a * b == QQi(Fraction(7, 4), 1)
    assert (a / b) * b == a
    assert -a + a == QQi(0)
    assert a.conj() == QQi(Fraction(1, 2), Fraction(-3, 4))
    assert QQi(0, 1) * QQi(0, 1) == QQi(-1)


def test_qqi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQi(1) / QQi(0)


def test_scalar_addition_merges_equal_monomials():
    s = Scalar.param("ell", 2) + Scalar.param("ell", 2)
    assert len(s.terms) == 1
    t = s + Scalar.param("R_inv")
    assert len(t.terms) == 2
    assert (s - s).is_zero


def test_scalar_zero_has_empty_terms():
    z = Scalar.param("phi") - Scalar.param("phi")
    assert z.is_zero and not z.terms
    assert z == Scalar.zero()


def test_scalar_multiplication_adds_exponents():
    s = Scalar.param("ell", 2) * Scalar.param("ell", -3)
    ((key, coeff),) = s.terms.items()
    assert powers(key) == {"ell": -1}
    assert coeff == QQi(1)


def test_scalar_gaussian_units():
    i = Scalar.i()
    assert i * i == Scalar.of(-1)
    assert (i * Scalar.param("ell")) * (i * Scalar.param("ell")) == \
        Scalar.param("ell", 2) * Scalar.of(-1)


def test_set_param_zero():
    zero = {"phi": Scalar.zero()}
    s = Scalar.param("phi") * Scalar.of(3) + Scalar.param("ell", 2)
    assert s.substitute(zero) == Scalar.param("ell", 2)
    with pytest.raises(ZeroDivisionError):
        Scalar.param("phi", -1).substitute(zero)


def test_substitute_monomial_with_negative_power():
    # phi -> eps5*R_inv^2 also works on phi^-1 (monomials are invertible)
    s = Scalar.param("phi", -1)
    out = s.substitute({"phi": Scalar.param("R_inv", 2, coeff=-1)})
    assert out == Scalar.param("R_inv", -2, coeff=-1)


def test_substitute_takes_each_power_directly():
    # a one-term power is the key times e and the coefficient by repeated
    # squaring, not e products
    s = Scalar.param("ell", 80000, coeff=2) * Scalar.param("R_inv", -3)
    out = s.substitute({"ell": Scalar.of(3), "R_inv": Scalar.rational(1, 2)})
    assert out == Scalar.of(16 * 3 ** 80000)
    assert Scalar.param("ell", 2 ** 62).substitute(
        {"ell": Scalar.i()}) == Scalar.one()
    assert (Scalar.i() * Scalar.param("phi", 2)) ** (2 ** 61 + 1) == \
        Scalar.param("phi", 2 ** 62 + 2, coeff=QQi(0, 1))
    with pytest.raises(ZeroDivisionError):
        Scalar.param("ell", -2).substitute({"ell": Scalar.zero()})
    with pytest.raises(CoefficientSizeError):
        Scalar.param("ell", 2 ** 62).substitute({"ell": Scalar.of(3)})


def _substitute_term_by_term(s, mapping):
    """Each term times the replacements' powers, one product at a time."""
    out = Scalar.zero()
    for key, c in s.terms.items():
        term = Scalar({key: c})
        for name, e in powers(key).items():
            if name in mapping:
                term = term / Scalar.param(name, e) * mapping[name] ** e
        out = out + term
    return out


@pytest.mark.parametrize("mapping", [
    {"phi": Scalar.param("R_inv", 2, coeff=-1)},
    # exponents are read off the original term: R_inv^2 from phi stays
    {"phi": Scalar.param("R_inv", 2), "R_inv": Scalar.zero()},
    {"ell": Scalar.param("phi", coeff=QQi(2, -1)), "phi": Scalar.rational(1, 3)},
    {"ell": Scalar.param("hbar", -2, coeff=QQi(0, 1)),
     "hbar": Scalar.param("ell", -1, coeff=3), "chi": Scalar.zero()},
], ids=lambda m: ",".join(m))
def test_substitute_matches_term_by_term_products(mapping):
    s = Scalar.param("phi", 2, coeff=3) * Scalar.param("ell") \
        - Scalar.param("phi", -1) * Scalar.param("ell", 2, coeff=QQi(0, 1)) \
        + Scalar.param("ell", 3) * Scalar.param("hbar", -2) + Scalar.of(5) \
        + Scalar.param("chi") * Scalar.param("hbar")
    want = _substitute_term_by_term(s, mapping)
    assert s.substitute(mapping) == want
    assert not s.substitute(mapping).is_constant()


def test_substitute_refuses_a_many_term_replacement():
    with pytest.raises(ValueError):
        Scalar.param("ell").substitute({"ell": Scalar.param("phi") + 1})


def test_evaluate():
    s = Scalar.param("ell", 2, coeff=QQi(0, 1)) + Scalar.rational(1, 2)
    val = s.evaluate({"ell": 3.0})
    assert val == complex(0.5, 9.0)
    with pytest.raises(KeyError):
        Scalar.param("chi").evaluate({})


def test_scalar_equality_is_exact():
    rng = random.Random(0)
    for _ in range(50):
        s = Scalar.zero()
        for _ in range(rng.randrange(0, 4)):
            term = Scalar.of(
                QQi(Fraction(rng.randrange(-5, 6), rng.randrange(1, 7))))
            for name in PARAMS[:3]:
                term = term * Scalar.param(name, rng.randrange(-2, 3))
            s = s + term
        assert s - s == Scalar.zero()
        assert s + s == s * Scalar.of(2)


def test_inverse_only_for_single_term():
    assert Scalar.param("ell").inverse() == Scalar.param("ell", -1)
    with pytest.raises(ValueError):
        (Scalar.one() + Scalar.param("ell")).inverse()


class TestMixedRepresentation:
    """Parts are ints while integral and reduced Fractions otherwise."""

    def test_integral_fraction_becomes_int(self):
        q = QQi(Fraction(4, 2))
        assert type(q.re) is int and q.re == 2
        assert type(q.im) is int and q.im == 0

    def test_division_stays_exact(self):
        q = QQi(1) / QQi(3)
        assert type(q.re) is Fraction and q.re == Fraction(1, 3)
        assert type(q.im) is int and q.im == 0
        assert Scalar.param("ell", coeff=3).inverse() == \
            Scalar.param("ell", -1, coeff=q)

    def test_product_normalizes_back_to_int(self):
        q = (QQi(1) / QQi(3)) * 3
        assert type(q.re) is int and q.re == 1
        q = QQi(Fraction(1, 2), Fraction(3, 2)) + QQi(Fraction(1, 2), Fraction(1, 2))
        assert type(q.re) is int and type(q.im) is int and q == QQi(1, 2)

    def test_int_and_fraction_inputs_are_one_key(self):
        a, b = QQi(2), QQi(Fraction(2))
        assert a == b and hash(a) == hash(b)
        assert {a: "a"}[b] == "a" and {b: "b"}[a] == "b"
        sa, sb = Scalar.of(a), Scalar.of(b)
        assert sa == sb and hash(sa) == hash(sb)
        assert sa.terms[CONST] == b and sb.terms[CONST] == a
        assert {sa: "a"}[sb] == "a" and {sb: "b"}[sa] == "b"

    def test_format_unchanged(self):
        assert format_qqi(QQi(2)) == "2"
        assert format_qqi(QQi(Fraction(4, 2))) == "2"
        assert format_qqi(QQi(Fraction(1, 2))) == "1/2"
        assert format_qqi(QQi(Fraction(1, 2), -3)) == "(1/2-3*i)"


ELL = Scalar.param("ell")


class TestMixedOperands:
    """A QQi or int on the left defers to the Scalar on the right."""

    @pytest.mark.parametrize("expr, want", [
        (lambda: QQi(0, 1) * ELL, lambda: Scalar.param("ell", coeff=QQi(0, 1))),
        (lambda: QQi(0, 1) + ELL, lambda: Scalar.i() + ELL),
        (lambda: QQi(0, 1) - ELL, lambda: Scalar.i() + Scalar.param("ell", coeff=-1)),
        (lambda: 1 - ELL, lambda: Scalar.one() + Scalar.param("ell", coeff=-1)),
    ], ids=["qqi_mul", "qqi_add", "qqi_sub", "int_rsub"])
    def test_left_operand_defers_to_scalar(self, expr, want):
        got = expr()
        assert isinstance(got, Scalar) and got == want()

    def test_int_minus_qqi(self):
        assert 1 - QQi(2, 1) == QQi(-1, -1)
        assert Fraction(1, 2) - QQi(1) == QQi(Fraction(-1, 2))

    def test_non_rational_operand_still_raises(self):
        for bad in (1.5, None):
            with pytest.raises(TypeError):
                QQi(1) + bad
            with pytest.raises(TypeError):
                QQi(1) * bad
            with pytest.raises(TypeError):
                bad - QQi(1)


class TestDivision:
    """Division by a single-term scalar goes through Scalar.inverse."""

    @pytest.mark.parametrize("expr, want", [
        (lambda: QQi(1) / ELL, lambda: Scalar.param("ell", -1)),
        (lambda: 2 / ELL, lambda: Scalar.param("ell", -1, coeff=2)),
        (lambda: ELL / QQi(2), lambda: Scalar.param("ell", coeff=Fraction(1, 2))),
        (lambda: Scalar.i() / Scalar.param("R_inv", 2, coeff=QQi(0, 2)),
         lambda: Scalar.param("R_inv", -2, coeff=Fraction(1, 2))),
    ], ids=["qqi_by_scalar", "int_by_scalar", "scalar_by_qqi", "scalar_by_scalar"])
    def test_single_term_divisor(self, expr, want):
        got = expr()
        assert isinstance(got, Scalar) and got == want()

    def test_multi_term_divisor_raises(self):
        with pytest.raises(ValueError):
            ELL / (Scalar.one() + ELL)
        with pytest.raises(ValueError):
            QQi(1) / (Scalar.one() + ELL)

    def test_non_rational_divisor_raises(self):
        with pytest.raises(TypeError):
            QQi(1) / 1.5


class TestAddTimes:
    """_add_times(d, c, coeff): d += c * coeff on (int key, QQi) items."""

    def test_adds_an_item_d_already_holds(self):
        q = QQi(3)
        d = {0: q}
        assert _add_times(d, [(0, q)]) is d
        assert d == {0: QQi(6)}
        assert q == QQi(3)  # the stored object is replaced, not changed

    def test_stores_fresh_qqi_objects(self):
        q = QQi(2, -1)
        d = _add_times({}, [(5, q)])
        assert d == {5: q} and d[5] is not q

    def test_a_negated_coefficient_that_cancels_drops_the_key(self):
        s = Scalar.param("ell", 2, coeff=QQi(Fraction(1, 3), 4))
        d = dict(s.terms)
        d[0] = QQi(7)
        _add_times(d, s.terms.items(), [(0, QQi(-1))])
        assert d == {0: QQi(7)}

    def test_a_non_integral_part_stays_a_reduced_fraction(self):
        d = _add_times({}, [(0, QQi(Fraction(1, 3), 1))],
                       [(0, QQi(Fraction(3, 4)))])
        assert d == {0: QQi(Fraction(1, 4), Fraction(3, 4))}
        assert type(d[0].re) is Fraction and d[0].re.denominator == 4
        # an integral product normalizes back to int
        d = _add_times({}, [(0, QQi(Fraction(1, 3), 1))], [(0, QQi(3))])
        assert d[0].re == 1 and type(d[0].re) is int

    def test_product_adds_keys_and_matches_scalar_product(self):
        a = Scalar.param("ell", 1, coeff=QQi(1, 2)) + Scalar.param("phi")
        b = Scalar.param("ell", -1, coeff=QQi(0, Fraction(1, 2))) + 3
        d = _add_times({}, b.terms.items(), a.terms.items())
        want = {}
        for k1, q1 in a.terms.items():
            for k2, q2 in b.terms.items():
                want[k1 + k2] = want.get(k1 + k2, QQi(0)) + q1 * q2
        assert d == {k: v for k, v in want.items() if v}
        assert Scalar(d) == a * b
