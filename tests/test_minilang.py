import random

import pytest

from ncspacetime.algebra import (IM, IMINV, M_IDS, P_IDS, X_IDS, Signature,
                                 build_deformed_algebra)
from ncspacetime.enveloping import (EnvElement, env_commutator, env_product,
                                    random_env_element)
from ncspacetime import minilang
from ncspacetime.minilang import (MiniLangError, format_env, format_qqi,
                                  format_scalar, parse_element, parse_scalar)
from ncspacetime.scalars import QQi, Scalar

SIG = Signature(1, 1)


@pytest.fixture(scope="module")
def full():
    return build_deformed_algebra(SIG, "full")


@pytest.fixture(scope="module")
def tangent():
    return build_deformed_algebra(SIG, "tangent")


class TestParse:
    def test_atoms(self, full):
        assert parse_element("p0", full) == EnvElement.generator(P_IDS[0])
        assert parse_element("Im", full) == EnvElement.generator(IM)
        assert parse_element("i", full) == EnvElement.scalar(Scalar.i())
        assert parse_element("3/4", full) == \
            EnvElement.scalar(Scalar.rational(3, 4))

    def test_products_are_canonicalized(self, full):
        # x1*x0 reorders with the commutator correction
        e = parse_element("x1*x0", full)
        assert (X_IDS[0], X_IDS[1]) in e.terms
        assert (M_IDS[0],) in e.terms

    def test_parameter_powers(self, full):
        e = parse_element("ell^-2*x0", full)
        assert e == EnvElement.monomial((X_IDS[0],), Scalar.param("ell", -2))

    def test_generator_powers(self, full):
        assert parse_element("x0^3", full) == \
            EnvElement.monomial((X_IDS[0],) * 3)
        with pytest.raises(MiniLangError):
            parse_element("x0^-1", full)

    def test_precedence_and_unary_minus(self, full):
        e = parse_element("-3/2*x0 + p1", full)
        assert e.terms[(X_IDS[0],)] == Scalar.rational(-3, 2)
        assert e.terms[(P_IDS[1],)] == Scalar.one()

    def test_parens(self, full):
        e = parse_element("(x0 + p0)*Im", full)
        want = env_product(
            EnvElement.generator(X_IDS[0]) + EnvElement.generator(P_IDS[0]),
            EnvElement.generator(IM), full)
        assert e == want

    def test_error_positions(self, full):
        with pytest.raises(MiniLangError) as err:
            parse_element("x0 + * p1", full)
        assert err.value.pos == 5
        with pytest.raises(MiniLangError):
            parse_element("x0 +", full)
        with pytest.raises(MiniLangError):
            parse_element("q7", full)
        with pytest.raises(MiniLangError):
            parse_element("x0 p1", full)  # juxtaposition is not a product

    def test_division_only_between_integers(self, full):
        with pytest.raises(MiniLangError):
            parse_element("1/0", full)

    def test_spacetime_names(self):
        st = build_deformed_algebra(SIG, "spacetime")
        e = parse_element("X1*X0", st)
        assert (M_IDS[0],) in e.terms  # reordering picks up the commutator
        with pytest.raises(MiniLangError):
            parse_element("p0", st)

    def test_iminv_gating(self, full, tangent):
        assert parse_element("ImInv", tangent) == EnvElement.monomial((IMINV,))
        assert parse_element("Im*ImInv", tangent) == EnvElement.one()
        with pytest.raises(MiniLangError):
            parse_element("ImInv", full)

    def test_commute_example(self, full):
        a = parse_element("p0", full)
        b = parse_element("x0", full)
        assert format_env(env_commutator(a, b, full)) == "i*Im"
        assert format_env(env_commutator(a, a, full)) == "0"

    def test_one_product_per_generator_pair(self, full, monkeypatch):
        # a degree-0 factor scales, two monomials whose junction is
        # already in order concatenate, and env_product runs only on the
        # other products of two factors that hold generators
        calls = []

        def counted(a, b, spec):
            calls.append((format_env(a), format_env(b)))
            return env_product(a, b, spec)
        monkeypatch.setattr(minilang, "env_product", counted)
        e = parse_element(
            "(3-2*i)*x0*p1*M01*Im + (1+1*i)*x2 + (-4+0*i)*p0*p0", full)
        assert calls == []
        assert format_env(e) == "(1+i)*x2 - 4*p0^2 + (3-2*i)*x0*p1*M01*Im"
        e = parse_element("(3-2*i)*p1*x0*Im + x2*(x0 + p0)", full)
        assert calls == [("(3-2*i)*p1", "x0"), ("x2", "x0 + p0")]
        assert format_env(e) == \
            "i*ell^2*M02 + x0*x2 + x2*p0 + (3-2*i)*x0*p1*Im"

    def test_constant_factor_scales_without_scalar_products(
            self, full, monkeypatch):
        calls = []
        real = Scalar.__mul__

        def counted(a, b):
            calls.append((a, b))
            return real(a, b)
        monkeypatch.setattr(Scalar, "__mul__", counted)
        e = parse_element("(3-2*i)*x0 + 2*(1/2*p1) + x2*(-4)", full)
        assert calls == []
        assert format_env(e) == "(3-2*i)*x0 - 4*x2 + p1"
        # a factor with a parameter still scales by its Scalar
        assert format_env(parse_element("ell*(2*x0)", full)) == "2*ell*x0"
        assert len(calls) == 1

    def test_parse_scalar(self):
        assert parse_scalar("1/2") == Scalar.rational(1, 2)
        assert parse_scalar("-i") == -Scalar.i()
        assert parse_scalar("1/2*i") == Scalar.i() * Scalar.rational(1, 2)
        with pytest.raises(MiniLangError):
            parse_scalar("x0")


class TestFuzz:
    def test_parser_total_or_tagged_error(self, full):
        rng = random.Random(17)
        pieces = ["x0", "p1", "M01", "Im", "ell", "i", "3", "1/2", "+", "-",
                  "*", "(", ")", "^", "/", " ", "q", "_", "00"]
        for _ in range(500):
            text = "".join(rng.choice(pieces)
                           for _ in range(rng.randrange(0, 12)))
            try:
                parse_element(text, full)
            except MiniLangError:
                pass  # tagged errors are the only acceptable failure


class TestDeepNesting:
    """Parenthesis depth is an explicit stack, not recursion."""

    @pytest.mark.parametrize("depth", [250, 5000])
    def test_deep_parentheses(self, full, depth):
        text = "(" * depth + "-(x0 + p0)*Im" + ")" * depth
        assert parse_element(text, full) == parse_element("-(x0 + p0)*Im",
                                                          full)

    @pytest.mark.parametrize("text, message", [
        ("(" * 5000 + "x0", "expected ), found None (at position 5002)"),
        ("(" * 5000 + "x0" + ")" * 5001,
         "unexpected trailing ')' (at position 10002)"),
        ("(" * 5000 + ")" * 5000, "unexpected token ')' (at position 5000)"),
        ("(" * 250 + "x0^" + ")" * 250,
         "expected int, found ')' (at position 253)"),
    ], ids=["unclosed", "extra-close", "empty", "bad-power"])
    def test_deep_errors_keep_their_positions(self, full, text, message):
        with pytest.raises(MiniLangError) as info:
            parse_element(text, full)
        assert str(info.value) == message


class TestFormatting:
    def test_qqi_forms(self):
        assert format_qqi(QQi(0)) == "0"
        assert format_qqi(QQi(3, 0)) == "3"
        assert format_qqi(QQi(0, 1)) == "i"
        assert format_qqi(QQi(0, -1)) == "-i"
        from fractions import Fraction
        assert format_qqi(QQi(0, Fraction(3, 2))) == "3/2*i"
        assert format_qqi(QQi(Fraction(1, 2), Fraction(-3, 4))) == "(1/2-3/4*i)"

    def test_scalar_forms(self):
        s = Scalar.param("ell", 2, coeff=QQi(0, 1))
        assert format_scalar(s) == "i*ell^2"
        s2 = Scalar.param("R_inv", -2) + Scalar.one()
        assert format_scalar(s2) in ("1 + R_inv^-2", "R_inv^-2 + 1")

    def test_zero(self, full):
        assert format_env(EnvElement.zero()) == "0"


class TestRoundTrip:
    def test_random_full_regime(self, full):
        rng = random.Random(0)
        for _ in range(200):
            e = random_env_element(rng, full, 3, 4)
            if rng.random() < 0.5:
                e = e.scale(Scalar.param("ell", rng.randrange(-2, 3)))
            text = format_env(e)
            assert parse_element(text, full) == e, text

    def test_random_tangent_with_inverse(self, tangent):
        rng = random.Random(1)
        ids = list(tangent.basis) + [IMINV]
        for _ in range(100):
            e = EnvElement.zero()
            for _ in range(3):
                deg = rng.randrange(0, 3)
                word = tuple(sorted(rng.choice(ids) for _ in range(deg)))
                e = e + EnvElement.monomial(word, Scalar.of(rng.randrange(-3, 4)))
            e = env_product(e, EnvElement.one(), tangent)  # canonicalize
            text = format_env(e)
            assert parse_element(text, tangent) == e, text

    def test_spacetime_round_trip(self):
        st = build_deformed_algebra(SIG, "spacetime")
        rng = random.Random(2)
        for _ in range(50):
            e = random_env_element(rng, st, 2, 3)
            text = format_env(e, "spacetime")
            assert parse_element(text, st) == e, text

    def test_multi_term_coefficients(self, full):
        from ncspacetime.scalars import QQi
        from fractions import Fraction
        cases = [
            EnvElement.monomial((X_IDS[0],),
                                Scalar.one() + Scalar.param("ell", 2)
                                + Scalar.i()),
            EnvElement.monomial((P_IDS[1], IM),
                                -Scalar.param("phi") + Scalar.rational(-3, 7)),
            EnvElement.monomial((M_IDS[2],),
                                Scalar.of(QQi(Fraction(1, 2), Fraction(-3, 4)))),
        ]
        for e in cases:
            assert parse_element(format_env(e), full) == e

    def test_casimir_round_trips(self, full):
        from ncspacetime.enveloping import casimir
        for kind in ("C1", "C2"):
            e = casimir(kind, full)
            assert parse_element(format_env(e), full) == e
