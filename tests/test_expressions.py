import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ncspacetime.expressions import (Add, Const, Cos, DiffOperator, Mul, Poly,
                                     Pow, Sin, TrigLaurent, Var, stack_points)
from ncspacetime.scalars import QQi

VARS = ("u", "v")


def pconst(x):
    return Poly.constant(VARS, x)


def pvar(n):
    return Poly.variable(VARS, n)


class TestPoly:
    def test_arithmetic(self):
        p = pvar("u") * pvar("u") + pconst(2) * pvar("v")
        q = pvar("u") + pconst(-1)
        # (u^2 + 2v)(u - 1) = u^3 - u^2 + 2uv - 2v, keyed by (deg u, deg v)
        assert (p * q).terms == {(3, 0): QQi(1), (2, 0): QQi(-1),
                                 (1, 1): QQi(2), (0, 1): QQi(-2)}

    def test_diff(self):
        p = pvar("u") * pvar("u") * pvar("v")
        assert p.diff("u") == pconst(2) * pvar("u") * pvar("v")
        assert p.diff("v") == pvar("u") * pvar("u")
        assert pconst(3).diff("u").is_zero

    def test_exact_equality(self):
        p = pvar("u") + pvar("v")
        q = pvar("v") + pvar("u")
        assert p == q
        assert (p - q).is_zero

    def test_gaussian_coefficients(self):
        p = pconst(QQi(0, 1)) * pvar("u")
        assert (p * p) == pconst(-1) * pvar("u") * pvar("u")


class TestExpr:
    def test_trig_diff(self):
        f = Mul(Sin(Var("u")), Cos(Var("v")))
        df = f.diff("u")
        env = {"u": 0.7, "v": 1.1}
        assert df.evaluate(env) == pytest.approx(math.cos(0.7) * math.cos(1.1))
        dw = f.diff("w")
        assert isinstance(dw, Const) and dw.value == 0

    def test_pow_negative_exponent(self):
        f = Pow(Sin(Var("u")), -1)
        env = {"u": 0.9}
        assert f.evaluate(env) == pytest.approx(1 / math.sin(0.9))
        df = f.diff("u")
        assert df.evaluate(env) == pytest.approx(
            -math.cos(0.9) / math.sin(0.9) ** 2)

    @pytest.mark.parametrize("exponent", [0.5, 2.5, 2.0, True], ids=repr)
    def test_pow_refuses_a_non_int_exponent(self, exponent):
        with pytest.raises(TypeError):
            Pow(Var("u"), exponent)

    @pytest.mark.parametrize("expr", [
        Const(2.5), Var("u"), Var("u") + Var("v"), Mul(Var("u"), Var("v")),
        Pow(Var("u") + 0.5, -3), Sin(Var("u")), Cos(Var("u")),
        Sin(Mul(Const(0.3 + 0.8j), Var("u"))),
    ], ids=repr)
    def test_array_env_matches_pointwise(self, expr):
        pts = [{"u": u, "v": 0.7 - u} for u in (-1.3, -0.4, 0.0, 0.6, 2.1)]
        want = [expr.evaluate(pt) for pt in pts]
        got = np.broadcast_to(expr.evaluate(stack_points(pts)), (len(pts),))
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_operator_sugar(self):
        f = Var("u") + 2 * Var("v") - 1
        assert f.evaluate({"u": 1.0, "v": 3.0}) == pytest.approx(6.0)


ANGLES = ("phi1", "phi2", "theta1")


def trig(expr):
    return TrigLaurent.from_expr(ANGLES, expr)


def tconst(x):
    return TrigLaurent.constant(ANGLES, x)


def random_trig(rng):
    """Up to four terms with small Gaussian-rational coefficients and, per
    angle, a cosine power in {0, 1} and a sine power in -3..3."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(e for _ in ANGLES
                    for e in (rng.randint(0, 1), rng.randint(-3, 3)))
        terms[key] = QQi(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                         rng.randint(-2, 2))
    return TrigLaurent(ANGLES, terms)


class TestTrigLaurent:
    @pytest.mark.parametrize("angle", ANGLES)
    def test_pythagoras(self, angle):
        c, s = trig(Cos(Var(angle))), trig(Sin(Var(angle)))
        assert c * c + s * s == tconst(1)
        assert c * c == tconst(1) - s * s

    @pytest.mark.parametrize("angle", ANGLES)
    def test_derivatives(self, angle):
        c, s = trig(Cos(Var(angle))), trig(Sin(Var(angle)))
        csc = trig(Pow(Sin(Var(angle)), -1))
        assert s.diff(angle) == c
        assert c.diff(angle) == -s
        assert csc.diff(angle) == -c * csc * csc
        assert s * csc == tconst(1)
        for other in ANGLES:
            if other != angle:
                assert csc.diff(other).is_zero

    def test_product_rule_and_ring_laws_on_random_elements(self):
        rng = random.Random(5)
        for _ in range(40):
            f, g, h = (random_trig(rng) for _ in range(3))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f - f).is_zero and f - f == f.zero()
            for angle in ANGLES:
                assert (f * g).diff(angle) == \
                    f.diff(angle) * g + f * g.diff(angle)

    def test_protocol(self):
        f = trig(Sin(Var("phi2")))
        assert f.zero().is_zero and not f.is_zero
        assert f * 0 == f.zero() and f + 0 == f and -1 * f == -f
        with pytest.raises(ValueError):
            f + TrigLaurent(("phi1",), {(0, 1): 1})

    @pytest.mark.parametrize("x", [0.37, -2.5, 0.1, 1e300, 5e-324])
    def test_float_constants_are_read_exactly(self, x):
        assert trig(Const(x)) == tconst(QQi(Fraction(x)))

    def test_complex_and_product_constants(self):
        # the conversion factor -i * sign of build_rep_so32
        assert trig(Const(complex(0, -1) * -1)) == tconst(QQi(0, 1))
        got = trig(Mul(Const(-1), Const(0.37), Cos(Var("theta1")),
                       Pow(Sin(Var("phi2")), -1)))
        assert got.terms == {(0, 0, 0, -1, 1, 0): QQi(-Fraction(0.37))}

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_constant_raises(self, value):
        with pytest.raises(ValueError):
            trig(Const(value))

    @pytest.mark.parametrize("expr", [
        Add(Sin(Var("phi1")), Cos(Var("phi1"))), Pow(Var("phi1"), 2),
        Var("phi1"), Pow(Cos(Var("phi1")), 2), Sin(Mul(Const(2), Var("phi1"))),
        Cos(Mul(Const(2), Var("phi1"))),
    ], ids=repr)
    def test_other_nodes_raise_type_error(self, expr):
        with pytest.raises(TypeError):
            trig(expr)

    @pytest.mark.parametrize("exponent", [0.5, 2.5])
    def test_non_integer_power_of_a_sine_raises(self, exponent):
        # read as 1 and as sin(phi1)^2 while Pow truncated its exponent
        with pytest.raises(TypeError):
            trig(Pow(Sin(Var("phi1")), exponent))

    def test_accumulator_signs_the_split_cosine_square(self):
        # cos^2 splits into 1 - sin^2, so one product carries both signs
        c, s = trig(Cos(Var("phi1"))), trig(Sin(Var("phi1")))
        acc = c.accumulator()
        acc.add(c, c, -1)
        acc.add(s, c)
        assert acc.finish() == s * s - 1 + s * c

    def test_exact_commutator(self):
        # [d/dphi1, sin(phi1)] = cos(phi1), decided exactly
        d = DiffOperator(ANGLES, tconst(0), {"phi1": tconst(1)})
        s = DiffOperator(ANGLES, trig(Sin(Var("phi1"))), {})
        assert d.commutator(s) == DiffOperator(
            ANGLES, trig(Cos(Var("phi1"))), {"phi1": tconst(0)})


class TestDiffOperator:
    def test_canonical_pair(self):
        # [d/du, u] = 1
        d = DiffOperator(VARS, pconst(0), {"u": pconst(1)})
        u = DiffOperator(VARS, pvar("u"), {})
        c = d.commutator(u)
        assert c == DiffOperator(VARS, pconst(1), {})

    def test_self_commutator_zero(self):
        a = DiffOperator(VARS, pvar("v"), {"u": pvar("u") * pvar("v")})
        z = a.commutator(a)
        assert z == DiffOperator(VARS, pconst(0), {})

    def test_commutator_matches_composition_on_polynomials(self):
        a = DiffOperator(VARS, pconst(0), {"u": pvar("v"), "v": pconst(1)})
        b = DiffOperator(VARS, pvar("u"), {"u": pvar("u"), "v": pvar("v")})
        c = a.commutator(b)

        def apply(op, poly):
            out = op.zeroth * poly
            for var, coeff in op.firsts.items():
                out = out + coeff * poly.diff(var)
            return out

        for fp in (pvar("u") * pvar("u") * pvar("v"),
                   pvar("v") * pvar("v") + pvar("u")):
            want = apply(a, apply(b, fp)) - apply(b, apply(a, fp))
            assert (want - apply(c, fp)).is_zero

    def test_expr_coefficient_equality_raises(self):
        # expression trees have no decidable equality, so neither do
        # operators built from them
        def op():
            return DiffOperator(VARS, Const(0), {"u": Cos(Var("v"))})

        with pytest.raises(TypeError):
            op() == op()
        with pytest.raises(TypeError):
            op() != op()

    def test_expr_coefficient_commutator(self):
        a = DiffOperator(("u", "v"), Const(0), {"u": Cos(Var("v"))})
        b = DiffOperator(("u", "v"), Const(0), {"v": Sin(Var("u"))})
        c = a.commutator(b)
        env = {"u": 0.6, "v": 1.2}
        # [a,b] = cos(v)cos(u) d/dv - sin(u)(-sin(v)) d/du
        got_u = c.firsts["u"].evaluate(env)
        got_v = c.firsts["v"].evaluate(env)
        assert got_v == pytest.approx(math.cos(1.2) * math.cos(0.6))
        assert got_u == pytest.approx(math.sin(0.6) * math.sin(1.2))

    def test_apply(self):
        op = DiffOperator(("u", "v"), Const(2), {"u": Var("v")})
        f = Mul(Var("u"), Var("v"))
        env = {"u": 3.0, "v": 5.0}
        # 2*u*v + v*(v) = 30 + 25
        assert op.apply(f, env) == pytest.approx(55.0)


UNARY_CHECK = """
import json, sys
import numpy as np
from ncspacetime.expressions import Cos, Sin, Var
want = {Sin: np.sin, Cos: np.cos}
x, arr = -0.7, np.array([-1.3, 0.0, 0.6, 2.1])
envs = [{"u": x}, {"u": arr}]
if sys.argv[1] == "array":
    envs.reverse()
bad = []
for cls, fn in want.items():
    for env in envs:
        got = cls(Var("u")).evaluate(env)
        ref = fn(env["u"] + 0j)
        if np.shape(got) != np.shape(ref) or not np.array_equal(got, ref):
            bad.append([cls.__name__, repr(got), repr(ref)])
    if not isinstance(vars(cls)["fn"], staticmethod):
        bad.append([cls.__name__, "fn is not bound on the class"])
print(json.dumps(bad))
"""


@pytest.mark.parametrize("first", ["float", "array"])
def test_unary_numpy_binding_on_first_use(first):
    # a fresh interpreter, so the first evaluation binds the numpy function
    import json
    import subprocess
    import sys
    out = subprocess.run([sys.executable, "-c", UNARY_CHECK, first],
                         capture_output=True, text=True, check=False)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
