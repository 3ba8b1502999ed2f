"""Expression trees, exact multivariate polynomials and first-order
differential operators.

Three coefficient types feed the differential-operator layer:

* Poly -- exact multivariate polynomial over Gaussian rationals; supports
  symbolic partial differentiation and decidable equality, used where
  operator identities must be verified with zero tolerance.
* TrigLaurent -- exact polynomial in c_v = cos(v), s_v = sin(v) and 1/s_v
  over Gaussian rationals, reduced by c_v^2 = 1 - s_v^2 to the canonical
  form c_v^a s_v^m (a in {0, 1}); decidable equality, so the so(3,2)
  contour operators are checked exactly.  TrigLaurent.from_expr reads the
  Expr trees of those operators into it.
* Expr -- a tree of seven nodes (Const, Var, Add, Mul, Pow with an int
  exponent, Sin, Cos) with symbolic differentiation and numeric
  evaluation, in which the trigonometric-coefficient operators are written.
  An env maps each variable to a float or to a numpy array of floats; with
  arrays, one walk of the tree evaluates it at every point at once.  numpy
  is imported on first evaluation of a sin/cos node (see _numpy_fn) and by
  stack_points.

All three share one coefficient protocol: ``c.zero()``, ``c.is_zero``
(true only for an exact zero) and ``c.accumulator()``, whose ``add(x, y,
sign)`` adds sign * x * y (sign +1 or -1) and whose ``finish()`` returns
the sum.  For Poly and TrigLaurent it is _ExactSum, also their product
(``*``): it adds the QQi product of each pair of terms into one dict with
scalars._accumulate, as the ring's term product (_mono_mul) gives it.
For Expr it is _TreeSum, which builds the trees x * y in call order
exactly as Expr.__add__ and __sub__ would, so every value evaluated from
them is that of the plain sum.

A DiffOperator is zeroth-order coefficient plus a map variable -> first-order
coefficient.  The commutator of two first-order operators is again first
order because the symmetrized second-order part cancels, which it does
identically for commutative coefficients, as all three types are.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import QQi, _accumulate

_new = object.__new__

# -- exact polynomials -------------------------------------------------------


class _Exact:
    """Ring element kept as a dict from canonical monomial keys to nonzero
    QQi coefficients over named variables, so that equality is equality of
    the dicts.  A subclass fixes the key (KEY_WIDTH entries per variable),
    the term product (_mono_mul: keys k1, k2 and a QQi q to the items of
    q * k1 * k2) and the derivative of the terms (_diff_terms)."""

    __slots__ = ("vars", "terms", "_diffs")
    KEY_WIDTH = 1

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        self.terms: dict[tuple, QQi] = {}
        self._diffs = {}
        if terms:
            for key, c in terms.items():
                c = c if isinstance(c, QQi) else QQi(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def constant(cls, variables, value):
        return cls(variables, {(0,) * (cls.KEY_WIDTH * len(variables)): value})

    def _with(self, terms: dict):
        """Element over self's variables with already-nonzero terms."""
        r = _new(self.__class__)
        r.vars = self.vars
        r.terms = terms
        r._diffs = {}
        return r

    def zero(self):
        return type(self)(self.vars)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def accumulator(self) -> "_ExactSum":
        return _ExactSum(self)

    def _operand(self, other):
        if other.__class__ is not self.__class__:
            if isinstance(other, _Exact):
                raise ValueError("operands over different rings")
            other = self.constant(self.vars, other)
        if self.vars != other.vars:
            raise ValueError("operands over different variables")
        return other

    def __add__(self, other):
        other = self._operand(other)
        return self._with(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __neg__(self):
        return self._with({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        acc = _ExactSum(self)
        acc.add(self, self._operand(other))
        return acc.finish()

    __rmul__ = __mul__

    def diff(self, name: str):
        """d/d name, kept per variable, since an element never changes and
        a bracket check differentiates each operator coefficient once per
        pair it is in."""
        out = self._diffs.get(name)
        if out is None:
            out = self._diffs[name] = self._with(
                _accumulate({}, self._diff_terms(name)))
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms


class Poly(_Exact):
    """Multivariate polynomial with QQi coefficients over named variables."""

    __slots__ = ()

    @classmethod
    def variable(cls, variables, name) -> "Poly":
        pows = [0] * len(variables)
        pows[tuple(variables).index(name)] = 1
        return cls(variables, {tuple(pows): QQi(1)})

    @staticmethod
    def _mono_mul(p1: tuple, p2: tuple, q: QQi) -> tuple:
        return ((tuple(map(add, p1, p2)), q),)

    def _diff_terms(self, name: str):
        k = self.vars.index(name)
        return ((pows[:k] + (pows[k] - 1,) + pows[k + 1:], c * pows[k])
                for pows, c in self.terms.items() if pows[k])

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for pows, c in sorted(self.terms.items()):
            mono = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.vars, pows) if e)
            bits.append(f"({c.re}+{c.im}i)" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


# -- exact trigonometric Laurent polynomials ---------------------------------


class TrigLaurent(_Exact):
    """Element of QQi[c_v, s_v, 1/s_v]/(c_v^2 + s_v^2 - 1) over named angles
    v, with c_v = cos(v) and s_v = sin(v).

    Every element has one canonical form: a sum of monomials that carry
    c_v^a s_v^m per angle with a in {0, 1} and m an integer, since the ring
    is free over the Laurent polynomials in the s_v with basis the products
    of 1 and c_v.  A term is keyed by the flat tuple (a_1, m_1, a_2, m_2,
    ...) over the angles; equality is equality of the term dicts.
    """

    __slots__ = ()
    KEY_WIDTH = 2

    @classmethod
    def from_expr(cls, variables, expr: "Expr") -> "TrigLaurent":
        """The exact image of a product of constants, sin(v), cos(v) and
        integer powers sin(v)^n; any other node raises TypeError.  A float
        constant is a dyadic rational and is read exactly."""
        variables = tuple(variables)
        if isinstance(expr, Const):
            return cls.constant(variables, _exact_const(expr.value))
        if isinstance(expr, Mul):
            out = cls.constant(variables, 1)
            for arg in expr.args:
                out = out * cls.from_expr(variables, arg)
            return out
        if isinstance(expr, Pow) and isinstance(expr.base, Sin):
            fn, power = expr.base, expr.exponent
        elif isinstance(expr, (Sin, Cos)):
            fn, power = expr, 1
        else:
            raise TypeError(f"{type(expr).__name__} node has no exact "
                            "trig-Laurent image")
        if not isinstance(fn.arg, Var):
            raise TypeError("a sine or cosine must take a bare variable")
        key = [0] * (2 * len(variables))
        key[2 * variables.index(fn.arg.name) + isinstance(fn, Sin)] = power
        return cls(variables, {tuple(key): QQi(1)})

    @staticmethod
    def _mono_mul(k1: tuple, k2: tuple, q: QQi):
        """q times the product of two canonical monomials: each angle whose
        cosine powers add to 2 splits by c^2 = 1 - s^2."""
        key = tuple(map(add, k1, k2))
        if 2 not in key[::2]:
            return ((key, q),)
        out = [(key, q)]
        for j in range(0, len(key), 2):
            if key[j] == 2:
                m = key[j + 1]
                out = [(k[:j] + (0, m + e) + k[j + 2:], r if e == 0 else -r)
                       for k, r in out for e in (0, 2)]
        return out

    def _diff_terms(self, name: str):
        """d/dv, with d s_v = c_v and d c_v = -s_v."""
        pos = 2 * self.vars.index(name)
        return ((key, c * f) for k, c in self.terms.items()
                for key, f in _trig_mono_diff(k, pos))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for key, c in sorted(self.terms.items()):
            mono = [f"{fn}({v})" + (f"^{e}" if e != 1 else "")
                    for j, v in enumerate(self.vars)
                    for fn, e in (("cos", key[2 * j]), ("sin", key[2 * j + 1]))
                    if e]
            bits.append("*".join([f"({c.re}+{c.im}i)"] + mono))
        return " + ".join(bits)


def _exact_const(value) -> QQi:
    """A Const value as a Gaussian rational; a float (or each part of a
    complex) is a dyadic rational, so Fraction reads it without rounding."""
    if isinstance(value, int):
        return QQi(value)
    z = complex(value)
    try:
        return QQi(Fraction(z.real), Fraction(z.imag))
    except (OverflowError, ValueError):
        raise ValueError(f"constant {value!r} is not finite") from None


def _trig_mono_diff(k: tuple, pos: int) -> tuple:
    """d/dv of one canonical monomial as ((key, integer factor), ...), v
    the angle whose (a, m) pair starts at pos: d s^m = m c s^(m-1) and
    d(c s^m) = m s^(m-1) - (m+1) s^(m+1)."""
    a, m = k[pos], k[pos + 1]
    head, tail = k[:pos], k[pos + 2:]
    if not a:
        return ((head + (1, m - 1) + tail, m),) if m else ()
    out = ((head + (0, m - 1) + tail, m), (head + (0, m + 1) + tail, -(m + 1)))
    return tuple((key, f) for key, f in out if f)


class _ExactSum:
    """Multiply-accumulate over the ring of an _Exact element: add(x, y,
    sign) adds sign times the product of each pair of terms into one dict
    with _accumulate; finish() returns the element over that dict."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: _Exact):
        self.ring = ring
        self.terms = {}

    def add(self, x: _Exact, y: _Exact, sign: int = 1) -> None:
        ring = self.ring
        if not (x.__class__ is y.__class__ is ring.__class__
                and x.vars == y.vars == ring.vars):
            raise ValueError("operands over different rings or variables")
        mono_mul = ring._mono_mul
        for k1, c1 in x.terms.items():
            if sign < 0:
                c1 = -c1
            for k2, c2 in y.terms.items():
                _accumulate(self.terms, mono_mul(k1, k2, c1 * c2))

    def finish(self) -> _Exact:
        return self.ring._with(self.terms)


# -- expression trees --------------------------------------------------------


class Expr:
    """Base expression node."""

    def zero(self) -> "Expr":
        return Const(0)

    @property
    def is_zero(self) -> bool:
        """Exact zero only (a Const(0)); a tree that merely evaluates to
        zero is not detected."""
        return False

    def accumulator(self) -> "_TreeSum":
        return _TreeSum()

    def __eq__(self, other):
        raise TypeError("expression trees have no decidable equality; "
                        "exact operator equality needs Poly coefficients")

    __hash__ = object.__hash__

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def evaluate(self, env: dict) -> complex:
        raise NotImplementedError

    def __add__(self, other):
        return _sum(self, _as_expr(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _sum(self, _prod(Const(-1), _as_expr(other)))

    def __rsub__(self, other):
        return _sum(_as_expr(other), _prod(Const(-1), self))

    def __mul__(self, other):
        return _prod(self, _as_expr(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Mul(Const(-1), self)


class _TreeSum:
    """Multiply-accumulate over Expr trees: add(x, y, sign) sets the sum
    to sum + x * y or sum - x * y, in call order, starting from Const(0)."""

    __slots__ = ("tree",)

    def __init__(self):
        self.tree = Const(0)

    def add(self, x: Expr, y: Expr, sign: int = 1) -> None:
        self.tree = self.tree + x * y if sign > 0 else self.tree - x * y

    def finish(self) -> Expr:
        return self.tree


def _sum(*terms) -> Expr:
    """Add without exact-zero terms.  With _prod, this keeps derivatives
    and commutators free of zero subtrees that every evaluation would walk;
    values are unchanged wherever they are finite."""
    terms = [t for t in terms if not t.is_zero]
    if not terms:
        return Const(0)
    return terms[0] if len(terms) == 1 else Add(*terms)


def _prod(*factors) -> Expr:
    if any(f.is_zero for f in factors):
        return Const(0)
    return Mul(*factors)


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(x)


class Const(Expr):
    def __init__(self, value):
        if isinstance(value, QQi):
            value = value.to_complex()
        self.value = value

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def diff(self, var):
        return Const(0)

    def evaluate(self, env):
        return complex(self.value)

    def __repr__(self):
        return f"{self.value}"


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def diff(self, var):
        return Const(1 if var == self.name else 0)

    def evaluate(self, env):
        return env[self.name] + 0j

    def __repr__(self):
        return self.name


class Add(Expr):
    def __init__(self, *args):
        self.args = args

    def diff(self, var):
        return _sum(*(a.diff(var) for a in self.args))

    def evaluate(self, env):
        return sum(a.evaluate(env) for a in self.args)

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.args)) + ")"


class Mul(Expr):
    def __init__(self, *args):
        self.args = args

    def diff(self, var):
        terms = []
        for k in range(len(self.args)):
            factors = list(self.args)
            factors[k] = factors[k].diff(var)
            terms.append(_prod(*factors))
        return _sum(*terms)

    def evaluate(self, env):
        out = 1 + 0j
        for a in self.args:
            out *= a.evaluate(env)
        return out

    def __repr__(self):
        return "*".join(map(repr, self.args))


class Pow(Expr):
    """Integer power; negative exponents give rational functions.  An
    exponent that is not an int (a float, or a bool) raises TypeError,
    since truncating it would give another tree."""

    def __init__(self, base: Expr, exponent: int):
        if exponent.__class__ is not int:
            raise TypeError("a power takes an int exponent, not "
                            f"{type(exponent).__name__}")
        self.base = base
        self.exponent = exponent

    def diff(self, var):
        n = self.exponent
        if n == 0:
            return Const(0)
        return _prod(Const(n), Pow(self.base, n - 1), self.base.diff(var))

    def evaluate(self, env):
        return self.base.evaluate(env) ** self.exponent

    def __repr__(self):
        return f"({self.base!r})^{self.exponent}"


class _numpy_fn:
    """Class attribute holding the numpy function make(np), bound on first
    use: the first lookup imports numpy and puts staticmethod(make(np)) on
    the class in place of this descriptor, so evaluate then pays one class
    attribute lookup plus one call."""

    def __init__(self, make):
        self.make = make

    def __set_name__(self, owner, name):
        self.owner, self.name = owner, name

    def __get__(self, obj, objtype=None):
        import numpy as np
        fn = self.make(np)
        setattr(self.owner, self.name, staticmethod(fn))
        return fn


class _Unary(Expr):
    fn = None
    name = "?"

    def __init__(self, arg: Expr):
        self.arg = arg

    def evaluate(self, env):
        return self.fn(self.arg.evaluate(env))

    def __repr__(self):
        return f"{self.name}({self.arg!r})"


class Sin(_Unary):
    name = "sin"
    fn = _numpy_fn(lambda np: np.sin)

    def diff(self, var):
        return _prod(Cos(self.arg), self.arg.diff(var))


class Cos(_Unary):
    name = "cos"
    fn = _numpy_fn(lambda np: np.cos)

    def diff(self, var):
        return _prod(Const(-1), Sin(self.arg), self.arg.diff(var))


# -- first-order differential operators --------------------------------------


class DiffOperator:
    """c0 + sum_v c_v d/dv over a fixed variable list."""

    def __init__(self, variables, zeroth, firsts: dict):
        self.vars = tuple(variables)
        self.zeroth = zeroth
        self.firsts = dict(firsts)

    def map_coeffs(self, f) -> "DiffOperator":
        return DiffOperator(self.vars, f(self.zeroth),
                            {v: f(c) for v, c in self.firsts.items()})

    def add(self, other: "DiffOperator") -> "DiffOperator":
        firsts = dict(self.firsts)
        for v, c in other.firsts.items():
            firsts[v] = firsts[v] + c if v in firsts else c
        return DiffOperator(self.vars, self.zeroth + other.zeroth, firsts)

    def scale(self, s) -> "DiffOperator":
        return DiffOperator(self.vars, self.zeroth * s,
                            {v: c * s for v, c in self.firsts.items()})

    def sub(self, other: "DiffOperator") -> "DiffOperator":
        return self.add(other.scale(-1))

    def commutator(self, other: "DiffOperator") -> "DiffOperator":
        """Exact [self, other] as a first-order operator.

        The symmetrized second-order part a_v b_w - b_v a_w + a_w b_v - b_w a_v
        vanishes identically because the coefficients commute.  Each
        coefficient is one accumulator, and the result has a first-order
        slot, a cancelled one included, for every slot of either operator.
        """
        a0, b0 = self.zeroth, other.zeroth
        acc = a0.accumulator()
        for v, c in self.firsts.items():
            acc.add(c, b0.diff(v))
        for v, c in other.firsts.items():
            acc.add(c, a0.diff(v), -1)
        zeroth = acc.finish()
        a_firsts = sorted(self.firsts.items())
        b_firsts = sorted(other.firsts.items())
        firsts = {}
        for w in sorted(set(self.firsts) | set(other.firsts)):
            acc = a0.accumulator()
            bw = other.firsts.get(w)
            if bw is not None:
                for v, c in a_firsts:
                    acc.add(c, bw.diff(v))
            aw = self.firsts.get(w)
            if aw is not None:
                for v, c in b_firsts:
                    acc.add(c, aw.diff(v), -1)
            firsts[w] = acc.finish()
        return DiffOperator(self.vars, zeroth, firsts)

    def apply(self, f, env: dict) -> complex:
        """Numeric action on an Expr function at the point(s) of env."""
        total = self.zeroth.evaluate(env) * f.evaluate(env) \
            if not self.zeroth.is_zero else 0j
        for v, c in self.firsts.items():
            total += c.evaluate(env) * f.diff(v).evaluate(env)
        return total

    def __eq__(self, other) -> bool:
        """Exact equality, coefficient by coefficient (a missing slot is
        zero); coefficients without decidable equality raise TypeError."""
        if not isinstance(other, DiffOperator):
            return NotImplemented
        if self.vars != other.vars:
            return False
        zero = self.zeroth.zero()
        return self.zeroth == other.zeroth and all(
            self.firsts.get(v, zero) == other.firsts.get(v, zero)
            for v in set(self.firsts) | set(other.firsts))


def stack_points(points) -> dict:
    """One env holding every point: variable -> float array over points."""
    import numpy as np
    return {v: np.array([pt[v] for pt in points], dtype=float)
            for v in points[0]}
