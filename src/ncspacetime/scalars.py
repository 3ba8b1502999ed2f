"""Exact scalar arithmetic kernel.

A Scalar is a finite sum of terms, each term being a Gaussian-rational
coefficient times a monomial in the formal parameters

    ell, R_inv, phi, hbar, chi, phi_cell, sigma

with integer (possibly negative) exponents.  All algebra, calculus and
Casimir computations in this package run over this coefficient ring, so
equality of any two symbolic results is decidable and exact.

Each rational part of a QQi is an ``int`` while integral, else a reduced
``Fraction``; every operation normalizes its result.  Python compares and
hashes the two types consistently, so equality and dict keys stay exact
while the common Gaussian-integer coefficients run on plain ``int``s.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add as _add

PARAMS = ("ell", "R_inv", "phi", "hbar", "chi", "phi_cell", "sigma")
_PIDX = {name: k for k, name in enumerate(PARAMS)}
_NPAR = len(PARAMS)
_ZERO_POWS = (0,) * _NPAR


def _norm(x):
    """An int or Fraction as an int while integral, else as it is."""
    if x.__class__ is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _part(x):
    if isinstance(x, str):
        x = Fraction(x)
    elif not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot coerce {x!r} to an exact rational")
    return _norm(x)


_new = object.__new__


def _qqi(re, im) -> "QQi":
    """QQi from parts already normalized, without coercion."""
    q = _new(QQi)
    q.re = re
    q.im = im
    return q


class QQi:
    """Gaussian rational: exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _part(re)
        self.im = _part(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other) -> "QQi":
        if other.__class__ is not QQi:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _qqi(_norm(self.re + other.re), _norm(self.im + other.im))

    __radd__ = __add__

    def __sub__(self, other) -> "QQi":
        if other.__class__ is not QQi:
            other = _operand(other)
            if other is None:
                return NotImplemented
        return _qqi(_norm(self.re - other.re), _norm(self.im - other.im))

    def __rsub__(self, other) -> "QQi":
        other = _operand(other)
        return NotImplemented if other is None else other - self

    def __neg__(self) -> "QQi":
        return _qqi(-self.re, -self.im)

    def __mul__(self, other) -> "QQi":
        if other.__class__ is not QQi:
            other = _operand(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return _qqi(_norm(a * c - b * d), _norm(a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QQi":
        other = _operand(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # Fraction(p, n), not p / n: int / int would be a float
        return QQi(Fraction(self.re * other.re + self.im * other.im, n),
                   Fraction(self.im * other.re - self.re * other.im, n))

    def conj(self) -> "QQi":
        return _qqi(self.re, -self.im)

    def __eq__(self, other) -> bool:
        if other.__class__ is QQi:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            other = QQi(other)
        if not isinstance(other, QQi):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"QQi({self.re}, {self.im})"


def _as_qqi(x) -> QQi:
    if isinstance(x, QQi):
        return x
    return QQi(x)


def _operand(x) -> QQi | None:
    """x as the QQi operand of an operator, or None if it is not rational,
    so that the operator can defer to the other operand (e.g. a Scalar)."""
    try:
        return _as_qqi(x)
    except TypeError:
        return None


QQI_ZERO = QQi(0)
QQI_ONE = QQi(1)
QQI_I = QQi(0, 1)


class Scalar:
    """Sum of Gaussian-rational multiples of parameter monomials.

    Stored as a map from exponent tuples (one slot per formal parameter)
    to nonzero QQi coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[tuple, QQi] = {}
        if terms:
            for pows, coeff in terms.items():
                c = _as_qqi(coeff)
                if c:
                    self.terms[pows] = c

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({_ZERO_POWS: QQI_ONE})

    @classmethod
    def of(cls, value) -> "Scalar":
        """Constant scalar from an int, Fraction, QQi or Scalar."""
        if isinstance(value, Scalar):
            return value
        return cls({_ZERO_POWS: _as_qqi(value)})

    @classmethod
    def i(cls) -> "Scalar":
        return cls({_ZERO_POWS: QQI_I})

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return cls({_ZERO_POWS: QQi(Fraction(p, q))})

    @classmethod
    def param(cls, name: str, exp: int = 1, coeff=1) -> "Scalar":
        pows = [0] * _NPAR
        pows[_PIDX[name]] = exp
        return cls({tuple(pows): _as_qqi(coeff)})

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(p == _ZERO_POWS for p in self.terms)

    def constant_value(self) -> QQi:
        if not self.terms:
            return QQI_ZERO
        if not self.is_constant():
            raise ValueError("scalar is not constant")
        return self.terms[_ZERO_POWS]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
        return _scalar(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
        return _scalar(_accumulate(dict(self.terms),
                                   ((p, -c) for p, c in other.terms.items())))

    def __rsub__(self, other) -> "Scalar":
        return _as_scalar(other) - self

    def __neg__(self) -> "Scalar":
        return _scalar({p: -c for p, c in self.terms.items()})

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
        return _scalar(_accumulate({}, (
            (_mono_mul(p1, p2), c1 * c2)
            for p1, c1 in self.terms.items()
            for p2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        r = Scalar.one()
        for _ in range(n):
            r = r * self
        return r

    def inverse(self) -> "Scalar":
        """Inverse of a single-term scalar (monomial inversion)."""
        if len(self.terms) != 1:
            raise ValueError("only single-term scalars are invertible")
        (pows, c), = self.terms.items()
        inv = tuple(-e for e in pows)
        return Scalar({inv: QQI_ONE / c})

    def __truediv__(self, other) -> "Scalar":
        """Division by a single-term scalar (see inverse)."""
        return self * _as_scalar(other).inverse()

    def __rtruediv__(self, other) -> "Scalar":
        return _as_scalar(other) * self.inverse()

    def __eq__(self, other) -> bool:
        if other.__class__ is Scalar:
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, QQi)):
            other = Scalar.of(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- substitution and evaluation -------------------------------------

    def set_param_zero(self, name: str) -> "Scalar":
        """Substitute a parameter by zero (kills terms with positive power)."""
        k = _PIDX[name]
        out: dict[tuple, QQi] = {}
        for pows, c in self.terms.items():
            if pows[k] < 0:
                raise ZeroDivisionError(
                    f"negative power of {name} cannot be set to zero")
            if pows[k] == 0:
                out[pows] = c
        return _scalar(out)

    def substitute(self, mapping: dict) -> "Scalar":
        """Replace parameters by Scalars.

        Negative powers are allowed when the replacement is an invertible
        (single-term) scalar.
        """
        out = Scalar.zero()
        for pows, c in self.terms.items():
            term = Scalar.of(c)
            rest = [0] * _NPAR
            for k, e in enumerate(pows):
                name = PARAMS[k]
                if e and name in mapping:
                    val = _as_scalar(mapping[name])
                    term = term * (val ** e)
                else:
                    rest[k] = e
            term = term * Scalar({tuple(rest): QQI_ONE})
            out = out + term
        return out

    def evaluate(self, env: dict) -> complex:
        """Numeric value with every parameter bound in env."""
        total = 0j
        for pows, c in self.terms.items():
            v = c.to_complex()
            for k, e in enumerate(pows):
                if e:
                    name = PARAMS[k]
                    if name not in env:
                        raise KeyError(f"parameter {name} unbound")
                    v *= complex(env[name]) ** e
            total += v
        return total

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        from .minilang import format_scalar
        return format_scalar(self)


def _mono_mul(p1: tuple, p2: tuple) -> tuple:
    if p1 == _ZERO_POWS:
        return p2
    if p2 == _ZERO_POWS:
        return p1
    return tuple(map(_add, p1, p2))


def _scalar(terms: dict) -> Scalar:
    """Scalar owning terms, whose coefficients are nonzero QQi."""
    r = _new(Scalar)
    r.terms = terms
    return r


def _accumulate(out: dict, items) -> dict:
    """Add nonzero (key, value) items into out, dropping keys whose values
    cancel: (pows, QQi) for Scalar and Poly terms, (word, Scalar) for
    EnvElement terms."""
    for key, c in items:
        s = out.get(key)
        if s is None:
            out[key] = c
        else:
            s = s + c
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _as_scalar(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction, QQi)):
        return Scalar.of(x)
    raise TypeError(f"cannot coerce {x!r} to Scalar")


S_ZERO = Scalar.zero()
S_ONE = Scalar.one()
S_I = Scalar.i()
S_MINUS_I = Scalar({_ZERO_POWS: QQi(0, -1)})
