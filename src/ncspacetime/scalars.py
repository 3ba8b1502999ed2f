"""Exact scalar arithmetic kernel.

A Scalar is a finite sum of terms, each term being a Gaussian-rational
coefficient times a monomial in the formal parameters

    ell, R_inv, phi, hbar, chi, phi_cell, sigma

with integer (possibly negative) exponents.  All algebra, calculus and
Casimir computations in this package run over this coefficient ring, so
equality of any two symbolic results is decidable and exact.
"""

from __future__ import annotations

from fractions import Fraction

PARAMS = ("ell", "R_inv", "phi", "hbar", "chi", "phi_cell", "sigma")
_PIDX = {name: k for k, name in enumerate(PARAMS)}
_NPAR = len(PARAMS)
_ZERO_POWS = (0,) * _NPAR


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to an exact rational")


class QQi:
    """Gaussian rational: exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other) -> "QQi":
        other = _as_qqi(other)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "QQi":
        other = _as_qqi(other)
        return QQi(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "QQi":
        return QQi(-self.re, -self.im)

    def __mul__(self, other) -> "QQi":
        other = _as_qqi(other)
        return QQi(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QQi":
        other = _as_qqi(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * other.re + self.im * other.im) / n,
                   (self.im * other.re - self.re * other.im) / n)

    def conj(self) -> "QQi":
        return QQi(self.re, -self.im)

    def __eq__(self, other) -> bool:
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

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _as_scalar(other)
        out = dict(self.terms)
        for pows, c in other.terms.items():
            s = out.get(pows)
            if s is None:
                out[pows] = c
            else:
                s = s + c
                if s:
                    out[pows] = s
                else:
                    del out[pows]
        r = Scalar()
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        return self + (-_as_scalar(other))

    def __neg__(self) -> "Scalar":
        r = Scalar()
        r.terms = {p: -c for p, c in self.terms.items()}
        return r

    def __mul__(self, other) -> "Scalar":
        other = _as_scalar(other)
        out: dict[tuple, QQi] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                pows = tuple(a + b for a, b in zip(p1, p2))
                c = c1 * c2
                s = out.get(pows)
                if s is None:
                    out[pows] = c
                else:
                    s = s + c
                    if s:
                        out[pows] = s
                    else:
                        del out[pows]
        r = Scalar()
        r.terms = out
        return r

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

    def __eq__(self, other) -> bool:
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
        r = Scalar()
        r.terms = out
        return r

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
