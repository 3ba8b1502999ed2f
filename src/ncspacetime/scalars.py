"""Exact scalar arithmetic kernel.

A Scalar is a finite sum of terms, each term being a Gaussian-rational
coefficient times a monomial in the formal parameters

    ell, R_inv, phi, hbar, chi, phi_cell, sigma

with integer (possibly negative) exponents.  All algebra, calculus and
Casimir computations in this package run over this coefficient ring, so
equality of any two symbolic results is decidable and exact.

A monomial is one int, its key in Scalar.terms: the exponents are the
balanced base-2^128 digits of the key, PARAMS[0] the most significant.
So a product of monomials is a sum of keys, the constant monomial is 0,
and int order is exponent-tuple order.  Every exponent of a Scalar is
below 2^63 in magnitude (ExponentRangeError otherwise).  A field holds
digits up to 2^127 in magnitude, so a sum carries into the next field only
after 2^64 in-range exponents, more than any computation can add up; one
test of a result key (_checked) finds every exponent that left the range.
powers() reads a key's exponents back; no other module knows the layout.

Each rational part of a QQi is an ``int`` while integral, else a reduced
``Fraction``; every operation normalizes its result.  Python compares and
hashes the two types consistently, so equality and dict keys stay exact
while the common Gaussian-integer coefficients run on plain ``int``s.
"""

from __future__ import annotations

from fractions import Fraction

PARAMS = ("ell", "R_inv", "phi", "hbar", "chi", "phi_cell", "sigma")
_NPAR = len(PARAMS)
_FIELD = 128
_LIMIT = 1 << 63  # every exponent is below this in magnitude
_SHIFT = {name: _FIELD * (_NPAR - 1 - k) for k, name in enumerate(PARAMS)}
_FIELDS = tuple((name, s, (1 << s) >> 1) for name, s in _SHIFT.items())
_FIELD_OF = {name: (s, half) for name, s, half in _FIELDS}
_DIGIT = (1 << _FIELD) - 1
# key + _BIAS and _BIAS - key have every digit in [0, 2^64), which is what
# _OUT tests, exactly when every exponent of key is below _LIMIT in magnitude
_BIAS = sum((_LIMIT - 1) << s for s in _SHIFT.values())
_OUT = ~sum(((1 << 64) - 1) << s for s in _SHIFT.values())
# a power of a coefficient is refused beyond this many bits (about 315,000
# decimal digits, far past what Python prints by default)
_MAX_POWER_BITS = 1 << 20


class ExponentRangeError(ValueError):
    """A parameter exponent of 2^63 or more in magnitude."""


class CoefficientSizeError(ValueError):
    """A coefficient too large to compute or to print."""


def powers(key: int) -> dict:
    """The nonzero exponents of the monomial key, by parameter name in
    PARAMS order."""
    out = {}
    for name, shift, half in _FIELDS:
        if not key:
            break
        # the digits below this field sum to within half of its unit
        e = (key + half) >> shift
        if e:
            out[name] = e
            key -= e << shift
    return out


def _checked(terms: dict) -> dict:
    """terms, once every key's exponents are known to be in range."""
    for key in terms:
        if key and ((key + _BIAS) & _OUT or (_BIAS - key) & _OUT):
            raise ExponentRangeError(
                "parameter exponents must stay below 2^63 in magnitude")
    return terms


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
# coefficient items of 1 and -1 (_add_times)
_UNIT = ((0, QQI_ONE),)
_MINUS_ONE = ((0, QQi(-1)),)


class Scalar:
    """Sum of Gaussian-rational multiples of parameter monomials.

    Stored as a map from monomial keys (ints; see the module docstring) to
    nonzero QQi coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[int, QQi] = {}
        if terms:
            for key, coeff in terms.items():
                if key.__class__ is not int:
                    raise TypeError(f"monomial key {key!r} is not an int")
                c = _as_qqi(coeff)
                if c:
                    self.terms[key] = c
            _checked(self.terms)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls) -> "Scalar":
        return cls()

    @classmethod
    def one(cls) -> "Scalar":
        return cls({0: QQI_ONE})

    @classmethod
    def of(cls, value) -> "Scalar":
        """Constant scalar from an int, Fraction, QQi or Scalar."""
        if isinstance(value, Scalar):
            return value
        return cls({0: _as_qqi(value)})

    @classmethod
    def i(cls) -> "Scalar":
        return cls({0: QQI_I})

    @classmethod
    def rational(cls, p, q=1) -> "Scalar":
        return cls({0: QQi(Fraction(p, q))})

    @classmethod
    def param(cls, name: str, exp: int = 1, coeff=1) -> "Scalar":
        if not -_LIMIT < exp < _LIMIT:
            raise ExponentRangeError(
                f"exponent {exp} of {name} is not below 2^63 in magnitude")
        return cls({exp << _SHIFT[name]: _as_qqi(coeff)})

    # -- queries --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not any(self.terms)

    def constant_value(self) -> QQi:
        if not self.terms:
            return QQI_ZERO
        if not self.is_constant():
            raise ValueError("scalar is not constant")
        return self.terms[0]

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
        return _scalar(_add_times(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
        return _scalar(_add_times(dict(self.terms), other.terms.items(),
                                  _MINUS_ONE))

    def __rsub__(self, other) -> "Scalar":
        return _as_scalar(other) - self

    def __neg__(self) -> "Scalar":
        return _scalar({p: -c for p, c in self.terms.items()})

    def __mul__(self, other) -> "Scalar":
        if other.__class__ is not Scalar:
            other = _as_scalar(other)
        return _scalar(_checked(_add_times(
            {}, other.terms.items(), self.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Scalar":
        """A one-term scalar's power directly, as the key times n and the
        coefficient by repeated squaring; any other by repeated products."""
        if len(self.terms) == 1:
            (key, c), = self.terms.items()
            if key and not -_LIMIT < n < _LIMIT:  # key * n could carry
                raise ExponentRangeError(
                    f"a monomial to the power {n} leaves the exponent range")
            return _scalar(_checked({key * n: _qqi_pow(c, n)}))
        if n < 0:
            return self.inverse() ** (-n)
        if not self.terms:
            return Scalar.zero() if n else Scalar.one()
        r = Scalar.one()
        for _ in range(n):
            r = r * self
        return r

    def inverse(self) -> "Scalar":
        """Inverse of a single-term scalar (monomial inversion).  The
        exponent range is symmetric, so negating a key keeps it in range."""
        if len(self.terms) != 1:
            raise ValueError("only single-term scalars are invertible")
        (key, c), = self.terms.items()
        return _scalar({-key: QQI_ONE / c})

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

    def substitute(self, mapping: dict) -> "Scalar":
        """Replace parameters by one-term or zero Scalars, in one pass: a
        term's exponent e of a replaced parameter, read off the term's own
        key, shifts the key by e times the replacement's and multiplies
        the coefficient by the replacement's to the e.  So only the
        result's exponents must be in range.  A positive power of zero
        drops the term, and a negative one raises ZeroDivisionError.
        """
        items = []
        for key, c in self.terms.items():
            orig, vanishes = key, False
            for name, val in mapping.items():
                shift, half = _FIELD_OF[name]
                # the digits below the field sum to within half of its unit
                e = ((orig + half) >> shift) & _DIGIT
                if not e:
                    continue
                if e >> (_FIELD - 1):
                    e -= 1 << _FIELD
                if val.__class__ is not Scalar:
                    val = _as_scalar(val)
                if not val:
                    if e < 0:
                        raise ZeroDivisionError(
                            f"negative power of {name}, which is bound to 0")
                    vanishes = True
                    continue
                if len(val.terms) > 1:
                    raise ValueError(f"{name} must be replaced by one term")
                (k, q), = val.terms.items()
                key += e * k - (e << shift)
                if e != 1:
                    q = _qqi_pow(q, e)
                if q.im or q.re != 1:
                    c = c * q
            if not vanishes:
                items.append((key, c))
        return _scalar(_checked(_add_times({}, items)))

    def evaluate(self, env: dict) -> complex:
        """Numeric value with every parameter bound in env."""
        total = 0j
        for key, c in self.terms.items():
            v = c.to_complex()
            for name, e in powers(key).items():
                if name not in env:
                    raise KeyError(f"parameter {name} unbound")
                v *= complex(env[name]) ** e
            total += v
        return total

    def sorted_terms(self):
        """The terms in exponent-tuple order, which is key order."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        from .minilang import format_scalar
        return format_scalar(self)


def _qqi_pow(c: QQi, n: int) -> QQi:
    """c ** n by repeated squaring; CoefficientSizeError if the result
    could exceed _MAX_POWER_BITS."""
    if n < 0:
        c, n = QQI_ONE / c, -n
    if c.re * c.re + c.im * c.im != 1 or c.re.__class__ is not int \
            or c.im.__class__ is not int:  # not a unit: the power grows
        bits = max(x.bit_length() for x in (
            c.re.numerator, c.re.denominator, c.im.numerator,
            c.im.denominator))
        if n * (bits + 1) > _MAX_POWER_BITS:
            raise CoefficientSizeError(
                f"power {n} of a {bits}-bit coefficient would exceed "
                f"{_MAX_POWER_BITS} bits")
    if not c.im:
        return _qqi(_norm(c.re ** n), 0)
    r = QQI_ONE
    while n:
        if n & 1:
            r = r * c
        n >>= 1
        if n:
            c = c * c
    return r


def _scalar(terms: dict) -> Scalar:
    """Scalar owning terms, whose coefficients are nonzero QQi and whose
    keys are in range."""
    r = _new(Scalar)
    r.terms = terms
    return r


def _add_times(d: dict, c, coeff=_UNIT) -> dict:
    """d += c * coeff for a dict d {int key: QQi} and iterables c and
    coeff of (int key, QQi) items (c is read once per item of coeff):
    keys whose values cancel are dropped, and d is returned.

    The one sum of such maps: Scalar's +, -, * and substitute and the PBW
    kernel's coefficients (enveloping) run on it.  The QQi product and sum
    are written out on the parts, and d stores only QQi objects made here
    and never changes one it holds, so c may share QQi objects with d."""
    for mono, r in coeff:
        a, b = r.re, r.im
        scale = b or a != 1
        for key, q in c:
            if mono:
                key += mono
            re, im = q.re, q.im
            if scale:
                re, im = a * re - b * im, a * im + b * re
            t = d.get(key)
            if t is not None:
                re += t.re
                im += t.im
            if re.__class__ is not int:
                re = _norm(re)
            if im.__class__ is not int:
                im = _norm(im)
            if re or im:
                v = d[key] = _new(QQi)
                v.re = re
                v.im = im
            elif t is not None:
                del d[key]
    return d


def _accumulate(out: dict, items) -> dict:
    """Add nonzero (key, value) items into out, dropping keys whose values
    cancel: (word, Scalar) for EnvElement terms, and (key, QQi) for the
    exact rings of expressions."""
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


S_ONE = Scalar.one()
S_I = Scalar.i()
S_MINUS_I = Scalar({0: QQi(0, -1)})
