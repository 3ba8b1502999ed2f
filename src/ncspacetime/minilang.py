"""Expression mini-language: parser and canonical printer.

Grammar (LL(1), juxtaposition-free):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := INT ('/' INT)? | 'i' | NAME ('^' '-'? INT)? | '(' expr ')'

NAME is a generator (x0..x3 or X0..X3, p0..p3, M01..M23, Im, ImInv in the
regimes that support it) or a formal parameter (ell, R_inv, phi, hbar, chi,
phi_cell, sigma).  Parameter powers may be negative; generator powers are
repetition, of at most 2^20 letters.  The printer emits exactly this
grammar, so every printed element re-parses to an equal one.
"""

from __future__ import annotations

import sys

from .algebra import (FORMAL_BASE, GEN_NAMES, IM, IMINV, ST_NAMES,
                      LieAlgebraSpec)
from .enveloping import EnvElement, env_product
from .scalars import (PARAMS, QQI_I, S_ONE, CoefficientSizeError, QQi,
                      Scalar, _new, _qqi, _scalar, powers)


# a generator power is a word of that many letters: one past this is
# refused before its tuple is built (2^20 letters take 8 MB)
_MAX_GEN_POWER = 1 << 20


class MiniLangError(ValueError):
    """Parse error with a 0-based source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# -- tokenizer ---------------------------------------------------------------

_PUNCT = "+-*/()^"


def _tokenize(text: str):
    tokens = []
    k = 0
    n = len(text)
    while k < n:
        c = text[k]
        if c.isspace():
            k += 1
            continue
        if c in _PUNCT:
            tokens.append((c, c, k))
            k += 1
            continue
        if c.isdigit():
            j = k
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[k:j])
            except ValueError:  # past the interpreter's digit limit
                raise MiniLangError(
                    f"integer literal of {j - k} digits is too long", k
                ) from None
            tokens.append(("int", value, k))
            k = j
            continue
        if c.isalpha() or c == "_":
            j = k
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[k:j], k))
            k = j
            continue
        raise MiniLangError(f"unexpected character {c!r}", k)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text: str, spec: LieAlgebraSpec | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.spec = spec
        if spec is None:
            self.gen_ids = {}
        else:
            self.gen_ids = spec.gen_ids()
            if spec.engine.allow_iminv:
                self.gen_ids["ImInv"] = IMINV

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise MiniLangError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> EnvElement:
        out = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise MiniLangError(f"unexpected trailing {tok[1]!r}", tok[2])
        return out

    def expr(self) -> EnvElement:
        """expr, term and factor in one loop, in the grammar's order of
        evaluation.  Unary minus is a counter, and an open parenthesis
        pushes the enclosing (sum, op, product, negate) onto a stack, so
        neither a long run of signs nor deep nesting recurses."""
        tokens = self.tokens
        stack = []
        total = op = prod = None
        while True:
            negate = False
            while tokens[self.pos][0] == "-":
                self.pos += 1
                negate = not negate
            if tokens[self.pos][0] == "(":
                self.pos += 1
                stack.append((total, op, prod, negate))
                total = op = prod = None
                continue
            value = self.atom()
            while True:
                if negate:
                    value = -value
                prod = value if prod is None else self._mul(prod, value)
                kind = tokens[self.pos][0]
                if kind == "*":
                    self.pos += 1
                    break
                if op is None:
                    total = prod
                else:
                    total = total + prod if op == "+" else total - prod
                prod = None
                if kind == "+" or kind == "-":
                    self.pos += 1
                    op = kind
                    break
                if not stack:
                    return total
                self.take(")")
                value = total
                total, op, prod, negate = stack.pop()

    def _mul(self, a: EnvElement, b: EnvElement) -> EnvElement:
        # Every operand is normal-ordered, so a degree-0 factor only
        # scales, and two monomials whose junction is no rewrite of the
        # kernel (enveloping.RewriteEngine.rewrite_step) concatenate.
        if len(a.terms) == 1 and len(b.terms) == 1:
            (wa, sa), = a.terms.items()
            (wb, sb), = b.terms.items()
            if not wa:
                return _scale(b, a)
            if not wb:
                return _scale(a, b)
            u, v = wa[-1], wb[0]
            if not (u > v and u < FORMAL_BASE or u == IM and v == IMINV):
                # a generator atom's coefficient is the shared S_ONE
                return _monomial(wa + wb, sa if sb is S_ONE else
                                 sb if sa is S_ONE else sa * sb)
            return env_product(a, b, self.spec)
        if not a.degree():
            return _scale(b, a)
        if not b.degree():
            return _scale(a, b)
        return env_product(a, b, self.spec)

    def atom(self) -> EnvElement:
        """Any atom but a parenthesized expr, which expr handles."""
        kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            num = value
            if self.peek()[0] == "/":
                self.take()
                den = self.take("int")[1]
                if den == 0:
                    raise MiniLangError("division by zero", pos)
                return EnvElement.scalar(Scalar.rational(num, den))
            if not num:
                return EnvElement()
            return _monomial((), _scalar({0: _qqi(num, 0)}))
        if kind == "end":
            raise MiniLangError("unexpected end of input", pos)
        if kind == "name":
            self.take()
            if value == "i":
                return _monomial((), _scalar({0: QQI_I}))
            exp = 1
            if self.peek()[0] == "^":
                self.take()
                sign = 1
                if self.peek()[0] == "-":
                    self.take()
                    sign = -1
                exp = sign * self.take("int")[1]
            if value in PARAMS:
                return EnvElement.scalar(Scalar.param(value, exp))
            gid = self.gen_ids.get(value)
            if gid is None:
                raise MiniLangError(f"unknown name {value!r}", pos)
            if exp < 0:
                raise MiniLangError("generator powers must be >= 0", pos)
            if exp > _MAX_GEN_POWER:
                raise MiniLangError(
                    f"generator power {exp} exceeds {_MAX_GEN_POWER}", pos)
            return _monomial((gid,) * exp, S_ONE)
        raise MiniLangError(f"unexpected token {value!r}", pos)


def _monomial(word, coeff: Scalar) -> EnvElement:
    """coeff*word for a nonzero coeff, without the constructor's checks."""
    out = _new(EnvElement)
    out.terms = {word: coeff}
    return out


def _scale(e: EnvElement, c: EnvElement) -> EnvElement:
    """e times the degree-0 element c: by the QQi value when c is one
    parameter-free constant, so no Scalar product is formed."""
    s = c.terms.get(())
    if s is None:
        return EnvElement.zero()
    q = s.terms.get(0) if len(s.terms) == 1 else None
    if q is None:
        return e.scale(s)
    out = EnvElement()
    out.terms = {w: _scalar({p: q * v for p, v in t.terms.items()})
                 for w, t in e.terms.items()}
    return out


def parse_element(text: str, spec: LieAlgebraSpec) -> EnvElement:
    return _Parser(text, spec).parse()


def parse_scalar(text: str) -> Scalar:
    elem = _Parser(text, None).parse()
    return elem.terms.get((), Scalar.zero())


# -- printer -----------------------------------------------------------------
#
# Each term is read directly: a coefficient's single (key, QQi) pair, a
# word's letters against the regime's names, so printing makes no Scalar
# comparison and no per-letter call.


def format_qqi(q: QQi) -> str:
    """q as text; CoefficientSizeError if a part has more digits than the
    interpreter converts (sys.get_int_max_str_digits)."""
    try:
        return _format_qqi(q.re, q.im)
    except ValueError:
        raise CoefficientSizeError(
            "a coefficient has more than "
            f"{sys.get_int_max_str_digits()} digits to print") from None


def _format_qqi(re, im) -> str:
    if not im:
        return str(re)
    if not re:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{im}*i"
    if im == 1:
        return f"({re}+i)"
    if im == -1:
        return f"({re}-i)"
    return f"({re}+{im}*i)" if im > 0 else f"({re}{im}*i)"


def _format_scalar_term(key: int, coeff: QQi, monos: dict | None) -> str:
    """One term of a Scalar.  monos, if given, maps each monomial key that
    the same format_env call already printed to its text, so each key is
    decoded once per call."""
    if not key:
        return format_qqi(coeff)
    parts = None if monos is None else monos.get(key)
    if parts is None:
        parts = "*".join([name if e == 1 else f"{name}^{e}"
                          for name, e in powers(key).items()])
        if monos is not None:
            monos[key] = parts
    if not coeff.im:
        if coeff.re == 1:
            return parts
        if coeff.re == -1:
            return "-" + parts
    return f"{format_qqi(coeff)}*{parts}"


def _join_terms(terms: list[str]) -> str:
    # no printed term holds " + -" (an exponent's minus follows "^"), so
    # the replace only turns "+ -t" at a term boundary into "- t"
    return " + ".join(terms).replace(" + -", " - ")


def format_scalar(s: Scalar, product_context: bool = False,
                  monos: dict | None = None) -> str:
    """s as text; monos is format_env's key cache (_format_scalar_term).
    The keys of one Scalar are distinct, so alone it needs none."""
    terms = s.terms
    if len(terms) == 1:
        (key, coeff), = terms.items()
        return _format_scalar_term(key, coeff, monos)
    if not terms:
        return "0"
    text = _join_terms([_format_scalar_term(p, c, monos)
                        for p, c in s.sorted_terms()])
    return f"({text})" if product_context else text


def _format_word(word, names) -> str:
    parts = []
    n = len(word)
    k = 0
    while k < n:
        g = word[k]
        j = k + 1
        while j < n and word[j] == g:
            j += 1
        name = names[g] if g < FORMAL_BASE else f"A{g - FORMAL_BASE}"
        parts.append(name if j - k == 1 else f"{name}^{j - k}")
        k = j
    return "*".join(parts)


def format_env(e: EnvElement, regime: str = "full") -> str:
    if not e.terms:
        return "0"
    names = ST_NAMES if regime == "spacetime" else GEN_NAMES
    parens = len(e.terms) > 1
    # a key can repeat only across the terms of a multi-term element
    monos = {} if parens else None
    bits = []
    for word, s in e.sorted_terms():
        if not word:
            bits.append(format_scalar(s, parens, monos))
            continue
        wtxt = _format_word(word, names)
        c = format_scalar(s, True, monos)
        # only the constants 1 and -1 print as "1" and "-1"
        if c == "1":
            bits.append(wtxt)
        elif c == "-1":
            bits.append("-" + wtxt)
        else:
            bits.append(f"{c}*{wtxt}")
    return _join_terms(bits)
