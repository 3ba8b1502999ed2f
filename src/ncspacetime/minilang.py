"""Expression mini-language: parser and canonical printer.

Grammar (LL(1), juxtaposition-free):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := INT ('/' INT)? | 'i' | NAME ('^' '-'? INT)? | '(' expr ')'

NAME is a generator (x0..x3 or X0..X3, p0..p3, M01..M23, Im, ImInv in the
regimes that support it) or a formal parameter (ell, R_inv, phi, hbar, chi,
phi_cell, sigma).  Parameter powers may be negative; generator powers are
repetition.  The printer emits exactly this grammar, so every printed
element re-parses to an equal one.
"""

from __future__ import annotations

from .algebra import IMINV, LieAlgebraSpec, gen_name
from .enveloping import EnvElement, env_product
from .scalars import (_ZERO_POWS, PARAMS, QQI_ONE, S_ONE, QQi, Scalar,
                      _scalar)


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
            tokens.append(("int", int(text[k:j]), k))
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
        # every operand is normal-ordered, so a degree-0 factor only scales
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
            return EnvElement.scalar(Scalar.rational(num))
        if kind == "end":
            raise MiniLangError("unexpected end of input", pos)
        if kind == "name":
            self.take()
            if value == "i":
                return EnvElement.scalar(Scalar.i())
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
            return EnvElement.monomial((gid,) * exp)
        raise MiniLangError(f"unexpected token {value!r}", pos)


def _scale(e: EnvElement, c: EnvElement) -> EnvElement:
    """e times the degree-0 element c: by the QQi value when c is one
    parameter-free constant, so no Scalar product is formed."""
    s = c.terms.get(())
    if s is None:
        return EnvElement.zero()
    q = s.terms.get(_ZERO_POWS) if len(s.terms) == 1 else None
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

_QQI_MINUS_ONE = -QQI_ONE
_S_MINUS_ONE = -S_ONE


def format_qqi(q: QQi) -> str:
    if q.is_zero:
        return "0"
    if not q.im:
        return str(q.re)
    if not q.re:
        if q.im == 1:
            return "i"
        if q.im == -1:
            return "-i"
        return f"{q.im}*i"
    im = q.im
    sign = "+" if im > 0 else "-"
    mag = "i" if abs(im) == 1 else f"{abs(im)}*i"
    return f"({q.re}{sign}{mag})"


def _format_monomial_params(pows) -> list[str]:
    parts = []
    for name, e in zip(PARAMS, pows):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return parts


def _format_scalar_term(pows, coeff: QQi) -> str:
    parts = _format_monomial_params(pows)
    if not parts:
        return format_qqi(coeff)
    if coeff == QQI_ONE:
        return "*".join(parts)
    if coeff == _QQI_MINUS_ONE:
        return "-" + "*".join(parts)
    return "*".join([format_qqi(coeff)] + parts)


def _join_terms(terms: list[str]) -> str:
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def format_scalar(s: Scalar, product_context: bool = False) -> str:
    if s.is_zero:
        return "0"
    terms = [_format_scalar_term(p, c) for p, c in s.sorted_terms()]
    text = _join_terms(terms)
    if product_context and len(terms) > 1:
        return f"({text})"
    return text


def _format_word(word, regime: str) -> str:
    parts = []
    k = 0
    while k < len(word):
        j = k
        while j < len(word) and word[j] == word[k]:
            j += 1
        gid = word[k]
        name = gen_name(gid, regime)
        parts.append(name if j - k == 1 else f"{name}^{j - k}")
        k = j
    return "*".join(parts)


def format_env(e: EnvElement, regime: str = "full") -> str:
    if e.is_zero:
        return "0"
    bits = []
    for word, s in e.sorted_terms():
        if not word:
            bits.append(format_scalar(s, product_context=False)
                        if len(e.terms) == 1 else
                        format_scalar(s, product_context=True))
            continue
        wtxt = _format_word(word, regime)
        if s == S_ONE:
            bits.append(wtxt)
        elif s == _S_MINUS_ONE:
            bits.append("-" + wtxt)
        else:
            bits.append(f"{format_scalar(s, product_context=True)}*{wtxt}")
    return _join_terms(bits)
