"""Independent answers for the commute-stream workload.

Both the input elements and the program's printed commutators are read
here by a small numeric evaluator of the element grammar, written apart
from the package's parser.  Every generator becomes its 6x6 matrix in the
defining representation of so(eta6) (``physical_rep`` at ell = 1,
R_inv = 1/2), and the formal parameter phi takes its locus value
eps5 * R_inv^2 = eps5 / 4.  A printed commutator is right when its matrix
equals the matrix commutator of the two inputs.
"""

from __future__ import annotations

import re

import numpy as np

ELL = 1.0
R_INV = 0.5

GENERATOR_NAMES = ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
                   "M01", "M02", "M03", "M12", "M13", "M23", "Im")

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\S))")


class OracleError(ValueError):
    pass


def _tokens(text: str) -> list:
    out = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise OracleError(f"cannot read {text[pos:]!r}")
        pos = m.end()
        num, name, punct = m.groups()
        if num is not None:
            out.append(("int", int(num)))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append((punct, punct))
    out.append(("end", None))
    return out


class MatrixEvaluator:
    """Maps element text to its 6x6 matrix image.

    Grammar: expr := term (('+'|'-') term)*; term := factor ('*' factor)*;
    factor := '-' factor | atom; atom := INT ('/' INT)? | 'i' |
    NAME ('^' '-'? INT)? | '(' expr ')'.
    """

    def __init__(self, gen_mats: dict, eps5: int):
        self.gens = gen_mats
        self.params = {"ell": ELL, "R_inv": R_INV, "phi": eps5 * R_INV ** 2}
        self.eye = np.eye(6, dtype=complex)

    def __call__(self, text: str) -> np.ndarray:
        self.toks = _tokens(text)
        self.pos = 0
        out = self.expr()
        if self.toks[self.pos][0] != "end":
            raise OracleError(f"trailing input in {text!r}")
        return out

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise OracleError(f"expected {kind}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self):
        out = self.term()
        while self.toks[self.pos][0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while self.toks[self.pos][0] == "*":
            self.take()
            out = out @ self.factor()
        return out

    def factor(self):
        if self.toks[self.pos][0] == "-":
            self.take()
            return -self.factor()
        return self.atom()

    def atom(self):
        kind, value = self.take()
        if kind == "(":
            out = self.expr()
            self.take(")")
            return out
        if kind == "int":
            if self.toks[self.pos][0] == "/":
                self.take()
                return (value / self.take("int")[1]) * self.eye
            return value * self.eye
        if kind != "name":
            raise OracleError(f"unexpected {value!r}")
        if value == "i":
            return 1j * self.eye
        exp = 1
        if self.toks[self.pos][0] == "^":
            self.take()
            sign = -1 if self.toks[self.pos][0] == "-" else 1
            if sign < 0:
                self.take()
            exp = sign * self.take("int")[1]
        if value in self.params:
            return self.params[value] ** exp * self.eye
        if value not in self.gens or exp < 0:
            raise OracleError(f"unexpected name {value}^{exp}")
        return np.linalg.matrix_power(self.gens[value], exp)


def commutator_residual(evaluate: MatrixEvaluator, a: str, b: str,
                        printed: str) -> float:
    """Relative max-entry distance between the printed commutator and
    the matrix commutator of the inputs."""
    ma, mb = evaluate(a), evaluate(b)
    want = ma @ mb - mb @ ma
    got = evaluate(printed)
    scale = max(1.0, float(np.abs(ma @ mb).max()), float(np.abs(mb @ ma).max()))
    return float(np.abs(got - want).max()) / scale
