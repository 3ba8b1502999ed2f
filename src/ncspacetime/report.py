"""Deterministic JSON reports.

Serialization is canonical: object keys sorted, floats printed with 17
significant digits, exact values pre-rendered as rational strings.  Equal
command, spec and seed therefore produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape

SCHEMA_VERSION = "3"

EXACT_ZERO = "exact-zero"

# Conventions fixed by this implementation and recorded in every report.
MODULE_CONSTANTS = {
    "identification": {
        "x_mu": "ell*M_mu4", "p_mu": "R_inv*M_mu5", "Im": "ell*R_inv*M45"},
    "phi_term_sign": -1,
    "cell_m_prefactor": "i/2",
    "cell_im_prefactor": "i/(N-1)",
    "boost_generator_sign": -1,
    "boost_exponent_factor": 0.5,
    "coordinate_lowering": "d/dxi_mu = eta_mumu * d/dxi^mu, eta=(1,-1,-1,-1)",
    "tangent_x_im_bracket": "i*eps4*ell^2*p (retained; required by Jacobi)",
}


@dataclass
class Check:
    name: str
    status: str  # pass | fail | skip
    max_residual: object = EXACT_ZERO  # float, "exact-zero" or "inf"
    details: object = ""

    @classmethod
    def exact(cls, name: str, failure, note) -> Check:
        """An exact check's verdict: failed with residual 1.0 and details
        failure if failure is truthy, else passed with "exact-zero", note."""
        if failure:
            return cls(name, "fail", 1.0, failure)
        return cls(name, "pass", EXACT_ZERO, note)

    def as_dict(self) -> dict:
        # JSON has no infinity; a residual that is not finite prints "inf"
        residual = "inf" if self.max_residual == math.inf else self.max_residual
        return {"name": self.name, "status": self.status,
                "max_residual": residual, "details": self.details}


@dataclass
class Report:
    command: str
    spec_echo: dict
    seed: int = 0
    tolerance: float | None = None
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def as_dict(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skip": 0}
        for c in self.checks:
            counts[c.status] += 1
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "seed": self.seed,
            "spec": self.spec_echo,
            "constants": MODULE_CONSTANTS,
            "checks": [c.as_dict() for c in sorted(self.checks,
                                                   key=lambda c: c.name)],
            "summary": counts,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.payload:
            out["result"] = self.payload
        return out

    def dumps(self) -> str:
        return canonical_dumps(self.as_dict()) + "\n"


def _format_float(x: float) -> str:
    if x != x:
        raise ValueError("NaN is not representable in a report")
    if x in (float("inf"), float("-inf")):
        raise ValueError("infinity is not representable in a report")
    if x == 0.0:
        return "0"  # normalize the sign of zero
    return format(float(x), ".17g")


# each value's class, or for an instance of a subclass the first of these
# it is an instance of (the order of the checks: bool before int)
_KINDS = (type(None), bool, int, float, str, list, tuple, dict)
_EXACT_KINDS = frozenset(_KINDS)


def _key_text(item) -> str:
    return str(item[0])


def canonical_dumps(obj, indent: int = 0) -> str:
    out = []
    _emit(obj, "\n" + "  " * indent, out)
    return "".join(out)


def _emit(obj, nl: str, out: list) -> None:
    """Append the text of obj to out; nl is a newline and the indent of
    the line obj starts on."""
    cls = obj.__class__
    if cls not in _EXACT_KINDS:
        cls = next((k for k in _KINDS if isinstance(obj, k)), cls)
    if cls is str:
        out.append(_escape(obj))
    elif cls is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{"
        for k, v in sorted(obj.items(), key=_key_text):
            out += sep, inner, _escape(str(k)), ": "
            _emit(v, inner, out)
            sep = ","
        out += nl, "}"
    elif cls is list or cls is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "["
        for v in obj:
            out += sep, inner
            _emit(v, inner, out)
            sep = ","
        out += nl, "]"
    elif cls is int:
        out.append(str(obj))
    elif cls is float:
        out.append(_format_float(obj))
    elif cls is bool:
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
