"""Deterministic JSON reports.

Serialization is canonical: object keys sorted, floats printed with 17
significant digits, exact values pre-rendered as rational strings.  Equal
command, spec and seed therefore produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _escape_string(s: str) -> str:
    import json
    return json.dumps(s, ensure_ascii=True)


def canonical_dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return _escape_string(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(pad_in + canonical_dumps(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",\n".join(
            f"{pad_in}{_escape_string(str(k))}: {canonical_dumps(v, indent + 1)}"
            for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")
