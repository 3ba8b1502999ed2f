"""Algebra-spec files: JSON documents selecting signature, regime,
parameter bindings and the optional cell/representation blocks."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (LieAlgebraSpec, Signature, build_deformed_algebra,
                      set_bracket)
from .clifford import FinkelsteinParams
from .minilang import MiniLangError, parse_element, parse_scalar
from .scalars import PARAMS, Scalar


class SpecFileError(ValueError):
    pass


@dataclass
class RepConfig:
    sigma: float = 0.37
    epsilon: int = 0
    samples: int = 120
    seed: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise SpecFileError("rep.epsilon must be 0 or 1")
        if not abs(self.sigma) < float("inf"):
            raise SpecFileError("rep.sigma must be finite")
        if not 0 < self.tolerance < float("inf"):
            raise SpecFileError("rep.tolerance must be finite and positive")
        if self.samples < 1:
            raise SpecFileError("rep.samples must be positive")


@dataclass
class SpecFile:
    signature: Signature = Signature(1, 1)
    regime: str = "full"
    bindings: dict = field(default_factory=dict)  # param -> Scalar or None
    finkelstein: FinkelsteinParams | None = None
    rep: RepConfig = field(default_factory=RepConfig)
    structure_overrides: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def build(self) -> LieAlgebraSpec:
        """Structure-constant table per the file: the built-in table with
        the overrides, each parsed against the built-in table, and then
        the numeric bindings applied."""
        spec = build_deformed_algebra(self.signature, self.regime)
        if not self.structure_overrides and not self.numeric:
            return spec
        table = dict(spec.table)
        for key, text in self.structure_overrides.items():
            a, b = _parse_override_key(key, spec)
            elem = parse_element(text, spec)
            if elem.degree() > 1:
                raise SpecFileError(
                    f"override {key!r} must be degree <= 1, got {text!r}")
            if not elem.monomial_support().issubset(spec.basis):
                raise SpecFileError(
                    f"override {key!r} uses a generator outside the "
                    f"{spec.regime} basis: {text!r}")
            set_bracket(table, a, b, elem)
        table = self.bind(table, "a structure constant")
        return LieAlgebraSpec(spec.signature, spec.regime, spec.basis, table)

    @property
    def numeric(self) -> dict:
        """The parameters bound to numbers: name -> Scalar."""
        return {name: val for name, val in self.bindings.items()
                if val is not None}

    def bind(self, elems: dict, what: str) -> dict:
        """elems (key -> EnvElement) with the numeric bindings applied to
        every coefficient; elems itself when no parameter is bound to a
        number.  what names the elements in the error."""
        numeric = self.numeric
        if not numeric:
            return elems

        def bind(s: Scalar) -> Scalar:
            return s.substitute(numeric)
        try:
            return {key: elem.map_scalars(bind) for key, elem in elems.items()}
        except ZeroDivisionError as exc:
            raise SpecFileError(f"{what} holds a negative power of a "
                                "parameter bound to 0") from exc


def _parse_override_key(key: str, spec: LieAlgebraSpec) -> tuple[int, int]:
    text = key.strip()
    if not (text.startswith("[") and text.endswith("]") and "," in text):
        raise SpecFileError(f"override key must look like [p0,x0]: {key!r}")
    left, right = text[1:-1].split(",", 1)
    ids = spec.gen_ids()
    try:
        a, b = ids[left.strip()], ids[right.strip()]
    except KeyError as exc:
        raise SpecFileError(f"unknown generator in override key {key!r}") from exc
    if a == b:
        raise SpecFileError(
            f"override key {key!r} brackets a generator with itself, "
            "which vanishes identically")
    return a, b


def _parse_binding(name: str, value) -> Scalar | None:
    if value == "symbolic" or value is None:
        return None
    if isinstance(value, bool):
        raise SpecFileError(f"binding {name} must be a rational or 'symbolic'")
    if isinstance(value, int):
        return Scalar.rational(value)
    if isinstance(value, str):
        try:
            return Scalar.of(parse_scalar(value).constant_value())
        except (MiniLangError, ValueError) as exc:
            raise SpecFileError(
                f"binding {name}: not an exact constant: {value!r}") from exc
    raise SpecFileError(f"binding {name} must be a rational string")


def _parse_exact_complex(name: str, value):
    from .scalars import QQi
    if value.__class__ is int:
        return QQi(value)
    if isinstance(value, str):
        try:
            return parse_scalar(value).constant_value()
        except (MiniLangError, ValueError) as exc:
            raise SpecFileError(
                f"{name}: not an exact constant: {value!r}") from exc
    raise SpecFileError(f"{name} must be an int or exact-constant string")


def _integer(blk: dict, key: str, default: int, block: str) -> int:
    """blk[key] (default when absent), which must be a JSON integer: a
    bool, a float or a string is an error, not converted."""
    value = blk.get(key, default)
    if value.__class__ is not int:
        raise SpecFileError(f"bad {block} block: {key} must be an integer, "
                            f"not {type(value).__name__}")
    return value


def _number(blk: dict, key: str, default: float, block: str) -> float:
    """blk[key] (default when absent) as a float; it must be a JSON
    number: a bool or a string is an error, not converted."""
    value = blk.get(key, default)
    if value.__class__ not in (int, float):
        raise SpecFileError(f"bad {block} block: {key} must be a number, "
                            f"not {type(value).__name__}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise SpecFileError(f"bad {block} block: {key}: {exc}") from exc


def _object(data: dict, name: str) -> dict:
    """The block data[name] ({} when absent), which must be a JSON object."""
    blk = data.get(name, {})
    if not isinstance(blk, dict):
        raise SpecFileError(f"{name} must be an object")
    return blk


def load_specfile(data) -> SpecFile:
    """Validate and load a spec document (dict or JSON text)."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise SpecFileError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            # the decoder recurses once per nesting level, in C and Python
            raise SpecFileError("invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise SpecFileError("spec document must be a JSON object")
    known = {"signature", "regime", "parameters", "finkelstein", "rep",
             "structure_overrides"}
    unknown = set(data) - known
    if unknown:
        raise SpecFileError(f"unknown spec fields: {sorted(unknown)}")

    sig_block = _object(data, "signature")
    eps4 = _integer(sig_block, "eps4", 1, "signature")
    eps5 = _integer(sig_block, "eps5", 1, "signature")
    try:
        sig = Signature(eps4, eps5)
    except ValueError as exc:
        raise SpecFileError(f"bad signature block: {exc}") from exc

    regime = data.get("regime", "full")
    if regime not in ("full", "tangent", "spacetime"):
        raise SpecFileError(f"unknown regime {regime!r}")

    bindings = {}
    for name, value in _object(data, "parameters").items():
        if name not in PARAMS:
            raise SpecFileError(f"unknown parameter {name!r}")
        bindings[name] = _parse_binding(name, value)

    fink = None
    if "finkelstein" in data:
        blk = _object(data, "finkelstein")
        n_cells = _integer(blk, "n_cells" if "n_cells" in blk else "N", 2,
                           "finkelstein")
        enforce = blk.get("enforce_constraint", True)
        if enforce.__class__ is not bool:
            raise SpecFileError("bad finkelstein block: enforce_constraint "
                                f"must be true or false, not "
                                f"{type(enforce).__name__}")
        try:
            fink = FinkelsteinParams(
                n_cells=n_cells,
                chi=_parse_exact_complex("chi", blk.get("chi", "1/2")),
                phi_cell=_parse_exact_complex(
                    "phi_cell", blk.get("phi_cell", "1/2")),
                hbar=Fraction(str(blk.get("hbar", 1))),
                enforce_constraint=enforce)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise SpecFileError(f"bad finkelstein block: {exc}") from exc

    rep_cfg = RepConfig()
    if "rep" in data:
        blk = _object(data, "rep")
        fields = {key: _integer(blk, key, default, "rep")
                  for key, default in (("epsilon", 0), ("samples", 120),
                                       ("seed", 0))}
        fields["sigma"] = _number(blk, "sigma", 0.37, "rep")
        fields["tolerance"] = _number(blk, "tolerance", 1e-8, "rep")
        rep_cfg = RepConfig(**fields)

    overrides = _object(data, "structure_overrides")
    for key, text in overrides.items():
        if not isinstance(text, str):
            raise SpecFileError(f"override {key!r} must be a string")

    return SpecFile(signature=sig, regime=regime, bindings=bindings,
                    finkelstein=fink, rep=rep_cfg,
                    structure_overrides=dict(overrides), raw=data)


def load_specfile_path(path: str) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return load_specfile(fh.read())
