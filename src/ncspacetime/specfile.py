"""Algebra-spec files: JSON documents selecting the signature, regime,
parameter bindings, structure overrides and the cell and representation
parameters.

Every field of a document is optional, and a key the module does not know
is refused, at the top level and in every block.  BLOCKS names the type
each block loads into (Signature, a dict of parameter bindings,
FinkelsteinParams, RepConfig) and the parser of each key it takes.  One
loader reads every block: it parses the keys present and calls the type on
them alone, so the default of each field is written once, in its
dataclass, and an empty block is the absent block.  Every error, in a
parser or in the type, is one SpecFileError line naming the block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (REGIMES, LieAlgebraSpec, Signature,
                      build_deformed_algebra, set_bracket)
from .clifford import FinkelsteinParams
from .minilang import parse_element, parse_scalar
from .scalars import PARAMS, QQi, Scalar


class SpecFileError(ValueError):
    pass


@dataclass
class RepConfig:
    """The `rep` block.  epsilon, the parity label (0 or 1), is echoed in
    the report but changes no check: no operator depends on it."""

    sigma: float = 0.37
    epsilon: int = 0
    samples: int = 120
    seed: int = 0
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")
        if not abs(self.sigma) < float("inf"):
            raise ValueError("sigma must be finite")
        if not 0 < self.tolerance < float("inf"):
            raise ValueError("tolerance must be finite and positive")
        if self.samples < 1:
            raise ValueError("samples must be positive")


@dataclass
class SpecFile:
    signature: Signature = field(default_factory=Signature)
    regime: str = "full"
    parameters: dict = field(default_factory=dict)  # name -> Scalar or None
    finkelstein: FinkelsteinParams = field(default_factory=FinkelsteinParams)
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
        return {name: val for name, val in self.parameters.items()
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


def _integer(value) -> int:
    """A JSON integer: a bool, a float or a string is refused, not
    converted."""
    if value.__class__ is not int:
        raise TypeError(f"must be an integer, not {type(value).__name__}")
    return value


def _number(value) -> float:
    """A JSON number (an integer or a float) as a float: a bool or a
    string is refused, not converted."""
    if value.__class__ not in (int, float):
        raise TypeError(f"must be a number, not {type(value).__name__}")
    return float(value)  # OverflowError beyond the float range


def _boolean(value) -> bool:
    if value.__class__ is not bool:
        raise TypeError(f"must be true or false, not {type(value).__name__}")
    return value


def _rational(value) -> Fraction:
    """A JSON number or a rational string, exactly as written."""
    return Fraction(str(value))


def _exact(value) -> QQi:
    """An exact constant: a JSON integer or a string such as "1/2*i"."""
    if value.__class__ is int:
        return QQi(value)
    if value.__class__ is not str:
        raise TypeError("must be an integer or an exact-constant string, "
                        f"not {type(value).__name__}")
    try:
        return parse_scalar(value).constant_value()
    except ValueError as exc:  # MiniLangError included
        raise ValueError(f"not an exact constant: {value!r}") from exc


def _binding(value) -> Scalar | None:
    """An exact constant, or None (symbolic) for "symbolic" or null."""
    if value is None or value == "symbolic":
        return None
    return Scalar.of(_exact(value))


# block -> (type, {key: parser}): the type is called on the parsed keys
# present, so an absent key takes the type's default
BLOCKS = {
    "signature": (Signature, {"eps4": _integer, "eps5": _integer}),
    "parameters": (dict, {name: _binding for name in PARAMS}),
    "finkelstein": (FinkelsteinParams, {
        "n_cells": _integer, "N": _integer, "chi": _exact,
        "phi_cell": _exact, "hbar": _rational, "enforce_constraint": _boolean}),
    "rep": (RepConfig, {
        "sigma": _number, "epsilon": _integer, "samples": _integer,
        "seed": _integer, "tolerance": _number}),
}
# alias -> field; the field wins when both are given
_ALIASES = {"N": "n_cells"}


def _load_block(name: str, blk):
    """blk loaded into the type that BLOCKS gives the block called name."""
    cls, parsers = BLOCKS[name]
    if not isinstance(blk, dict):
        raise SpecFileError(f"{name} must be an object")
    unknown = blk.keys() - parsers.keys()
    if unknown:
        raise SpecFileError(f"unknown {name} fields: {sorted(unknown)}")
    kwargs = {}
    for key, value in blk.items():
        target = _ALIASES.get(key, key)
        if target != key and target in blk:
            continue
        try:
            kwargs[target] = parsers[key](value)
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise SpecFileError(f"bad {name} block: {key}: {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise SpecFileError(f"bad {name} block: {exc}") from exc


def load_specfile(data) -> SpecFile:
    """Validate and load a spec document (dict or JSON text)."""
    if isinstance(data, str):
        data = _decode(data, "spec document")
    if not isinstance(data, dict):
        raise SpecFileError("spec document must be a JSON object")
    unknown = data.keys() - {"regime", "structure_overrides", *BLOCKS}
    if unknown:
        raise SpecFileError(f"unknown spec fields: {sorted(unknown)}")
    fields = {name: _load_block(name, data[name])
              for name in BLOCKS if name in data}
    if "regime" in data:
        if data["regime"] not in REGIMES:
            raise SpecFileError(f"unknown regime {data['regime']!r}")
        fields["regime"] = data["regime"]
    if "structure_overrides" in data:
        overrides = data["structure_overrides"]
        if not isinstance(overrides, dict):
            raise SpecFileError("structure_overrides must be an object")
        for key, text in overrides.items():
            if not isinstance(text, str):
                raise SpecFileError(f"override {key!r} must be a string")
        fields["structure_overrides"] = dict(overrides)
    return SpecFile(**fields, raw=data)


def _decode(text: str, what: str):
    try:
        return json.loads(text)
    except RecursionError as exc:
        # the decoder recurses once per nesting level, in C and Python
        raise SpecFileError(f"{what} is nested too deeply") from exc
    except ValueError as exc:
        raise SpecFileError(f"{what} is not valid JSON: {exc}") from exc


def read_json(path: str, what: str):
    """The JSON value in the file at path, what naming the file: a file
    that cannot be read, is not UTF-8 or holds no valid JSON is one
    SpecFileError line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecFileError(
            f"cannot read {what} {path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise SpecFileError(f"{what} {path!r} is not UTF-8: {exc}") from exc
    return _decode(text, f"{what} {path!r}")


def load_specfile_path(path: str) -> SpecFile:
    return load_specfile(read_json(path, "spec file"))
