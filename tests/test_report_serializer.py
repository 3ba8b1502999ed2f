"""report.canonical_dumps against the serializer it replaced.

The reference below is the earlier recursive serializer (one json.dumps
per string, an isinstance chain per value), kept as the oracle.  Seeded
generated values cover empty containers, tuples, non-str keys, -0.0, the
string "inf", escapes, non-ASCII text and subclasses of the JSON types.
"""

import json
import random
from collections import OrderedDict
from enum import IntEnum

import pytest

from ncspacetime.report import _format_float, canonical_dumps


def reference_dumps(obj, indent: int = 0) -> str:
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
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ",\n".join(pad_in + reference_dumps(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",\n".join(
            f"{pad_in}{json.dumps(str(k), ensure_ascii=True)}: "
            f"{reference_dumps(v, indent + 1)}" for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


class Text(str):
    pass


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Real(float):
    pass


class Items(list):
    pass


STRINGS = ("", "inf", "-inf", "nan", "exact-zero", "a\"b", "back\\slash",
           "line\nbreak\ttab\r", "\x00\x1f\x7f", "café", "  ",
           "\U0001d53c snake \U0001f40d", "/", "1/2*i", Text("subé"))
SCALARS = (None, True, False, 0, -7, 2 ** 80, Level.HIGH, 0.0, -0.0, 1.5,
           -2.25e-300, 1e300, 0.1, 1 / 3, Real(2.5)) + STRINGS
KEYS = ("a", "b", "", "é", "1", 1, 2, -3, 0.5, None, True, False,
        ("t", 1), Text("k"), Level.LOW)


def generate(rng, depth: int = 0):
    roll = rng.random()
    if depth >= 4 or roll < 0.4:
        return rng.choice(SCALARS)
    n = rng.choice((0, 0, 1, 2, 3, 5))
    if roll < 0.55:
        return [generate(rng, depth + 1) for _ in range(n)]
    if roll < 0.65:
        return tuple(generate(rng, depth + 1) for _ in range(n))
    if roll < 0.7:
        return Items(generate(rng, depth + 1) for _ in range(n))
    keys = rng.sample(KEYS, n)
    out = {k: generate(rng, depth + 1) for k in keys}
    return OrderedDict(out) if roll < 0.75 else out


def test_matches_reference_on_generated_values():
    rng = random.Random(20261019)
    for _ in range(400):
        value = generate(rng)
        indent = rng.choice((0, 0, 1, 3))
        assert canonical_dumps(value, indent) == reference_dumps(value, indent)


def test_matches_reference_on_a_report():
    from ncspacetime.report import Check, Report
    report = Report("diff", {"regime": "full"}, seed=3, tolerance=1e-8)
    report.add(Check("b", "fail", float("inf"), {"k": [1, "xé"]}))
    report.add(Check("a", "pass", -0.0, ""))
    report.payload["differential"] = {"theta0": "Im", "theta_x1": "0"}
    assert report.dumps() == reference_dumps(report.as_dict()) + "\n"


@pytest.mark.parametrize("bad", [{1, 2}, b"bytes", 1j, object(),
                                 [float("nan")], {"k": float("inf")}])
def test_rejects_what_the_reference_rejects(bad):
    with pytest.raises((TypeError, ValueError)) as ref:
        reference_dumps(bad)
    with pytest.raises(ref.type):
        canonical_dumps(bad)
