"""Fuzz gate for the CLI contract: `cli.main(argv)` in-process on generated
expressions and spec documents exits 0, 1 or 2, never with a traceback, and
an exit 2 prints exactly one stderr line starting with `ncst:`.

Generator powers stay small: a long power is a known cost of the rewrite
kernel (cubic in word length), not a contract question.  Each input the
fuzzer found is kept below as an explicit regression case.
"""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncspacetime import cli  # noqa: E402

GENS = ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
        "M01", "M02", "M03", "M12", "M13", "M23", "Im")
PARAMS = ("ell", "R_inv", "phi", "hbar", "chi", "phi_cell", "sigma")
FUZZ = settings(max_examples=40, deadline=None, derandomize=True)
MAX_POWER = 6
_GEN_POWER = re.compile(r"(?<![A-Za-z_0-9])(?:[xXp]\d|M\d\d|Im|ImInv)\s*\^"
                        r"\s*(\d+)")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def assert_contract(argv):
    rc, out, err = run_main(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    if rc == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ncst:"), (argv, err)
    else:
        json.loads(out)
    return rc


def small_powers(text: str) -> bool:
    return all(int(n) <= MAX_POWER for n in _GEN_POWER.findall(text))


# -- expressions -------------------------------------------------------------

atoms = st.one_of(
    st.sampled_from(GENS),
    st.builds("{}^{}".format, st.sampled_from(GENS), st.integers(0, 2)),
    st.sampled_from(PARAMS),
    st.builds("{}^{}".format, st.sampled_from(PARAMS), st.integers(-3, 3)),
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 9), st.integers(0, 9)),
    st.just("i"),
)
expressions = st.recursive(atoms, lambda inner: st.one_of(
    st.builds("{}*{}".format, inner, inner),
    st.builds("{} + {}".format, inner, inner),
    st.builds("{} - {}".format, inner, inner),
    inner.map("-{}".format),
    inner.map("({})".format),
), max_leaves=4)

PIECES = list("+-*/^()i0123456789 _.,[]{}\t") + [
    "ImInv", "X0", "ell", "q", "e", "**", "--", "^-", "()", "é"]


@st.composite
def mutated(draw):
    text = draw(expressions)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(("insert", "delete", "replace")))
        piece = draw(st.sampled_from(PIECES))
        if how == "insert":
            text = text[:k] + piece + text[k:]
        elif how == "delete":
            text = text[:k] + text[k + 1:]
        else:
            text = text[:k] + piece + text[k + 1:]
    assume(small_powers(text))
    return text


@FUZZ
@given(expressions, expressions)
def test_commute_grammar_valid(a, b):
    assert_contract(["commute", a, b])


@FUZZ
@given(st.one_of(mutated(), expressions), mutated())
def test_commute_mutated(a, b):
    assert_contract(["commute", "--", a, b])


# -- spec documents ----------------------------------------------------------

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(), st.text(max_size=6),
    st.sampled_from(["1/2", "symbolic", "0", "-1", "x0", "p0", "-i", "ell",
                     "1/2*i", "[p0,x0]", "full", "tangent", "spacetime"]))
json_values = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=5), inner, max_size=3)), max_leaves=6)


def block(fields):
    """A block of known fields with fitting or wrong values, or junk."""
    return st.one_of(
        st.fixed_dictionaries({}, optional=fields), json_values)


small_exprs = expressions.filter(small_powers)
override_keys = st.one_of(
    st.builds("[{},{}]".format, st.sampled_from(GENS), st.sampled_from(GENS)),
    st.text(max_size=8))
spec_fields = {
    "signature": block({"eps4": st.sampled_from([1, -1]) | leaves,
                        "eps5": st.sampled_from([1, -1]) | leaves}),
    "regime": st.sampled_from(["full", "tangent", "spacetime"]) | leaves,
    "parameters": st.one_of(
        st.dictionaries(st.sampled_from(PARAMS + ("zeta",)),
                        st.sampled_from(["symbolic", "0", "1/2", "-3", "i",
                                         "ell"]) | leaves, max_size=3),
        json_values),
    "finkelstein": block({
        "n_cells": st.integers(1, 4) | leaves, "N": st.integers(1, 4),
        "chi": st.sampled_from(["1/2", "1/4", "1/2*i"]) | leaves,
        "phi_cell": st.sampled_from(["1/2", "1", "-1/2*i"]) | leaves,
        "hbar": st.sampled_from([1, "1/2"]) | leaves,
        "enforce_constraint": leaves}),
    "rep": block({"sigma": st.floats() | leaves,
                  "epsilon": st.sampled_from([0, 1]) | leaves,
                  "samples": st.integers(1, 200) | leaves,
                  "seed": leaves,
                  "tolerance": st.floats() | leaves}),
    "structure_overrides": st.one_of(
        st.dictionaries(override_keys, small_exprs | leaves, max_size=3),
        json_values),
}
spec_documents = st.one_of(
    st.fixed_dictionaries({}, optional=spec_fields),
    st.dictionaries(st.sampled_from(sorted(spec_fields)) | st.text(max_size=6),
                    json_values, max_size=3),
    json_values)


def with_file(doc, run):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return run(path)


@FUZZ
@given(spec_documents, st.sampled_from([("commute", "p0", "x0"),
                                        ("commute", "x1*Im", "p2"),
                                        ("commute", "ImInv", "x0"),
                                        ("clifford",), ("verify",),
                                        ("diff", "x0"), ("rep", "5d"),
                                        ("casimir", "1")]))
def test_spec_documents(doc, command):
    with_file(doc, lambda path: assert_contract(["--spec", path, *command]))


connection_documents = st.one_of(
    st.dictionaries(st.sampled_from(["x0", "p1", "M01", "Im", "_x2", "q"])
                    | st.text(max_size=4),
                    small_exprs | leaves, max_size=2),
    json_values)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(connection_documents)
def test_connection_documents(doc):
    with_file(doc, lambda path: assert_contract(
        ["curvature", "--connection", path]))


# -- regression cases found by the fuzzer -------------------------------------

@pytest.mark.parametrize("doc", [
    # a binding to zero under a negative power of the same parameter
    {"parameters": {"ell": "0"},
     "structure_overrides": {"[p0,x0]": "ell^-1*Im"}},
    # a line break in an override key, printed as it is
    {"structure_overrides": {"\r": None}},
    {"structure_overrides": {"[p0,\nx0]": "x0*x1"}},
    {"structure_overrides": {"[x0,\nIm]": "ImInv"}, "regime": "tangent"},
], ids=json.dumps)
def test_found_spec_documents(doc):
    assert with_file(doc, lambda path: assert_contract(
        ["--spec", path, "commute", "x1", "x0"])) == 2


@pytest.mark.parametrize("argv", [
    # a literal past the interpreter's 4,300-digit conversion limit
    ["commute", "7" * 5000 + "*x0", "p0"],
    # a coefficient past it: the cube of a 4,000-digit literal
    ["commute", "*".join(["7" * 4000] * 3) + "*x0", "p0"],
], ids=["long_literal", "cube_of_long_literal"])
def test_oversized_integers(argv):
    assert assert_contract(argv) == 2


@pytest.mark.parametrize("power", [
    # past sys.maxsize: the word's repetition raised OverflowError
    "100000000000000000000000",
    # a word of 10^15 letters: its allocation raised MemoryError
    "1000000000000000",
])
def test_oversized_generator_power(power):
    assert assert_contract(["commute", f"x0^{power}", "x0"]) == 2


@pytest.mark.parametrize("power", [20000, 80000, 2 ** 62])
def test_oversized_bound_power(power):
    # 3^20000 has 9,543 digits; 3^(2^62) is refused before it is computed
    doc = {"parameters": {"ell": "3"},
           "structure_overrides": {"[p0,x0]": f"ell^{power}*Im"}}
    assert with_file(doc, lambda path: assert_contract(
        ["--spec", path, "commute", "p0", "x0"])) == 2
