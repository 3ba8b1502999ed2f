"""Differential gate for jacobi_defect: the packed-table sweep against the
Jacobiator written with three nested LieAlgebraSpec.bracket calls.

Both must name the same triples, in the same order, with the same printed
Jacobiator, on the clean tables of all four signatures in every regime, on
both documented mutated tables, on a pinned table whose every Jacobiator
is central, and on derandomized random override specs built through
SpecFile.build.
"""

import dataclasses
import itertools

import pytest
from test_kernel_reference import CLEAN, MUTATED, gate, override_docs, spec_id

from hypothesis import given

from ncspacetime.algebra import X_IDS, EnvElement, jacobi_defect, set_bracket
from ncspacetime.minilang import format_env
from ncspacetime.specfile import load_specfile

# Two overrides whose Jacobiators are all central: a sweep that dropped
# the central part of the outer bracket [g, z] would find no defect here.
CENTRAL_DEFECTS = {"signature": {"eps4": 1, "eps5": -1}, "regime": "tangent",
                   "structure_overrides": {"[x3,M02]": "i", "[M02,p3]": "1"}}


def reference(spec) -> list:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] by spec.bracket, for every basis
    triple a < b < c whose sum is nonzero."""
    out = []
    for a, b, c in itertools.combinations(sorted(spec.basis), 3):
        ea, eb, ec = (EnvElement.generator(g) for g in (a, b, c))
        j = (spec.bracket(spec.bracket(ea, eb), ec)
             + spec.bracket(spec.bracket(eb, ec), ea)
             + spec.bracket(spec.bracket(ec, ea), eb))
        if not j.is_zero:
            out.append(((a, b, c), j))
    return out


def printed(defects, spec) -> list:
    return [(triple, format_env(j, spec.regime)) for triple, j in defects]


def assert_matches_reference(spec) -> list:
    """jacobi_defect(spec), once it matches the reference."""
    got = jacobi_defect(spec)
    want = reference(spec)
    assert [t for t, _ in got] == [t for t, _ in want]
    assert printed(got, spec) == printed(want, spec)
    assert all(j == k for (_, j), (_, k) in zip(got, want))
    return got


@pytest.mark.parametrize("doc", CLEAN + MUTATED, ids=spec_id)
def test_tables_match_reference(doc):
    defects = assert_matches_reference(load_specfile(doc).build())
    assert bool(defects) == (doc in MUTATED)


def test_central_jacobiators():
    spec = load_specfile(CENTRAL_DEFECTS).build()
    defects = assert_matches_reference(spec)
    assert len(defects) == 13
    assert all(set(j.terms) == {()} for _, j in defects)
    named = {tuple(spec.gen_name(g) for g in t): format_env(j, spec.regime)
             for t, j in defects}
    assert named[("x0", "x2", "x3")] == "-ell^2"
    assert named[("x0", "x2", "p3")] == "-i*ell^2"
    assert named[("x0", "M02", "M03")] == "1"


@gate(40)
@given(doc=override_docs())
def test_override_specs_match_reference(doc):
    assert_matches_reference(load_specfile(doc).build())


def test_degree_two_entry_is_refused():
    spec = load_specfile({}).build()
    table = dict(spec.table)
    x0, x1 = X_IDS[:2]
    set_bracket(table, x0, x1, EnvElement.monomial((x0, x1)))
    bad = dataclasses.replace(spec, table=table)
    with pytest.raises(ValueError, match="degree <= 1"):
        reference(bad)
    with pytest.raises(ValueError, match="degree <= 1"):
        jacobi_defect(bad)
