"""closure_report against the exact reference rebuilt from the definitions.

Rows must agree exactly: the same matches in the same order, equal QQi
coefficients and bit-identical residual floats, over the grid of
closure_reference.CELL_DOCS.  A spec off the constraint locus is compared
with the constraint unenforced, after checking that closure_report still
refuses it enforced.  The only other oracle, the dense fit of
test_clifford, checks to 1e-12 and only up to N = 3.
"""

import dataclasses

import pytest

from closure_reference import CELL_DOCS, reference_rows
from ncspacetime.algebra import Signature
from ncspacetime.clifford import ConstraintViolation, closure_report
from ncspacetime.specfile import load_specfile


def _case(doc):
    spec = load_specfile(doc)
    return spec.finkelstein, spec.signature


def _id(doc):
    sig, cell = doc["signature"], doc["finkelstein"]
    return (f"{sig['eps4']:+d}{sig['eps5']:+d}-N{cell['n_cells']}-"
            f"{cell['chi']}-{cell['phi_cell']}")


@pytest.mark.parametrize("doc", CELL_DOCS, ids=[_id(d) for d in CELL_DOCS])
def test_rows_match_the_reference(doc):
    params, sig = _case(doc)
    if params.enforce_constraint and not params.constraint_holds():
        with pytest.raises(ConstraintViolation):
            closure_report(params, sig)
        params = dataclasses.replace(params, enforce_constraint=False)
    rows = closure_report(params, sig)
    want = reference_rows(params, sig)
    assert len(rows) == 105
    for row, ref in zip(rows, want):
        assert row[:2] == ref[:2]
        assert row[2] == ref[2], row[:2]
        assert row[3] == ref[3], row[:2]


def test_grid_reaches_every_branch():
    """The grid has rows in the span and rows out of it (each so(eta6)
    bracket of two basis elements has one term, so a residual is 0 or 1),
    and coefficients of both signs."""
    residuals, coeffs = set(), set()
    for doc in CELL_DOCS:
        params, sig = _case(doc)
        params = dataclasses.replace(params, enforce_constraint=False)
        for _a, _b, matches, residual in reference_rows(params, sig):
            residuals.add(residual)
            coeffs.update(c for _n, c in matches)
    assert residuals == {0.0, 1.0}
    assert any(-c in coeffs for c in coeffs)


def test_two_classes_fix_the_third():
    """Each pair of prefactor classes (x, p, M, Im) brackets into one
    class, and any two of the classes of A, B and G fix the third.  So a
    memo key that leaves out one of the three classes, but keeps s_G,
    computes the same coefficients as the full key on every input; the
    gate above catches a key without s_G, not one without G's class."""
    triples = set()
    for doc in CELL_DOCS:
        params, sig = _case(doc)
        params = dataclasses.replace(params, enforce_constraint=False)
        for name_a, name_b, matches, _r in reference_rows(params, sig):
            triples.update((name_a.rstrip("0123"), name_b.rstrip("0123"),
                            name_g.rstrip("0123")) for name_g, _c in matches)
    assert len(triples) == 8
    for kept in ((0, 1), (0, 2), (1, 2)):
        assert len({tuple(t[k] for k in kept) for t in triples}) == 8
