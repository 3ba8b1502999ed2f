"""The stacked matrix evaluator and the two matrix oracles against the
term-by-term loops they replace.

algebra.evaluate_matrices multiplies the words of one length as one stacked
matmul and sums each element's terms with one np.add.accumulate; every
image must equal, float for float, the loop that multiplied each word left
to right from the identity and added its scaled matrix into a zero matrix.
The oracles must give the same worst residual as a loop over the pairs or
the generators.  The clean tables give exact zeros, which cannot show a
difference, so the orthogonal oracle runs on a table with [p0,x0] set to
0 and the Casimir oracle on Casimirs plus a random element.
"""

import random

import numpy as np
import pytest

from ncspacetime import cli
from ncspacetime.algebra import (EnvElement, Signature,
                                 build_deformed_algebra, defining_rep,
                                 evaluate_matrices, physical_rep)
from ncspacetime.enveloping import casimir, random_env_element
from ncspacetime.specfile import load_specfile

SIGNATURES = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]
ELL, R_INV, PHI = 1.37, 0.613, 0.2917
ENV = {"ell": ELL, "R_inv": R_INV, "phi": PHI}


def term_by_term(elem, rep, env):
    """The image as EnvElement.evaluate_matrix computed it term by term."""
    n = next(iter(rep.values())).shape[0]
    out = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for w, s in elem.terms.items():
        m = eye
        for gid in w:
            m = m @ rep[gid]
        out += complex(s.evaluate(env)) * m
    return out


def _elements(sig, seed):
    """Seeded random elements (degree <= 5, 1 to 12 terms), the C1-C3
    Casimirs, an empty and a degree-0 element, in one list that mixes
    term counts."""
    spec = build_deformed_algebra(sig, "full")
    rng = random.Random(seed)
    elems = [random_env_element(rng, spec, max_degree=5,
                                n_terms=rng.randint(1, 12))
             for _ in range(30)]
    elems += [casimir(kind, spec) for kind in ("C1", "C2", "C3")]
    elems += [EnvElement(), EnvElement.scalar(3)]
    rng.shuffle(elems)
    return elems


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
@pytest.mark.parametrize("seed", [1, 2])
def test_stack_equals_term_by_term(sig, seed):
    rep = physical_rep(sig, ell=ELL, r_inv=R_INV)
    elems = _elements(sig, seed)
    assert len({len(e.terms) for e in elems}) > 5
    got = evaluate_matrices(elems, rep, ENV)
    assert got.shape == (len(elems), 6, 6)
    for elem, image in zip(elems, got):
        want = term_by_term(elem, rep, ENV)
        assert np.array_equal(image, want)
        assert np.array_equal(elem.evaluate_matrix(rep, ENV), want)


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
def test_table_entries_equal_term_by_term(sig):
    """The 105 brackets of the full table, whose coefficients carry ell,
    R_inv and phi, in one stack."""
    spec = build_deformed_algebra(sig, "full")
    rep = physical_rep(sig, ell=ELL, r_inv=R_INV)
    elems = [spec.bracket_ids(a, b) for a in spec.basis for b in spec.basis
             if a < b]
    got = evaluate_matrices(elems, rep, ENV)
    for elem, image in zip(elems, got):
        assert np.array_equal(image, term_by_term(elem, rep, ENV))


def test_empty_list_and_empty_element():
    rep = physical_rep(Signature())
    assert evaluate_matrices([], rep, ENV).shape == (0, 6, 6)
    zero = evaluate_matrices([EnvElement()], rep, ENV)
    assert zero.dtype == complex and np.array_equal(zero, np.zeros((1, 6, 6)))


def _mutated_full(sig):
    return load_specfile({
        "signature": {"eps4": sig.eps4, "eps5": sig.eps5},
        "structure_overrides": {"[p0,x0]": "0"}}).build()


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
def test_orthogonal_oracle_equals_the_pair_loop(sig):
    full = _mutated_full(sig)
    rep, env = cli._oracle_point(sig)
    worst = 0.0
    ids = sorted(full.basis)
    for a_pos, a in enumerate(ids):
        for b in ids[a_pos + 1:]:
            lhs = rep[a] @ rep[b] - rep[b] @ rep[a]
            rhs = term_by_term(full.bracket_ids(a, b), rep, env)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst > 0
    check = cli.check_orthogonal_oracle(full)
    assert (check.status, check.max_residual) == ("fail", worst)


def _casimir_oracle_loop(sig, elem):
    c_mat = term_by_term(elem, *cli._oracle_point(sig))
    scale = max(1.0, float(np.abs(c_mat).max()))
    worst = 0.0
    for m in defining_rep(sig).values():
        worst = max(worst, float(np.abs(c_mat @ m - m @ c_mat).max()) / scale)
    return worst


@pytest.mark.parametrize("sig", SIGNATURES, ids=repr)
@pytest.mark.parametrize("kind", ["C1", "C2", "C3"])
def test_casimir_oracle_equals_the_generator_loop(sig, kind):
    """The Casimir plus a seeded random element is not central, so the
    residual is nonzero."""
    spec = build_deformed_algebra(sig, "full")
    c = casimir(kind, spec)
    for seed in range(2):
        elem = c + random_env_element(random.Random(seed), spec,
                                      max_degree=3, n_terms=4)
        worst = _casimir_oracle_loop(sig, elem)
        assert worst > 0
        check = cli.check_casimir_oracle(sig, kind, elem, 1e-300)
        assert (check.status, check.max_residual) == ("fail", worst)
