"""Differential gate for the generating-set shortcut of centrality_defect
and check_d_squared: the shortcut against the full sweep over every
generator.

centrality_defect is checked against defects_by_substitution (every
generator, phi restored by Scalar.substitute) and check_d_squared against
d(d(g)) for every generator of both tables.  Both must agree exactly,
failure lists included: on the 12 clean tables, with elements that fail
on several letters; on the mutated tables of TestCentralityOnLocus; on
the pinned 13-defect table of test_jacobi_reference; on derandomized
override specs; and on two hand-built tables on which the five letters
alone see no defect, one for each precondition of generating_set.  A
third hand-built table pins the closure step: one generator with a
one-monomial coefficient.
"""

import itertools

import pytest
from test_enveloping import LOCUS_CASES, LOCUS_IDS, defects_by_substitution
from test_jacobi_reference import CENTRAL_DEFECTS
from test_kernel_reference import CLEAN, MUTATED, gate, override_docs, spec_id

from hypothesis import given

from ncspacetime import algebra
from ncspacetime.algebra import (GENERATING_LETTERS, IM, M_IDS, P_IDS, X_IDS,
                                 EnvElement, LieAlgebraSpec, Signature,
                                 build_deformed_algebra, eta4,
                                 generating_set, jacobi_defect, m_id,
                                 set_bracket)
from ncspacetime.cli import check_d_squared
from ncspacetime.diffcalc import (derivation_set, differential_of_generator,
                                  exterior_derivative, theta_name)
from ncspacetime.enveloping import casimir, centrality_defect, env_product
from ncspacetime.report import EXACT_ZERO
from ncspacetime.scalars import Scalar
from ncspacetime.specfile import load_specfile

SIG = Signature(1, 1)
FULL_BASIS = X_IDS + P_IDS + M_IDS + (IM,)
x0, x1 = X_IDS[:2]
p0, p1 = P_IDS[:2]
M01, M12 = M_IDS[0], M_IDS[3]


def gen(gid):
    return EnvElement.generator(gid)


def heisenberg() -> LieAlgebraSpec:
    """The 15 full-basis ids with only [x1,p1] = Im: a Lie algebra that
    the five letters do not generate."""
    table = {}
    set_bracket(table, x1, p1, gen(IM))
    return LieAlgebraSpec(SIG, "full", FULL_BASIS, table)


CHAIN = (p0, x1, X_IDS[2], X_IDS[3], p1, P_IDS[2], P_IDS[3], M_IDS[1],
         M_IDS[2], M_IDS[4], IM)


def chain() -> LieAlgebraSpec:
    """[x0, t_k] = t_{k+1} along CHAIN, and [M12, x1] = x1: the five
    letters reach every generator, but Jacobi fails."""
    table = {}
    for t, u in zip(CHAIN, CHAIN[1:]):
        set_bracket(table, x0, t, gen(u))
    set_bracket(table, M12, x1, gen(x1))
    return LieAlgebraSpec(SIG, "full", FULL_BASIS, table)


def nilpotent_table() -> dict:
    """The free 2-step nilpotent algebra on GENERATING_LETTERS: a bracket
    of two of them is one of the ten other full-basis letters, which are
    central.  A Lie algebra that the five letters generate."""
    others = [g for g in FULL_BASIS if g not in GENERATING_LETTERS]
    table = {}
    for (a, b), z in zip(itertools.combinations(GENERATING_LETTERS, 2),
                         others):
        set_bracket(table, a, b, gen(z))
    return table


def spacetime_casimir(spec) -> EnvElement:
    """sum M_ab M^ab of so(eta5), eta5 = (1,-1,-1,-1,eps4), with
    X^mu = M^{mu 4}: central in the spacetime table."""
    eps4 = spec.signature.eps4
    out = EnvElement.zero()
    for mu in range(4):
        out = out + EnvElement.monomial(
            (X_IDS[mu],) * 2, Scalar.of(2 * eta4(mu, mu) * eps4))
        for nu in range(mu + 1, 4):
            gid, _ = m_id(mu, nu)
            out = out + EnvElement.monomial(
                (gid, gid), Scalar.of(2 * eta4(mu, mu) * eta4(nu, nu)))
    return out


def elements(spec) -> dict:
    """C1-C3 and two perturbations that fail on several letters; in the
    spacetime regime, which has no p, its quadratic Casimir and the same
    perturbations with X0 for p0."""
    if spec.regime == "spacetime":
        c = spacetime_casimir(spec)
        return {"C": c, "C + X0": c + gen(x0),
                "C + X0*M01": c + env_product(gen(x0), gen(M01), spec)}
    out = {kind: casimir(kind, spec)
           for kind in ("C1", "C2", "C3")}
    out["C3 + x0"] = out["C3"] + gen(x0)
    out["C3 + p0*M01"] = out["C3"] + env_product(gen(p0), gen(M01), spec)
    return out


def sweep_d_squared(full, tangent):
    """check_d_squared's details from d(d(g)) for every generator."""
    nonzero = []
    for spec in (full, tangent):
        derivs = derivation_set(spec)
        for gid in spec.basis:
            dd = exterior_derivative(
                differential_of_generator(gid, spec, derivs),
                spec, derivs)
            if not dd.is_zero:
                nonzero.append({
                    "regime": spec.regime, "generator": spec.gen_name(gid),
                    "first_nonzero": [theta_name(lab)
                                      for lab in min(dd.comps)]})
    return nonzero


def assert_d_squared_matches_sweep(full, tangent):
    check = check_d_squared(full, tangent, generating_set(full))
    nonzero = sweep_d_squared(full, tangent)
    if nonzero:
        assert check.status == "fail"
        assert check.details == {"nonzero": nonzero, "count": len(nonzero)}
    else:
        assert (check.status, check.max_residual) == ("pass", EXACT_ZERO)
    return nonzero


@pytest.mark.parametrize("doc", CLEAN, ids=spec_id)
def test_clean_tables_match_the_sweep(doc):
    spec = load_specfile(doc).build()
    assert generating_set(spec) is not None
    failing = set()
    for name, c in elements(spec).items():
        want = defects_by_substitution(c, spec)
        assert centrality_defect(c, spec) == want, name
        if want:
            failing.add(name)
    # the perturbations fail; the full-regime Casimirs are central
    assert {name for name in failing if "+" in name} == \
        {name for name in elements(spec) if "+" in name}
    if spec.regime != "tangent":
        assert all("+" in name for name in failing)


@pytest.mark.parametrize("doc, kinds, defective", LOCUS_CASES,
                         ids=LOCUS_IDS)
def test_locus_tables_match_the_sweep(doc, kinds, defective):
    sf = load_specfile(doc)
    spec = sf.build()
    for kind in kinds.split():
        c = casimir(kind, spec)
        assert centrality_defect(c, spec) == defects_by_substitution(c, spec)


def test_central_jacobiators_match_the_sweep():
    spec = load_specfile(CENTRAL_DEFECTS).build()
    assert len(jacobi_defect(spec)) == 13
    assert generating_set(spec) is None
    for name, c in elements(spec).items():
        assert centrality_defect(c, spec) == \
            defects_by_substitution(c, spec), name


@gate(20)
@given(doc=override_docs())
def test_override_specs_match_the_sweep(doc):
    spec = load_specfile(doc).build()
    c = elements(spec)["C" if spec.regime == "spacetime" else "C1"]
    assert centrality_defect(c, spec) == defects_by_substitution(c, spec)


class TestPreconditions:
    """On the Heisenberg and chain tables the full sweep finds one
    defect, on a letter outside GENERATING_LETTERS, so the shortcut must
    not run there; the nilpotent table pins the closure step."""

    def test_heisenberg_letters_do_not_generate(self):
        spec = heisenberg()
        assert jacobi_defect(spec) == []
        assert generating_set(spec) is None
        want = defects_by_substitution(gen(x1), spec)
        assert [g for g, _ in want] == [p1]
        assert centrality_defect(gen(x1), spec) == want

    def test_chain_violates_jacobi(self, monkeypatch):
        spec = chain()
        assert jacobi_defect(spec) != []
        assert generating_set(spec) is None
        want = defects_by_substitution(gen(M12), spec)
        assert [g for g, _ in want] == [x1]
        assert centrality_defect(gen(M12), spec) == want
        # the letters do reach the basis: only Jacobi stops the shortcut
        monkeypatch.setattr(algebra, "jacobi_defect", lambda spec: [])
        assert generating_set(spec) == GENERATING_LETTERS

    def test_a_step_needs_one_generator_and_one_monomial(self):
        sig = Signature(1, -1)
        table = nilpotent_table()
        spec = LieAlgebraSpec(sig, "full", FULL_BASIS, table)
        assert generating_set(spec) == GENERATING_LETTERS
        # phi + R_inv^2 is zero on the locus at eps5 = -1, and a sum of
        # two letters reaches neither
        for entry in (table[x0, p0].scale(Scalar.param("phi")
                                          + Scalar.param("R_inv", 2)),
                      table[x0, p0] + table[x0, M01]):
            changed = dict(table)
            set_bracket(changed, x0, p0, entry)
            spec = LieAlgebraSpec(sig, "full", FULL_BASIS, changed)
            assert jacobi_defect(spec) == []
            assert generating_set(spec) is None

    def test_chain_d_squared_matches_the_sweep(self):
        tangent = build_deformed_algebra(SIG, "tangent")
        assert assert_d_squared_matches_sweep(chain(), tangent)


@pytest.mark.parametrize("e4, e5", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_clean_d_squared_matches_the_sweep(e4, e5):
    sig = Signature(e4, e5)
    full = build_deformed_algebra(sig, "full")
    tangent = build_deformed_algebra(sig, "tangent")
    assert assert_d_squared_matches_sweep(full, tangent) == []


def test_mutated_d_squared_matches_the_sweep():
    mutated = load_specfile(MUTATED[0]).build()
    tangent = build_deformed_algebra(SIG, "tangent")
    assert len(assert_d_squared_matches_sweep(mutated, tangent)) == 11
