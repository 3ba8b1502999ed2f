import dataclasses
import itertools
import random
import time

import numpy as np
import pytest

from ncspacetime.algebra import (IM, M_IDS, P_IDS, X_IDS, EnvElement,
                                 Signature, build_deformed_algebra,
                                 build_so6_algebra, contract_tangent,
                                 defining_rep, eta4,
                                 identify_orthogonal, jacobi_defect, m_id,
                                 physical_rep, set_bracket,
                                 UnknownGeneratorError)
from ncspacetime.scalars import S_I, S_MINUS_I, Scalar
from ncspacetime.specfile import load_specfile

ALL_SIGS = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]


def gen(gid):
    return EnvElement.generator(gid)


class TestBracketTable:
    def test_p_x_bracket(self):
        spec = build_deformed_algebra(Signature(1, 1), "full")
        # [p0, x0] = i*Im
        assert spec.bracket_ids(P_IDS[0], X_IDS[0]) == gen(IM).scale(S_I)
        # [p1, x1] = i*eta^{11}*Im = -i*Im
        assert spec.bracket_ids(P_IDS[1], X_IDS[1]) == gen(IM).scale(S_MINUS_I)
        assert spec.bracket_ids(P_IDS[0], X_IDS[1]).is_zero

    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_x_x_bracket(self, sig):
        spec = build_deformed_algebra(sig, "full")
        want = gen(M_IDS[0]).scale(
            S_MINUS_I * Scalar.param("ell", 2, coeff=sig.eps4))
        assert spec.bracket_ids(X_IDS[0], X_IDS[1]) == want

    def test_p_p_bracket_carries_phi(self):
        spec = build_deformed_algebra(Signature(1, 1), "full")
        want = gen(M_IDS[0]).scale(S_MINUS_I * Scalar.param("phi"))
        assert spec.bracket_ids(P_IDS[0], P_IDS[1]) == want

    def test_m_vector_action(self):
        spec = build_deformed_algebra(Signature(1, 1), "full")
        # [M01, x1] = i(x0 eta^{11} - x1 eta^{01}) = -i x0
        assert spec.bracket_ids(M_IDS[0], X_IDS[1]) == gen(X_IDS[0]).scale(S_MINUS_I)

    def test_antisymmetry_of_stored_table(self):
        spec = build_deformed_algebra(Signature(1, 1), "full")
        for a, b in itertools.combinations(spec.basis, 2):
            assert spec.bracket_ids(a, b) == -(spec.bracket_ids(b, a))

    def test_table_total_over_basis(self):
        for regime in ("full", "tangent", "spacetime"):
            spec = build_deformed_algebra(Signature(1, 1), regime)
            for a, b in itertools.combinations(spec.basis, 2):
                spec.bracket_ids(a, b)  # must not raise

    def test_unknown_generator(self):
        spec = build_deformed_algebra(Signature(1, 1), "spacetime")
        with pytest.raises(UnknownGeneratorError):
            spec.bracket_ids(P_IDS[0], X_IDS[0])


class TestTangent:
    def test_translation_brackets_vanish(self):
        spec = build_deformed_algebra(Signature(1, 1), "tangent")
        assert spec.bracket_ids(P_IDS[0], P_IDS[1]).is_zero
        assert spec.bracket_ids(P_IDS[0], IM).is_zero

    def test_x_im_bracket_is_retained(self):
        # setting [x, Im] = 0 would violate Jacobi on (p, x, x) triples
        sig = Signature(1, 1)
        spec = build_deformed_algebra(sig, "tangent")
        want = gen(P_IDS[0]).scale(S_I * Scalar.param("ell", 2))
        assert spec.bracket_ids(X_IDS[0], IM) == want

    def test_x_im_zero_breaks_jacobi(self):
        spec = build_deformed_algebra(Signature(1, 1), "tangent")
        table = dict(spec.table)
        for mu in range(4):
            set_bracket(table, X_IDS[mu], IM, EnvElement.zero())
        defects = jacobi_defect(dataclasses.replace(spec, table=table))
        assert defects, "the printed all-zero tangent sector is not a Lie algebra"


class TestJacobi:
    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    @pytest.mark.parametrize("regime", ["full", "tangent"])
    def test_exact_jacobi_all_455_triples(self, sig, regime):
        spec = build_deformed_algebra(sig, regime)
        t0 = time.time()
        defects = jacobi_defect(spec)
        assert not defects
        n = len(spec.basis)
        assert n * (n - 1) * (n - 2) // 6 == 455
        assert time.time() - t0 < 1.0

    def test_spacetime_jacobi(self):
        for sig in ALL_SIGS:
            assert not jacobi_defect(build_deformed_algebra(sig, "spacetime"))

    def test_mutated_table_detected(self):
        spec = build_deformed_algebra(Signature(1, 1), "full")
        table = dict(spec.table)
        set_bracket(table, P_IDS[0], X_IDS[0], EnvElement.zero())
        defects = jacobi_defect(dataclasses.replace(spec, table=table))
        assert defects
        triples = {t for t, _ in defects}
        # the (p0, x0, x1)-type triple fails: computed by direct expansion
        assert (X_IDS[0], X_IDS[1], P_IDS[0]) in triples

    def test_bracket_bilinear_antisymmetric(self):
        spec = build_deformed_algebra(Signature(1, -1), "full")
        rng = random.Random(4)

        def rand_elem():
            coeffs = {}
            for _ in range(3):
                coeffs[(rng.choice(spec.basis),)] = Scalar.of(rng.randrange(-3, 4))
            return EnvElement(coeffs)

        for _ in range(25):
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert spec.bracket(a, a).is_zero
            assert spec.bracket(a, b) == -(spec.bracket(b, a))
            lhs = spec.bracket(a + b, c)
            assert lhs == spec.bracket(a, c) + spec.bracket(b, c)


class TestOrthogonalRealization:
    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_identification_reproduces_table(self, sig):
        full = build_deformed_algebra(sig, "full")
        so6 = build_so6_algebra(sig)
        ident = identify_orthogonal(sig)
        locus = {"phi": Scalar.param("R_inv", 2, coeff=sig.eps5)}
        for a, b in itertools.combinations(sorted(full.basis), 2):
            ka, sa = ident.to_mab(a)
            kb, sb = ident.to_mab(b)
            pushed = ident.mab_element_to_phys(
                so6.bracket_ids(ka, kb)).scale(sa * sb)
            direct = full.bracket_ids(a, b).map_scalars(
                lambda s: s.substitute(locus))
            assert (pushed - direct).is_zero, (a, b)

    def test_identification_factors(self):
        ident = identify_orthogonal(Signature(1, 1))
        k, s = ident.to_mab(X_IDS[0])
        assert s == Scalar.param("ell")
        k, s = ident.to_mab(P_IDS[0])
        assert s == Scalar.param("R_inv")
        k, s = ident.to_mab(IM)
        assert s == Scalar.param("ell") * Scalar.param("R_inv")

    def test_round_trip_is_identity(self):
        ident = identify_orthogonal(Signature(-1, 1))
        for gid in X_IDS + P_IDS + M_IDS + (IM,):
            k, s = ident.to_mab(gid)
            gid2, s2 = ident.to_phys(k)
            assert gid2 == gid
            assert s * s2 == Scalar.one()

    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_matrix_oracle_all_105_pairs(self, sig):
        t0 = time.time()
        full = build_deformed_algebra(sig, "full")
        rep = physical_rep(sig, ell=1.0, r_inv=0.5)
        env = {"ell": 1.0, "R_inv": 0.5, "phi": sig.eps5 * 0.25}
        count = 0
        for a, b in itertools.combinations(sorted(full.basis), 2):
            lhs = rep[a] @ rep[b] - rep[b] @ rep[a]
            rhs = full.bracket_ids(a, b).evaluate_matrix(rep, env)
            assert np.abs(lhs - rhs).max() <= 1e-12
            count += 1
        assert count == 105
        assert time.time() - t0 < 1.0


class TestDefiningRep:
    def test_disjoint_pairs_commute(self):
        rep = defining_rep(Signature(1, 1))
        m01 = rep[0]   # pair (0,1)
        m23 = rep[9]   # pair (2,3) is index 9 in MAB_PAIRS
        from ncspacetime.algebra import MAB_PAIRS
        assert MAB_PAIRS[9] == (2, 3)
        assert np.abs(m01 @ m23 - m23 @ m01).max() == 0.0

    def test_m01_squared_trace(self):
        # frozen: trace((M^{01})^2) = -2 in this matrix convention
        rep = defining_rep(Signature(1, 1))
        assert np.trace(rep[0] @ rep[0]) == pytest.approx(-2.0)

    def test_so6_bracket_matches_matrices(self):
        for sig in ALL_SIGS:
            so6 = build_so6_algebra(sig)
            rep = defining_rep(sig)
            for a, b in itertools.combinations(range(15), 2):
                lhs = rep[a] @ rep[b] - rep[b] @ rep[a]
                rhs = so6.bracket_ids(a, b).evaluate_matrix(rep, {})
                assert np.abs(lhs - rhs).max() <= 1e-12


class TestContraction:
    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_contract_equals_tangent_table(self, sig):
        full = build_deformed_algebra(sig, "full")
        assert contract_tangent(full).table_equal(
            build_deformed_algebra(sig, "tangent"))

    def test_pp_entry_dies_xx_survives(self):
        full = build_deformed_algebra(Signature(1, 1), "full")
        ct = contract_tangent(full)
        assert ct.bracket_ids(P_IDS[0], P_IDS[1]).is_zero
        assert ct.bracket_ids(X_IDS[0], X_IDS[1]) == \
            full.bracket_ids(X_IDS[0], X_IDS[1])

    def test_idempotent(self):
        full = build_deformed_algebra(Signature(-1, -1), "full")
        # a copy relabelled full re-enters the contraction path
        once = dataclasses.replace(contract_tangent(full), regime="full")
        twice = contract_tangent(once)
        assert twice.table_equal(once)

    def test_requires_full_regime(self):
        with pytest.raises(ValueError):
            contract_tangent(build_deformed_algebra(Signature(1, 1), "tangent"))


def test_signature_metric_entries():
    assert Signature(1, 1).eta6 == (1, -1, -1, -1, 1, 1)
    assert Signature(-1, 1).eta6 == (1, -1, -1, -1, -1, 1)
    assert Signature(1, -1).eta4 == (1, -1, -1, -1)
    with pytest.raises(ValueError):
        Signature(2, 1)


class TestSharedCleanTables:
    """A clean table is built once per process, keyed by its arguments."""

    @pytest.mark.parametrize("eps4, eps5", [
        (True, 1), (1, False), (1.0, 1), (1, -1.0), (True, True)])
    def test_signature_takes_only_int_signs(self, eps4, eps5):
        # True == 1 and 1.0 == 1, so either would share a cache key with
        # the int form and hand its spec an inexact sign
        with pytest.raises(ValueError):
            Signature(eps4, eps5)

    @pytest.mark.parametrize("sig", ALL_SIGS, ids=repr)
    def test_equal_signatures_share_one_spec(self, sig):
        for regime in ("full", "tangent", "spacetime"):
            spec = build_deformed_algebra(sig, regime)
            again = build_deformed_algebra(
                Signature(sig.eps4, sig.eps5), regime)
            assert again is spec
            assert spec.signature.eps4.__class__ is int
            assert spec.signature.eps5.__class__ is int
        im = build_deformed_algebra(sig, "spacetime", extend_im=True)
        assert im is build_deformed_algebra(
            Signature(sig.eps4, sig.eps5), "spacetime", extend_im=True)
        assert im is not build_deformed_algebra(sig, "spacetime")
        so6 = build_so6_algebra(sig)
        assert build_so6_algebra(Signature(sig.eps4, sig.eps5)) is so6

    def test_positional_and_keyword_calls_share_one_spec(self):
        sig = Signature(1, -1)
        full = build_deformed_algebra(sig, "full")
        assert build_deformed_algebra(sig, regime="full") is full
        assert build_deformed_algebra(sig, "full", False) is full
        assert build_deformed_algebra(sig=sig, regime="full",
                                      extend_im=False) is full
        im = build_deformed_algebra(sig, "spacetime", True)
        assert build_deformed_algebra(sig, "spacetime", extend_im=True) is im
        assert build_deformed_algebra(sig, regime="spacetime",
                                      extend_im=True) is im
        assert build_so6_algebra(sig=sig) is build_so6_algebra(sig)
        build_deformed_algebra(sig, regime="tangent")
        misses = build_deformed_algebra.cache_info().misses
        build_deformed_algebra(sig, "tangent")
        assert build_deformed_algebra.cache_info().misses == misses
        with pytest.raises(TypeError):
            build_deformed_algebra(sig, "full", regime="full")

    def test_failed_build_is_not_cached(self):
        size = build_deformed_algebra.cache_info().currsize
        with pytest.raises(ValueError):
            build_deformed_algebra(Signature(1, 1), "fnord")
        with pytest.raises(ValueError):
            build_deformed_algebra(Signature(1, 1), "full", extend_im=True)
        assert build_deformed_algebra.cache_info().currsize == size


def test_algebra_element_prunes_zeros():
    elem = EnvElement({(X_IDS[0],): Scalar.one(), (P_IDS[0],): Scalar.zero()})
    assert (P_IDS[0],) not in elem.terms
    diff = elem - elem
    assert diff.is_zero and not diff.terms


SPEC_BUILDERS = {
    "full": lambda: build_deformed_algebra(Signature(1, -1), "full"),
    "tangent": lambda: build_deformed_algebra(Signature(-1, 1), "tangent"),
    "spacetime": lambda: build_deformed_algebra(Signature(1, 1), "spacetime"),
    "spacetime-im": lambda: build_deformed_algebra(
        Signature(1, 1), "spacetime", extend_im=True),
    "so6": lambda: build_so6_algebra(Signature(-1, -1)),
    "contracted": lambda: contract_tangent(
        build_deformed_algebra(Signature(1, 1), "full")),
    "override": lambda: load_specfile({"structure_overrides": {
        "[x1,M01]": "x0 + 2*i*p1 - 3", "[p0,x0]": "0"}}).build(),
}


@pytest.mark.parametrize("name", sorted(SPEC_BUILDERS))
def test_brackets_are_degree_one_env_elements(name):
    spec = SPEC_BUILDERS[name]()
    for elem in spec.table.values():
        assert isinstance(elem, EnvElement) and elem.degree() <= 1
    for a, b in itertools.product(spec.basis, repeat=2):
        elem = spec.bracket_ids(a, b)
        assert isinstance(elem, EnvElement) and elem.degree() <= 1


def test_bracket_degree_one_only():
    spec = build_deformed_algebra(Signature(1, 1), "full")
    quad = EnvElement.monomial((X_IDS[0], P_IDS[0]))
    with pytest.raises(ValueError):
        spec.bracket(quad, gen(X_IDS[1]))
    with pytest.raises(ValueError):
        spec.bracket(gen(X_IDS[1]), quad)
    # a central term drops out
    shifted = gen(X_IDS[0]) + EnvElement.scalar(3)
    assert spec.bracket(shifted, gen(P_IDS[0])) == \
        spec.bracket_ids(X_IDS[0], P_IDS[0])


def test_m_id_sign_resolution():
    gid, sign = m_id(1, 0)
    assert gid == M_IDS[0] and sign == -1
    with pytest.raises(ValueError):
        m_id(2, 2)


def test_eta4():
    assert [eta4(mu, mu) for mu in range(4)] == [1, -1, -1, -1]
    assert eta4(0, 1) == 0


def test_orthogonal_symbolic_names_every_pair():
    """On a mutated full table the symbolic realization check names each
    bracket that differs from the pushed-forward so(eta6) table."""
    from ncspacetime.cli import check_orthogonal_symbolic
    mutated = load_specfile({"regime": "full", "structure_overrides": {
        "[p0,x0]": "0", "[M01,p2]": "p3"}}).build()
    check = check_orthogonal_symbolic(mutated)
    assert check.status == "fail"
    assert check.details == {"mismatched": ["[x0,p0]", "[p2,M01]"],
                             "count": 2}
    clean = build_deformed_algebra(Signature(1, 1), "full")
    assert check_orthogonal_symbolic(clean).status == "pass"


def test_contraction_names_every_entry():
    """On a mutated tangent table the contraction check names each entry
    where contract_tangent(full) and the tangent table differ: one the
    tangent table drops, one it adds and one it changes."""
    from ncspacetime.cli import check_contraction
    full = build_deformed_algebra(Signature(1, 1), "full")
    mutated = load_specfile({"regime": "tangent", "structure_overrides": {
        "[x0,Im]": "0", "[p0,p1]": "M01", "[M01,p2]": "p3"}}).build()
    check = check_contraction(full, mutated)
    assert (check.status, check.max_residual) == ("fail", 1.0)
    assert check.details == {"mismatched": ["[x0,Im]", "[p0,p1]", "[p2,M01]"],
                             "count": 3}
    clean = build_deformed_algebra(Signature(1, 1), "tangent")
    assert check_contraction(full, clean).details == \
        "R_inv -> 0 substitution equals the tangent table entry-for-entry"
