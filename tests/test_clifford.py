import itertools
from fractions import Fraction

import numpy as np
import pytest

from ncspacetime.algebra import (IM, M_IDS, MAB_PAIRS, P_IDS, X_IDS,
                                 Signature, build_deformed_algebra,
                                 build_so6_algebra)
from ncspacetime.clifford import (FAMILY_NAMES, ConstraintViolation,
                                  FinkelsteinParams, cl6_generators,
                                  closure_report, d_form_via_D,
                                  dirac_operator, finkelstein_operators,
                                  gamma_basis, gamma_basis_for, gamma_set_15,
                                  qmat_add, qmat_anticommutator,
                                  qmat_commutator, qmat_eye, qmat_mul,
                                  qmat_scale)
from ncspacetime.diffcalc import derivation_set, differential_of_generator
from ncspacetime.enveloping import EnvElement, random_env_element
from ncspacetime.scalars import QQI_I, QQI_ONE, QQi

SIG = Signature(1, 1)
SIGNATURES = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]
HALF = QQi(Fraction(1, 2))


def qmat_to_numpy(a):
    return np.array([[x.to_complex() for x in row] for row in a])


def dense_closure(params, sig):
    """Oracle for closure_report: least-squares fit of every commutator of
    the dense 8^N x 8^N family operators onto the family span."""
    ops = finkelstein_operators(params, sig)
    basis = np.stack([ops[name].ravel() for name in FAMILY_NAMES], axis=1)
    basis_h = basis.conj().T
    gram = basis_h @ basis
    rows = []
    for i, name_a in enumerate(FAMILY_NAMES):
        for name_b in FAMILY_NAMES[i + 1:]:
            comm = ops[name_a] @ ops[name_b] - ops[name_b] @ ops[name_a]
            vec = comm.ravel()
            coeffs = np.linalg.lstsq(gram, basis_h @ vec, rcond=None)[0]
            norm = np.linalg.norm(vec)
            residual = np.linalg.norm(vec - basis @ coeffs) / max(norm, 1e-300)
            if norm < 1e-12:
                residual = 0.0
            matches = [(FAMILY_NAMES[k], coeffs[k])
                       for k in range(len(FAMILY_NAMES))
                       if abs(coeffs[k]) > 1e-12]
            rows.append((name_a, name_b, matches, float(residual)))
    return rows


def cell_chirality(sig: Signature) -> tuple:
    """Oracle for the Jordan-Wigner chain: the normalized product of the six
    cell generators, which squares to +1 and anticommutes with each."""
    gens = cl6_generators(sig)
    m = gens[0]
    for g in gens[1:]:
        m = qmat_mul(m, g)
    if qmat_mul(m, m)[0][0] == QQI_ONE:
        return m
    return qmat_scale(m, QQI_I)


def embed_first_order(mat8, n: int, n_cells: int, sig: Signature):
    """gamma^a(n) on 8^n_cells dimensions with a Jordan-Wigner chirality
    chain, so that generators of different cells anticommute."""
    omega = qmat_to_numpy(cell_chirality(sig))
    out = np.ones((1, 1), dtype=complex)
    for k in range(1, n_cells + 1):
        if k < n:
            out = np.kron(out, omega)
        elif k == n:
            out = np.kron(out, qmat_to_numpy(mat8))
        else:
            out = np.kron(out, np.eye(8))
    return out


def assert_matches_oracle(params, sig):
    rows = closure_report(params, sig)
    oracle = dense_closure(params, sig)
    assert [r[:2] for r in rows] == [r[:2] for r in oracle]
    for (a, b, matches, residual), (_, _, want, want_residual) in zip(
            rows, oracle):
        assert [n for n, _ in matches] == [n for n, _ in want], (a, b)
        for (_, got), (_, expected) in zip(matches, want):
            assert abs(got.to_complex() - expected) <= 1e-12, (a, b)
        assert residual == pytest.approx(want_residual, abs=1e-12), (a, b)
    return rows


class TestGammaBases:
    @pytest.mark.parametrize("kind,eta", [
        ("C31", (1, -1, -1, -1)),
        ("C32", (1, -1, -1, -1, 1)),
        ("C41", (1, -1, -1, -1, -1)),
    ])
    def test_anticommutation_exact(self, kind, eta):
        basis = gamma_basis(kind)
        assert basis.eta == eta
        n = len(basis.gammas)
        for i in range(n):
            for j in range(n):
                got = qmat_anticommutator(basis.gammas[i], basis.gammas[j])
                want = qmat_scale(qmat_eye(4), 2 * eta[i] if i == j else 0)
                assert got == want

    def test_gamma5_squares_to_one(self):
        b = gamma_basis("C32")
        assert qmat_mul(b.gamma5, b.gamma5) == qmat_eye(4)

    def test_fifth_gamma_squares(self):
        # {gamma^4, gamma^4} = 2*eps4*I for each kind
        for kind, eps4 in (("C32", 1), ("C41", -1)):
            b = gamma_basis(kind)
            got = qmat_anticommutator(b.gammas[4], b.gammas[4])
            assert got == qmat_scale(qmat_eye(4), 2 * eps4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gamma_basis("C22")


class TestGammaSet15:
    def test_count_and_pairing(self):
        s = gamma_set_15(gamma_basis("C32"))
        assert len(s) == 15
        assert set(s) == set(X_IDS + P_IDS + M_IDS + (IM,))

    def test_m_type_is_product_for_anticommuting_pair(self):
        b = gamma_basis("C32")
        s = gamma_set_15(b)
        # gamma^{01} = (1/2)[g0, g1] = g0*g1 since they anticommute
        assert s[M_IDS[0]] == qmat_mul(b.gammas[0], b.gammas[1])

    @pytest.mark.parametrize("kind", ["C32", "C41"])
    def test_linear_independence_rank_15(self, kind):
        s = gamma_set_15(gamma_basis(kind))
        vecs = np.stack([qmat_to_numpy(m).ravel() for m in s.values()])
        assert np.linalg.matrix_rank(vecs) == 15

    @pytest.mark.parametrize("kind", ["C32", "C41"])
    def test_traceless(self, kind):
        for m in gamma_set_15(gamma_basis(kind)).values():
            assert sum((m[k][k] for k in range(4)), QQi(0)) == QQi(0)


class TestDiracOperator:
    def test_term_counts(self):
        b = gamma_basis_for(SIG)
        assert dirac_operator("tangent", b).n_terms == 5
        assert dirac_operator("full", b).n_terms == 15

    def test_sector_restriction_coincides(self):
        for sig in (Signature(1, 1), Signature(-1, 1)):
            b = gamma_basis_for(sig)
            full = dirac_operator("full", b)
            tang = dirac_operator("tangent", b)
            for lab in tang.terms:
                assert full.terms[lab] == tang.terms[lab]

    def test_d_form_equality_on_generators(self):
        for regime in ("full", "tangent"):
            spec = build_deformed_algebra(SIG, regime)
            b = gamma_basis_for(SIG)
            derivs = derivation_set(spec)
            for gid in spec.basis:
                comps = d_form_via_D(EnvElement.generator(gid), spec,
                                     b, derivs)
                form = differential_of_generator(gid, spec, derivs)
                for lab, (_mat, val) in comps.items():
                    assert (val - form.value((lab,))).is_zero

    def test_d_form_zero_on_unit(self):
        spec = build_deformed_algebra(SIG, "full")
        comps = d_form_via_D(EnvElement.one(), spec,
                             gamma_basis_for(SIG))
        assert all(v.is_zero for _m, v in comps.values())

    def test_d_form_on_random_degree_two(self):
        import random
        spec = build_deformed_algebra(SIG, "full")
        b = gamma_basis_for(SIG)
        derivs = derivation_set(spec)
        rng = random.Random(21)
        from ncspacetime.diffcalc import PForm, exterior_derivative
        for _ in range(4):
            a = random_env_element(rng, spec, 2, 3)
            comps = d_form_via_D(a, spec, b, derivs)
            form = exterior_derivative(PForm.zero_form(a), spec, derivs)
            for lab, (_mat, val) in comps.items():
                assert (val - form.value((lab,))).is_zero


class TestCells:
    def test_cl6_anticommutation(self):
        for sig in (SIG, Signature(-1, -1)):
            gens = cl6_generators(sig)
            eta = sig.eta6
            for a in range(6):
                for b in range(6):
                    got = qmat_anticommutator(gens[a], gens[b])
                    want = qmat_scale(qmat_eye(8), 2 * eta[a] if a == b else 0)
                    assert got == want

    def test_chirality(self):
        for sig in (SIG, Signature(1, -1)):
            om = cell_chirality(sig)
            assert qmat_mul(om, om) == qmat_eye(8)
            for g in cl6_generators(sig):
                anti = qmat_anticommutator(om, g)
                assert anti == qmat_scale(qmat_eye(8), 0)

    def test_cross_cell_anticommutation(self):
        gens = cl6_generators(SIG)
        eta = SIG.eta6
        idx = [(n, a) for n in (1, 2) for a in range(6)]
        embedded = {k: embed_first_order(gens[k[1]], k[0], 2, SIG) for k in idx}
        for (n, a), (m, b) in itertools.combinations_with_replacement(idx, 2):
            anti = embedded[(n, a)] @ embedded[(m, b)] \
                + embedded[(m, b)] @ embedded[(n, a)]
            want = 2 * eta[a] * np.eye(64) if (n == m and a == b) else 0
            assert np.abs(anti - want).max() == 0.0


class TestFinkelstein:
    def test_constraint_gate(self):
        ok = FinkelsteinParams(3, QQi(Fraction(1, 2)), QQi(Fraction(1, 2)))
        assert ok.constraint_holds()
        ok.check()
        bad = FinkelsteinParams(2, QQi(Fraction(1, 2)), QQi(Fraction(1, 2)))
        assert not bad.constraint_holds()
        with pytest.raises(ConstraintViolation):
            bad.check()

    def test_imaginary_parameters_allowed(self):
        p = FinkelsteinParams(3, QQi(0, Fraction(1, 2)),
                              QQi(0, Fraction(-1, 2)))
        assert p.constraint_holds()  # (i/2)(-i/2)(2) = 1/2

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            FinkelsteinParams(1, QQi(1), QQi(1))

    def test_px_commutator_is_i_hbar_im(self):
        # chi*phi_cell*(N-1) = 1/2 with chi=1/2, phi_cell=1, N=2
        params = FinkelsteinParams(2, QQi(Fraction(1, 2)), QQi(1))
        ops = finkelstein_operators(params, SIG)
        for mu in range(4):
            for nu in range(4):
                comm = ops[f"p{mu}"] @ ops[f"x{nu}"] \
                    - ops[f"x{nu}"] @ ops[f"p{mu}"]
                eta = 1 if mu == nu == 0 else (-1 if mu == nu else 0)
                assert np.abs(comm - 1j * eta * ops["Im"]).max() == 0.0

    def test_xx_commutator_is_zero_diag(self):
        params = FinkelsteinParams(2, QQi(Fraction(1, 2)), QQi(1))
        ops = finkelstein_operators(params, SIG)
        assert np.abs(ops["x0"] @ ops["x0"] - ops["x0"] @ ops["x0"]).max() == 0

    @pytest.mark.parametrize("n_cells,budget", [(2, 10.0), (3, 120.0)])
    def test_closure_within_budget(self, n_cells, budget):
        import time
        t0 = time.time()
        chi = QQi(Fraction(1, 2))
        phi = QQi(Fraction(1, 2), 0) if n_cells == 3 else QQi(1)
        params = FinkelsteinParams(n_cells, chi, phi)
        rows = closure_report(params, SIG)
        assert len(rows) == 105
        assert max(r[3] for r in rows) <= 1e-10
        assert time.time() - t0 < budget

    def test_closure_coefficient_scaling(self):
        # [x,x] ~ chi^2 M, [p,p] ~ phi_cell^2 M, [x,p] ~ chi*phi_cell Im
        def coeff(rows, a, b, g):
            for na, nb, matches, _res in rows:
                if (na, nb) == (a, b):
                    return dict(matches).get(g, 0.0)
            raise KeyError((a, b))

        base = closure_report(FinkelsteinParams(
            2, QQi(Fraction(1, 2)), QQi(Fraction(1, 3)),
            enforce_constraint=False), SIG)
        double_chi = closure_report(FinkelsteinParams(
            2, QQi(1), QQi(Fraction(1, 3)),
            enforce_constraint=False), SIG)
        double_phi = closure_report(FinkelsteinParams(
            2, QQi(Fraction(1, 2)), QQi(Fraction(2, 3)),
            enforce_constraint=False), SIG)
        cxx = coeff(base, "x0", "x1", "M01")
        assert coeff(double_chi, "x0", "x1", "M01") == pytest.approx(4 * cxx)
        assert coeff(double_phi, "x0", "x1", "M01") == pytest.approx(cxx)
        cpp = coeff(base, "p0", "p1", "M01")
        assert coeff(double_phi, "p0", "p1", "M01") == pytest.approx(4 * cpp)
        cxp = coeff(base, "x0", "p0", "Im")
        assert coeff(double_chi, "x0", "p0", "Im") == pytest.approx(2 * cxp)
        assert coeff(double_phi, "x0", "p0", "Im") == pytest.approx(2 * cxp)

    def test_m_sector_matches_table_exactly(self):
        # [M01, M12] per cells equals the bracket-table value -i*M02
        params = FinkelsteinParams(2, QQi(Fraction(1, 2)), QQi(1))
        ops = finkelstein_operators(params, SIG)
        comm = ops["M01"] @ ops["M12"] - ops["M12"] @ ops["M01"]
        assert np.abs(comm - (-1j) * ops["M02"]).max() == 0.0

    def test_disjoint_and_im_commutators_vanish(self):
        params = FinkelsteinParams(2, QQi(Fraction(1, 2)), QQi(1))
        ops = finkelstein_operators(params, SIG)
        z1 = ops["M01"] @ ops["M23"] - ops["M23"] @ ops["M01"]
        z2 = ops["M01"] @ ops["Im"] - ops["Im"] @ ops["M01"]
        assert np.abs(z1).max() == 0.0 and np.abs(z2).max() == 0.0

    def test_more_than_three_cells_refused_before_allocating(self,
                                                              monkeypatch):
        def no_arrays(*args, **kwargs):
            raise AssertionError("allocated an array")
        for name in ("array", "eye", "kron", "zeros"):
            monkeypatch.setattr(np, name, no_arrays)
        params = FinkelsteinParams(4, QQi(Fraction(1, 6)), QQi(1))
        with pytest.raises(ValueError, match="at most 3 cells") as info:
            finkelstein_operators(params, SIG)
        assert not isinstance(info.value, ConstraintViolation)
        assert "\n" not in str(info.value)


class TestExactClosure:
    """closure_report works on one cell; the dense operators are the oracle."""

    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_n2_on_locus_matches_oracle(self, sig):
        rows = assert_matches_oracle(FinkelsteinParams(2, HALF, QQi(1)), sig)
        assert all(r[3] == 0.0 for r in rows)

    def test_off_locus_matches_oracle(self):
        params = FinkelsteinParams(2, HALF, QQi(Fraction(1, 3)),
                                   enforce_constraint=False)
        rows = assert_matches_oracle(params, SIG)
        assert all(r[3] == 0.0 for r in rows)

    def test_n3_matches_oracle(self):
        rows = assert_matches_oracle(FinkelsteinParams(3, HALF, HALF),
                                     Signature(-1, 1))
        assert all(r[3] == 0.0 for r in rows)

    def test_zero_family_drops_out(self):
        # chi = 0: the x families vanish, so [p, Im] ~ x leaves the span
        params = FinkelsteinParams(2, QQi(0), QQi(Fraction(1, 3)),
                                   enforce_constraint=False)
        rows = assert_matches_oracle(params, SIG)
        assert not any(n.startswith("x") for r in rows for n, _ in r[2])
        by_pair = {r[:2]: r for r in rows}
        assert by_pair["x0", "p0"][2:] == ([], 0.0)
        assert by_pair["p0", "Im"][2:] == ([], 1.0)

    def test_any_cell_count(self):
        import time
        t0 = time.perf_counter()
        rows = closure_report(
            FinkelsteinParams(40, QQi(Fraction(1, 78)), QQi(1)), SIG)
        assert time.perf_counter() - t0 < 1.0
        assert len(rows) == 105 and all(r[3] == 0.0 for r in rows)
        by_pair = {r[:2]: r[2] for r in rows}
        # [x, p] = -i hbar eta Im
        assert by_pair["x0", "p0"] == [("Im", QQi(0, -1))]

    @pytest.mark.parametrize("sig", SIGNATURES, ids=str)
    def test_bilinears_realize_so6_table(self, sig):
        # the identity closure_report rests on, on the exact 8x8 matrices:
        # [gamma^A, gamma^B] = -2i sum_G so6.table[(A, B)]_G gamma^G
        gens = cl6_generators(sig)
        bilinears = [qmat_scale(qmat_commutator(gens[a], gens[b]), HALF)
                     for a, b in MAB_PAIRS]
        table = build_so6_algebra(sig).table
        zero = qmat_scale(qmat_eye(8), 0)
        for a, b in itertools.product(range(len(MAB_PAIRS)), repeat=2):
            want = zero
            if (a, b) in table:
                for (g,), s in table[a, b].terms.items():
                    want = qmat_add(want, qmat_scale(
                        bilinears[g], QQi(0, -2) * s.constant_value()))
            got = qmat_commutator(bilinears[a], bilinears[b])
            assert got == want, (MAB_PAIRS[a], MAB_PAIRS[b])
