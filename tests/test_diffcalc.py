import itertools
import random

import pytest

from ncspacetime.algebra import (IM, M_IDS, P_IDS, X_IDS, Signature,
                                 build_deformed_algebra, generating_set)
from ncspacetime.connections import Connection
from ncspacetime.diffcalc import (DegreeError, PForm, contraction,
                                  derivation_labels, derivation_set,
                                  differential_of_generator,
                                  exterior_derivative, lie_derivative,
                                  reference_differential_p,
                                  reference_differential_x, theta_name)
from ncspacetime.enveloping import (EnvElement, env_commutator, env_product,
                                    random_env_element)
from ncspacetime.scalars import Scalar

SIG = Signature(1, 1)
ALL_SIGS = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]


@pytest.fixture(scope="module")
def full():
    return build_deformed_algebra(SIG, "full")


@pytest.fixture(scope="module")
def full_derivs(full):
    return derivation_set(full)


@pytest.fixture(scope="module")
def tangent():
    return build_deformed_algebra(SIG, "tangent")


@pytest.fixture(scope="module")
def tangent_derivs(tangent):
    return derivation_set(tangent)


class TestDerivationSets:
    def test_label_counts(self):
        assert len(derivation_labels("full")) == 15
        assert len(derivation_labels("tangent")) == 5

    @pytest.mark.parametrize("call", [
        derivation_set,
        lambda st: exterior_derivative(PForm.zero_form(EnvElement.one()), st),
        lambda st: differential_of_generator(X_IDS[0], st),
        lambda st: lie_derivative(PForm.zero_form(EnvElement.one()),
                                  P_IDS[0], st),
        lambda st: Connection({}, st),
    ], ids=["derivation_set", "exterior_derivative",
            "differential_of_generator", "lie_derivative", "Connection"])
    def test_spacetime_spec_is_refused(self, call):
        # the regime comes from the spec; spacetime has no derivation set
        spacetime = build_deformed_algebra(SIG, "spacetime")
        with pytest.raises(ValueError) as info:
            call(spacetime)
        assert type(info.value) is ValueError
        assert str(info.value) == "no derivation set for regime 'spacetime'"

    def test_full_x_derivation_on_x(self, full_derivs):
        # d^{x_alpha}(x^mu) = -eps4*ell^2*M^{alpha mu}; here alpha=1, mu=0
        # and M^{10} = -M01, so the value is +ell^2*M01
        got = full_derivs[X_IDS[1]].apply(EnvElement.generator(X_IDS[0]))
        want = EnvElement.generator(M_IDS[0]).scale(Scalar.param("ell", 2))
        assert got == want

    def test_tangent_d4_on_m_vanishes(self, tangent_derivs):
        d4 = tangent_derivs[IM]
        assert d4.apply(EnvElement.generator(M_IDS[0])).is_zero

    def test_tangent_d4_on_x_has_trailing_im(self, tangent_derivs):
        got = tangent_derivs[IM].apply(EnvElement.generator(X_IDS[0]))
        want = EnvElement.monomial((P_IDS[0], IM), Scalar.param("ell", 1, coeff=-1))
        assert got == want

    def test_derivation_on_unit_is_zero(self, full_derivs):
        for d in full_derivs.values():
            assert d.apply(EnvElement.one()).is_zero

    def test_leibniz_on_products(self, full, full_derivs):
        rng = random.Random(0)
        for _ in range(6):
            a = random_env_element(rng, full, 2, 2)
            b = random_env_element(rng, full, 2, 2)
            d = full_derivs[rng.choice(sorted(full_derivs))]
            lhs = d.apply(env_product(a, b, full))
            rhs = env_product(d.apply(a), b, full) + env_product(a, d.apply(b), full)
            assert (lhs - rhs).is_zero

    def test_full_derivations_are_inner(self, full, full_derivs):
        # d^a acts as the normalized commutator on every generator
        for lab, d in full_derivs.items():
            for g in full.basis:
                got = d.apply(EnvElement.generator(g))
                comm = env_commutator(EnvElement.generator(lab),
                                      EnvElement.generator(g), full)
                factor = Scalar.i() if lab != IM else \
                    Scalar.i() * Scalar.param("ell")
                assert (got.scale(factor) - comm).is_zero

    def test_full_commutators_resolve_in_basis(self, full, full_derivs):
        # [d^a, d^b] applied generator-wise equals its resolution into the
        # derivation basis through the structure constants
        from ncspacetime.diffcalc import derivation_commutator_coeffs
        labels = sorted(full_derivs)
        for a, b in itertools.combinations(labels, 2):
            coeffs = derivation_commutator_coeffs(a, b, full)
            for g in full.basis:
                h = EnvElement.generator(g)
                lhs = full_derivs[a].apply(full_derivs[b].apply(h)) \
                    - full_derivs[b].apply(full_derivs[a].apply(h))
                rhs = EnvElement.zero()
                for lab, c in coeffs:
                    rhs = rhs + full_derivs[lab].apply(h).scale(c)
                assert (lhs - rhs).is_zero, (a, b, g)

    def test_tangent_derivations_abelian(self, tangent, tangent_derivs):
        for a, b in itertools.combinations(sorted(tangent_derivs), 2):
            da, db = tangent_derivs[a], tangent_derivs[b]
            for g in tangent.basis:
                h = EnvElement.generator(g)
                lhs = da.apply(db.apply(h)) - db.apply(da.apply(h))
                assert lhs.is_zero, (a, b, g)

    def test_tangent_d4_respects_relations(self, tangent, tangent_derivs):
        # the non-inner derivation must be compatible with every bracket
        d4 = tangent_derivs[IM]
        for a, b in itertools.combinations(sorted(tangent.basis), 2):
            ea, eb = EnvElement.generator(a), EnvElement.generator(b)
            lhs = d4.apply(env_commutator(ea, eb, tangent))
            rhs = env_commutator(d4.apply(ea), eb, tangent) \
                + env_commutator(ea, d4.apply(eb), tangent)
            assert (lhs - rhs).is_zero, (a, b)


class TestWorkedDifferentials:
    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_dx_matches_reference(self, sig):
        spec = build_deformed_algebra(sig, "full")
        derivs = derivation_set(spec)
        for mu in range(4):
            got = differential_of_generator(X_IDS[mu], spec, derivs)
            assert got == reference_differential_x(mu, sig), mu

    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_dp_matches_reference(self, sig):
        spec = build_deformed_algebra(sig, "full")
        derivs = derivation_set(spec)
        for mu in range(4):
            got = differential_of_generator(P_IDS[mu], spec, derivs)
            assert got == reference_differential_p(mu, sig), mu

    def test_dp_contains_phi_over_ell_term(self, full, full_derivs):
        dp0 = differential_of_generator(P_IDS[0], full, full_derivs)
        coeff = dp0.value((IM,))
        want = EnvElement.generator(X_IDS[0]).scale(
            Scalar.param("phi") * Scalar.param("ell", -1))
        assert coeff == want


class TestExteriorDerivative:
    @pytest.mark.parametrize("regime", ["full", "tangent"])
    def test_d_squared_zero_on_generators(self, regime):
        spec = build_deformed_algebra(SIG, regime)
        derivs = derivation_set(spec)
        for gid in spec.basis:
            one_form = differential_of_generator(gid, spec, derivs)
            assert exterior_derivative(one_form, spec, derivs).is_zero

    @pytest.mark.parametrize("regime", ["full", "tangent"])
    def test_d_squared_zero_on_random_one_forms(self, regime):
        spec = build_deformed_algebra(SIG, regime)
        derivs = derivation_set(spec)
        rng = random.Random(9)
        labels = sorted(derivs)
        for _ in range(3):
            comps = {}
            for lab in rng.sample(labels, 3):
                comps[(lab,)] = random_env_element(rng, spec, 2, 2)
            form = PForm(1, comps)
            d2 = exterior_derivative(
                exterior_derivative(form, spec, derivs),
                spec, derivs)
            assert d2.is_zero


class TestFormOperations:
    def test_theta_duality(self):
        for lab in derivation_labels("full"):
            th = PForm.theta(lab)
            assert th.value((lab,)) == EnvElement.one()
            for other in derivation_labels("full"):
                if other != lab:
                    assert th.value((other,)).is_zero

    def test_contraction_of_theta(self):
        th = PForm.theta(P_IDS[1])
        out = contraction(th, P_IDS[1])
        assert out.degree == 0 and out.value(()) == EnvElement.one()
        assert contraction(th, P_IDS[0]).is_zero

    def test_contraction_reads_off_dx_component(self, full, full_derivs):
        dx0 = differential_of_generator(X_IDS[0], full, full_derivs)
        # i_{d^0} dx^0 = eta^{00} Im = Im
        assert contraction(dx0, P_IDS[0]).value(()) == EnvElement.generator(IM)

    def test_double_contraction_zero(self, full, full_derivs):
        rng = random.Random(11)
        comps = {}
        for pair in itertools.combinations((P_IDS[0], P_IDS[1], IM), 2):
            comps[pair] = random_env_element(rng, full, 1, 2)
        w = PForm(2, comps)
        out = contraction(contraction(w, P_IDS[0]), P_IDS[0])
        assert out.is_zero

    def test_contraction_degree_error(self):
        with pytest.raises(DegreeError):
            contraction(PForm.zero_form(EnvElement.one()), P_IDS[0])

    def test_evaluation_antisymmetry(self, full, full_derivs):
        rng = random.Random(12)
        comps = {}
        labels = sorted(full_derivs)
        for pair in itertools.combinations(rng.sample(labels, 4), 2):
            comps[tuple(sorted(pair))] = random_env_element(rng, full, 1, 2)
        w = PForm(2, comps)
        for a, b in itertools.combinations(labels, 2):
            assert w.value((a, b)) == -(w.value((b, a)))
            assert w.value((a, a)).is_zero

    def test_pform_degree_mismatch(self):
        with pytest.raises(DegreeError):
            PForm.theta(P_IDS[0]).value(())


class TestLieDerivative:
    def test_on_zero_form_equals_action(self, full, full_derivs):
        x0 = PForm.zero_form(EnvElement.generator(X_IDS[0]))
        out = lie_derivative(x0, P_IDS[0], full, full_derivs)
        assert out.value(()) == EnvElement.generator(IM)

    def test_kills_unit(self, full, full_derivs):
        one = PForm.zero_form(EnvElement.one())
        assert lie_derivative(one, P_IDS[2], full, full_derivs).is_zero

    def test_commutes_with_d(self, full, full_derivs):
        rng = random.Random(13)
        labels = sorted(full_derivs)
        for trial in range(3):
            comps = {}
            for lab in rng.sample(labels, 3):
                comps[(lab,)] = random_env_element(rng, full, 1, 2)
            w = PForm(1, comps)
            d_label = rng.choice(labels)
            lhs = lie_derivative(
                exterior_derivative(w, full, full_derivs),
                d_label, full, full_derivs)
            rhs = exterior_derivative(
                lie_derivative(w, d_label, full, full_derivs),
                full, full_derivs)
            assert lhs == rhs


def test_theta_names():
    assert theta_name(P_IDS[0]) == "theta0"
    assert theta_name(IM) == "theta4"
    assert theta_name(M_IDS[0]) == "theta01"
    assert theta_name(X_IDS[2]) == "theta_x2"


class TestNamedFailures:
    """On the mutated full table [p0,x0] = 0, the d^2 and worked-form
    checks name every failing generator, not only the first."""

    @pytest.fixture(scope="class")
    def mutated(self):
        from ncspacetime.specfile import load_specfile
        return load_specfile({"regime": "full", "structure_overrides":
                              {"[p0,x0]": "0"}}).build()

    def test_d_squared_names_every_generator(self, mutated, tangent):
        from ncspacetime.cli import check_d_squared
        check = check_d_squared(mutated, tangent, generating_set(mutated))
        assert check.status == "fail"
        names = [(f["regime"], f["generator"]) for f in check.details["nonzero"]]
        assert names == [("full", g) for g in (
            "x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
            "M01", "M02", "M03")]
        assert check.details["count"] == 11
        first = {f["generator"]: f["first_nonzero"]
                 for f in check.details["nonzero"]}
        assert first["x0"] == ["theta_x1", "theta0"]
        assert first["p0"] == ["theta_x0", "theta_x1"]
        assert first["M01"] == ["theta_x0", "theta1"]

    def test_d_squared_first_pair_is_nonzero(self, mutated, tangent):
        from ncspacetime.cli import check_d_squared
        derivs = derivation_set(mutated)
        by_name = {mutated.gen_name(g): g for g in mutated.basis}
        check = check_d_squared(mutated, tangent, generating_set(mutated))
        for f in check.details["nonzero"]:
            gid = by_name[f["generator"]]
            dd = exterior_derivative(
                differential_of_generator(gid, mutated, derivs),
                mutated, derivs)
            pair = min(dd.comps)
            assert [theta_name(lab) for lab in pair] == f["first_nonzero"]
            assert not dd.value(pair).is_zero

    def test_worked_differentials_names_every_form(self, mutated):
        from ncspacetime.cli import check_worked_differentials
        check = check_worked_differentials(mutated)
        assert check.status == "fail"
        assert check.details == {"mismatched": ["dx0", "dp0"], "count": 2}

    def test_clean_tables_pass(self, full, tangent):
        from ncspacetime.cli import check_d_squared, check_worked_differentials
        assert check_d_squared(full, tangent,
                               generating_set(full)).details == \
            "d(d(g)) = 0 for every generator, both regimes (exact)"
        assert check_worked_differentials(full).status == "pass"
