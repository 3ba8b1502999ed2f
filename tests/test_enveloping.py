import hashlib
import itertools
import json
import random
import sys
import threading

import numpy as np
import pytest

from ncspacetime.algebra import (IM, IMINV, M_IDS, P_IDS, X_IDS,
                                 LieAlgebraSpec, Signature,
                                 UnknownGeneratorError,
                                 build_deformed_algebra, build_so6_algebra,
                                 identify_orthogonal,
                                 defining_rep, levi_civita, physical_rep)
from ncspacetime.diffcalc import derivation_set
from ncspacetime.minilang import format_env, parse_element
from ncspacetime.enveloping import (EnvElement, ExponentRangeError,
                                    UnsupportedInverseError, ad_generator,
                                    casimir, centrality_defect,
                                    env_commutator, env_product, get_engine,
                                    random_env_element)
from ncspacetime.scalars import S_I, S_ONE, QQi, Scalar
from ncspacetime.specfile import load_specfile

SIG = Signature(1, 1)


@pytest.fixture(scope="module")
def full():
    return build_deformed_algebra(SIG, "full")


@pytest.fixture(scope="module")
def tangent():
    return build_deformed_algebra(SIG, "tangent")


def gen(gid):
    return EnvElement.generator(gid)


class TestProduct:
    def test_unit_law(self, full):
        rng = random.Random(1)
        one = EnvElement.one()
        for _ in range(10):
            a = random_env_element(rng, full, 3, 3)
            assert env_product(one, a, full) == a
            assert env_product(a, one, full) == a

    def test_single_swap(self, full):
        # x1*x0 = x0*x1 + i*eps4*ell^2*M01
        got = env_product(gen(X_IDS[1]), gen(X_IDS[0]), full)
        want = EnvElement.monomial((X_IDS[0], X_IDS[1])) + EnvElement.monomial(
            (M_IDS[0],), S_I * Scalar.param("ell", 2))
        assert got == want

    def test_degree_filtration(self, full):
        rng = random.Random(2)
        for _ in range(10):
            a = random_env_element(rng, full, 2, 3)
            b = random_env_element(rng, full, 2, 3)
            assert env_product(a, b, full).degree() <= a.degree() + b.degree()

    def test_associativity_random(self, full):
        rng = random.Random(3)
        for _ in range(8):
            a = random_env_element(rng, full, 2, 2)
            b = random_env_element(rng, full, 2, 2)
            c = random_env_element(rng, full, 2, 2)
            lhs = env_product(env_product(a, b, full), c, full)
            rhs = env_product(a, env_product(b, c, full), full)
            assert lhs == rhs

    def test_confluence_different_swap_orders(self, full):
        # the same non-canonical word, canonicalized along different
        # association paths, must land on one canonical form
        words = [(IM, M_IDS[3], P_IDS[1], X_IDS[0]),
                 (P_IDS[2], P_IDS[2], X_IDS[3], X_IDS[1]),
                 (M_IDS[5], IM, X_IDS[2], P_IDS[0])]
        for w in words:
            whole = env_product(EnvElement.monomial(w), EnvElement.one(), full)
            for cut in range(1, len(w)):
                split = env_product(EnvElement.monomial(w[:cut]),
                                    EnvElement.monomial(w[cut:]), full)
                assert split == whole
            letter_by_letter = EnvElement.one()
            for letter in w:
                letter_by_letter = env_product(
                    letter_by_letter, EnvElement.monomial((letter,)), full)
            assert letter_by_letter == whole

    def test_product_matches_matrix_oracle(self, full):
        # (p0*x0)*(p0*x0) under the 6x6 oracle
        rep = physical_rep(SIG, 1.0, 0.5)
        env = {"ell": 1.0, "R_inv": 0.5, "phi": SIG.eps5 * 0.25}
        a = env_product(gen(P_IDS[0]), gen(X_IDS[0]), full)
        prod = env_product(a, a, full)
        lhs = prod.evaluate_matrix(rep, env)
        m = rep[P_IDS[0]] @ rep[X_IDS[0]]
        assert np.abs(lhs - m @ m).max() <= 1e-12


class TestCommutator:
    def test_degree_one_reduces_to_bracket(self, full):
        for a, b in itertools.combinations(sorted(full.basis), 2):
            got = env_commutator(gen(a), gen(b), full)
            want = full.bracket_ids(a, b)
            assert got == want

    def test_antisymmetry_random(self, full):
        rng = random.Random(5)
        for _ in range(10):
            a = random_env_element(rng, full, 2, 2)
            b = random_env_element(rng, full, 2, 2)
            assert env_commutator(a, b, full) == -(env_commutator(b, a, full))

    def test_jacobi_on_degree_two(self, full):
        rng = random.Random(6)
        for _ in range(5):
            a = random_env_element(rng, full, 2, 2)
            b = random_env_element(rng, full, 2, 2)
            c = random_env_element(rng, full, 2, 2)
            j = env_commutator(env_commutator(a, b, full), c, full) \
                + env_commutator(env_commutator(b, c, full), a, full) \
                + env_commutator(env_commutator(c, a, full), b, full)
            assert j.is_zero

    def test_ad_generator_matches_products(self, full):
        rng = random.Random(7)
        for _ in range(10):
            a = random_env_element(rng, full, 3, 3)
            g = rng.choice(full.basis)
            assert ad_generator(g, a, full) == \
                env_commutator(gen(g), a, full)


class TestImInverse:
    def test_rejected_in_full_regime(self, full):
        with pytest.raises(UnsupportedInverseError):
            env_product(EnvElement.monomial((IMINV,)), EnvElement.one(), full)

    def test_cancellation(self, tangent):
        one = env_product(EnvElement.monomial((IM,)),
                          EnvElement.monomial((IMINV,)), tangent)
        assert one == EnvElement.one()
        other = env_product(EnvElement.monomial((IMINV,)),
                            EnvElement.monomial((IM,)), tangent)
        assert other == EnvElement.one()

    def test_x_rewrite_rule(self, tangent):
        # ImInv * x0 = x0*ImInv + i*eps4*ell^2 * p0 * ImInv^2
        got = env_product(EnvElement.monomial((IMINV,)), gen(X_IDS[0]), tangent)
        want = EnvElement.monomial((X_IDS[0], IMINV)) + EnvElement.monomial(
            (P_IDS[0], IMINV, IMINV), S_I * Scalar.param("ell", 2))
        assert got == want

    @pytest.mark.parametrize("overrides", [{}, {"[x0,Im]": "1"}],
                             ids=["clean", "central-x0-Im"])
    def test_rule_is_conjugated_bracket(self, overrides):
        # [ImInv, g] = ImInv [g, Im] ImInv, a central part of [g, Im] included
        spec = load_specfile({"regime": "tangent",
                              "structure_overrides": overrides}).build()
        inv = EnvElement.monomial((IMINV,))
        for g in spec.basis:
            want = env_product(env_product(inv, spec.bracket_ids(g, IM), spec),
                               inv, spec)
            assert env_commutator(inv, gen(g), spec) == want

    def test_inverse_relation_two_sided(self, tangent):
        # (x0 * ImInv) * Im = x0 exactly
        a = env_product(gen(X_IDS[0]), EnvElement.monomial((IMINV,)), tangent)
        assert env_product(a, EnvElement.monomial((IM,)), tangent) == gen(X_IDS[0])

    def test_extended_spacetime_central_inverse(self):
        st = build_deformed_algebra(SIG, "spacetime", extend_im=True)
        assert st.im_is_central
        a = env_product(EnvElement.monomial((IMINV, IMINV)),
                        EnvElement.monomial((IM,)), st)
        assert a == EnvElement.monomial((IMINV,))
        # ImInv commutes with everything here
        x = EnvElement.generator(X_IDS[0])
        assert env_commutator(EnvElement.monomial((IMINV,)), x, st).is_zero

    def test_associativity_with_inverse(self, tangent):
        rng = random.Random(8)
        ids = list(tangent.basis) + [IMINV]
        for _ in range(8):
            words = []
            for _ in range(3):
                deg = rng.randrange(0, 3)
                words.append(EnvElement.monomial(
                    tuple(sorted(rng.choice(ids) for _ in range(deg)))))
            a, b, c = words
            lhs = env_product(env_product(a, b, tangent), c, tangent)
            rhs = env_product(a, env_product(b, c, tangent), tangent)
            assert lhs == rhs


class TestCasimirs:
    def test_levi_civita(self):
        assert levi_civita(0, 1, 2, 3, 4, 5) == 1
        assert levi_civita(1, 0, 2, 3, 4, 5) == -1
        assert levi_civita(0, 0, 2, 3, 4, 5) == 0
        rng = random.Random(3)
        for _ in range(30):
            perm = rng.sample(range(6), 6)
            val = levi_civita(*perm)
            assert val in (-1, 1)
            k = rng.randrange(5)
            swapped = list(perm)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            assert levi_civita(*swapped) == -val

    def test_c1_structure(self, full):
        c1 = casimir("C1", full)
        # quadratic, no mixed monomials survive normal ordering up to Im^2
        assert c1.degree() == 2
        # contains the M-sector sum and the x,p,Im squares with the
        # identification factors ell^-2, R_inv^-2
        assert c1.terms[(X_IDS[0], X_IDS[0])] == Scalar.param("ell", -2) * Scalar.of(2)
        assert c1.terms[(P_IDS[0], P_IDS[0])] == Scalar.param("R_inv", -2) * Scalar.of(2)
        assert c1.terms[(M_IDS[0], M_IDS[0])] == Scalar.of(-2)
        assert (IM, IM) in c1.terms

    def test_c1_centrality_symbolic(self, full):
        assert centrality_defect(casimir("C1", full), full) == []

    def test_c2_c3_centrality_symbolic(self, full):
        c2 = casimir("C2", full)
        c3 = casimir("C3", full)
        assert not c2.is_zero and not c3.is_zero
        assert centrality_defect(c2, full) == []
        assert centrality_defect(c3, full) == []

    def test_c2_structure_pins(self, full):
        # regression pins on the canonical form (validated independently by
        # the matrix oracle and the exact centrality sweep): C2 is degree 3
        # and pairs each generator triple with its complementary index pair
        c2 = casimir("C2", full)
        assert c2.degree() == 3
        unit = Scalar.param("ell", -1) * Scalar.param("R_inv", -1)
        assert c2.terms[(X_IDS[0], P_IDS[1], M_IDS[5])] == unit * Scalar.of(-48)
        assert c2.terms[(M_IDS[0], M_IDS[5], IM)] == unit * Scalar.of(48)

    def test_x0_is_not_central(self, full):
        defects = centrality_defect(gen(X_IDS[0]), full)
        bad_ids = {g for g, _ in defects}
        assert P_IDS[0] in bad_ids

    @pytest.mark.parametrize("kind", ["C1", "C2", "C3"])
    def test_matrix_oracle_centrality(self, kind):
        for e4 in (1, -1):
            for e5 in (1, -1):
                sig = Signature(e4, e5)
                spec = build_deformed_algebra(sig, "full")
                elem = casimir(kind, spec)
                rep6 = defining_rep(sig)
                ident = identify_orthogonal(sig)
                env = {"ell": 1.0, "R_inv": 0.5, "phi": e5 * 0.25}
                rep = {}
                for gid in spec.basis:
                    k, s = ident.to_mab(gid)
                    rep[gid] = complex(s.evaluate(env)) * rep6[k]
                mat = elem.evaluate_matrix(rep, env)
                scale = max(1.0, np.abs(mat).max())
                for m in rep6.values():
                    assert np.abs(mat @ m - m @ mat).max() / scale <= 1e-10

    def test_c1_matrix_image_is_scalar(self):
        # frozen: the defining-rep image of C1 commutes with everything and
        # is in fact a multiple of the identity (computed: 10*I at ell=1, R=2)
        sig = SIG
        spec = build_deformed_algebra(sig, "full")
        elem = casimir("C1", spec)
        rep6 = defining_rep(sig)
        ident = identify_orthogonal(sig)
        env = {"ell": 1.0, "R_inv": 0.5, "phi": 0.25}
        rep = {gid: complex(ident.to_mab(gid)[1].evaluate(env)) *
               rep6[ident.to_mab(gid)[0]] for gid in spec.basis}
        mat = elem.evaluate_matrix(rep, env)
        assert np.abs(mat - 10.0 * np.eye(6)).max() <= 1e-12

    def test_unknown_kind(self, full):
        with pytest.raises(ValueError):
            casimir("C4", full)


def defects_by_substitution(c, spec):
    """centrality_defect's meaning spelled out: [c, g] with phi replaced
    by eps5*R_inv^2 through the generic Scalar.substitute."""
    sub = {"phi": Scalar.param("R_inv", 2, coeff=spec.signature.eps5)}
    out = []
    for gid in sorted(spec.basis):
        d = (-ad_generator(gid, c, spec)).map_scalars(
            lambda s: s.substitute(sub))
        if not d.is_zero:
            out.append((gid, d))
    return out


# (spec document, Casimir kinds, whether some defect is nonzero)
LOCUS_CASES = [
    ({"signature": {"eps4": 1, "eps5": 1},
      "structure_overrides": {"[p0,x0]": "0"}}, "C1 C2 C3", True),
    ({"signature": {"eps4": -1, "eps5": 1}, "regime": "tangent",
      "structure_overrides": {f"[x{mu},Im]": "0" for mu in range(4)}},
     "C1 C2", True),
    # phi in an override, an odd power of phi under eps5 = -1
    ({"signature": {"eps4": 1, "eps5": -1},
      "structure_overrides": {"[x0,x1]": "(ell^2 + 2*phi)*M01 - "
                                         "i*ell*R_inv*Im",
                              "[p2,p3]": "phi^3*M23"}}, "C1 C2 C3", True),
    # an override that vanishes on the locus
    ({"signature": {"eps4": -1, "eps5": -1},
      "structure_overrides": {"[p0,p1]": "(phi + R_inv^2)*M01 + "
                                         "x2"}}, "C1 C2", True),
    ({"signature": {"eps4": -1, "eps5": -1}}, "C1 C2 C3", False),
]
LOCUS_IDS = ["p0x0", "xIm", "phi-override", "locus-zero", "clean"]


class TestCentralityOnLocus:
    """centrality_defect restores phi by a monomial map; on mutated tables,
    where the defects are not zero, it agrees term for term with the
    generic substitution."""

    @pytest.mark.parametrize("doc, kinds, defective", LOCUS_CASES,
                             ids=LOCUS_IDS)
    def test_matches_generic_substitution(self, doc, kinds, defective):
        sf = load_specfile(doc)
        spec = sf.build()
        found = False
        for kind in kinds.split():
            c = casimir(kind, spec)
            want = defects_by_substitution(c, spec)
            assert centrality_defect(c, spec) == want, kind
            found |= bool(want)
        assert found == defective

    def test_restores_phi_in_the_element(self):
        # (phi + R_inv^2)*x0 is zero on the locus at eps5 = -1
        spec = build_deformed_algebra(Signature(1, -1), "full")
        c = EnvElement.monomial((X_IDS[0],), Scalar.param("phi")
                                + Scalar.param("R_inv", 2))
        assert not ad_generator(P_IDS[0], c, spec).is_zero
        assert centrality_defect(c, spec) == []


def memo_size(spec) -> int:
    return len(get_engine(spec)._norm_cache)


def unshared(spec) -> LieAlgebraSpec:
    """A spec with spec's table and an engine of its own; the builders
    return the one spec every caller shares."""
    return LieAlgebraSpec(spec.signature, spec.regime, spec.basis, spec.table)


class TestMemoLifetime:
    """The normal-order memo lives for one public operation."""

    def test_empty_after_each_operation(self):
        spec = build_deformed_algebra(SIG, "full")
        other = unshared(spec)
        rng = random.Random(7)
        for _ in range(200):
            a = random_env_element(rng, spec, 3, 3)
            b = random_env_element(rng, spec, 3, 3)
            got = env_commutator(a, b, spec)
            assert memo_size(spec) == 0
            assert got == env_commutator(a, b, other)
        got = ad_generator(P_IDS[0], a, spec)
        assert memo_size(spec) == 0
        assert got == ad_generator(P_IDS[0], a, other)
        got = casimir("C1", spec)
        assert memo_size(spec) == 0
        assert got == casimir("C1", other)

    def test_empty_after_error(self, full):
        a = gen(X_IDS[1]) + gen(P_IDS[2])
        b = EnvElement({(P_IDS[0], X_IDS[0]): S_ONE, (IMINV,): S_ONE})
        with pytest.raises(UnsupportedInverseError):
            env_product(a, b, full)
        assert memo_size(full) == 0

    def test_shared_spec_across_threads(self):
        spec = build_deformed_algebra(SIG, "full")
        rng = random.Random(8)
        pairs = [(random_env_element(rng, spec, 3, 3),
                  random_env_element(rng, spec, 3, 3)) for _ in range(6)]
        want = [env_commutator(a, b, spec) for a, b in pairs]
        results = {}

        def work(k):
            results[k] = [env_commutator(a, b, spec) for a, b in pairs]

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert [results.get(k) for k in range(4)] == [want] * 4
        assert memo_size(spec) == 0


def spec_state(spec) -> dict:
    """Identity and size of each spec field and of every engine attribute
    (each bracket row too)."""
    def state(value):
        return id(value), len(value) if hasattr(value, "__len__") else value
    eng = spec.engine
    out = {name: state(getattr(spec, name))
           for name in ("signature", "regime", "basis", "table", "engine")}
    out.update({f"engine.{k}": state(v) for k, v in vars(eng).items()})
    out.update({f"row {a}": state(row) for a, row in eng.rows.items()})
    return out


def mixed_calls(spec, seed: int) -> list[str]:
    """env_product, env_commutator, ad_generator, a derivation, casimir and
    parse_element on one spec; their results, printed."""
    rng = random.Random(seed)
    derivs = derivation_set(spec)
    out = []
    for _ in range(4):
        a = random_env_element(rng, spec, 3, 3)
        b = random_env_element(rng, spec, 3, 3)
        if spec.engine.allow_iminv:
            b = b + EnvElement.monomial((rng.choice(spec.basis), IMINV))
        out.append(format_env(env_product(a, b, spec)))
        out.append(format_env(env_commutator(a, b, spec)))
        out.append(format_env(ad_generator(rng.choice(spec.basis), b, spec)))
        out.append(format_env(derivs[rng.choice(sorted(derivs))].apply(b)))
        out.append(format_env(parse_element(f"({format_env(a)})*p0", spec)))
    out.append(format_env(casimir("C1", spec)))
    return out


class TestFrozenSpec:
    """A spec and its engine are complete at construction and never change."""

    def test_table_is_read_only(self, full):
        with pytest.raises(TypeError):
            full.table[(X_IDS[0], P_IDS[0])] = EnvElement.zero()
        with pytest.raises(AttributeError):
            full.regime = "tangent"

    @pytest.mark.parametrize("regime", ["full", "tangent"])
    def test_calls_change_nothing(self, regime):
        spec = build_deformed_algebra(SIG, regime)
        before = spec_state(spec)
        mixed_calls(spec, 3)
        assert spec_state(spec) == before

    @pytest.mark.parametrize("regime", ["full", "tangent"])
    def test_eight_threads_match_sequential(self, regime):
        spec = build_deformed_algebra(SIG, regime)
        before = spec_state(spec)
        twin = unshared(spec)
        want = [mixed_calls(twin, seed) for seed in range(8)]
        results = {}
        start = threading.Barrier(8)

        def work(seed):
            start.wait()
            results[seed] = mixed_calls(spec, seed)

        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert [results.get(k) for k in range(8)] == want
        assert spec_state(spec) == before

    def test_ad_generator_rejects_foreign_ids(self, full, tangent):
        x0 = gen(X_IDS[0])
        with pytest.raises(UnsupportedInverseError):
            ad_generator(IMINV, x0, full)
        for gid in (16, 99, 100):
            with pytest.raises(UnknownGeneratorError):
                ad_generator(gid, x0, full)
        spacetime = build_deformed_algebra(SIG, "spacetime")
        with pytest.raises(UnknownGeneratorError):
            ad_generator(P_IDS[0], x0, spacetime)
        with pytest.raises(UnsupportedInverseError):
            ad_generator(IMINV, x0, spacetime)
        assert ad_generator(IMINV, x0, tangent) == \
            env_commutator(gen(IMINV), x0, tangent)


ALL_SIGS = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]


def cached_specs() -> dict:
    """Every clean table the builders share, by name."""
    out = {}
    for sig in ALL_SIGS:
        tag = f"{sig.eps4},{sig.eps5}"
        for regime in ("full", "tangent", "spacetime"):
            out[f"{regime} {tag}"] = build_deformed_algebra(sig, regime)
        out[f"spacetime+Im {tag}"] = build_deformed_algebra(
            sig, "spacetime", extend_im=True)
        out[f"so6 {tag}"] = build_so6_algebra(sig)
    return out


def spec_digest(spec) -> str:
    """Content digest of a spec's table and of its engine's packed rows
    (coefficients included), with the engine's other attributes."""
    h = hashlib.sha256()
    for pair in sorted(spec.table):
        terms = spec.table[pair].terms
        h.update(repr((pair, sorted((w, sorted(s.terms.items()))
                                    for w, s in terms.items()))).encode())
    eng = spec.engine
    for a in sorted(eng.rows):
        for b in sorted(eng.rows[a]):
            h.update(repr((a, b, eng.rows[a][b])).encode())
    h.update(repr((spec.signature, spec.regime, spec.basis, eng.allow_iminv,
                   eng._norm_cache)).encode())
    return h.hexdigest()


class TestSharedTablesUnchanged:
    """The clean tables are built once per process and shared by every
    request; no subcommand may write to one."""

    ARGVS = (["verify", "--deep"], ["commute", "x0*p1", "M01*Im"],
             ["casimir", "1"], ["casimir", "2", "--deep"],
             ["casimir", "3", "--deep"], ["diff", "p0"],
             ["curvature", "--zero"], ["clifford"], ["rep", "5d"],
             ["rep", "so32"])

    def test_every_subcommand_leaves_them_unchanged(self, tmp_path, capsys):
        from ncspacetime import cli
        specs = cached_specs()
        before = {name: spec_digest(spec) for name, spec in specs.items()}
        for sig in ALL_SIGS:
            for regime in ("full", "tangent"):
                path = tmp_path / f"{sig.eps4}{sig.eps5}{regime}.json"
                path.write_text(json.dumps({
                    "signature": {"eps4": sig.eps4, "eps5": sig.eps5},
                    "regime": regime, "rep": {"samples": 20}}))
                argvs = self.ARGVS if regime == "full" else (
                    ["verify"], ["commute", "ImInv*x0", "p0"], ["diff", "x0"])
                for argv in argvs:
                    assert cli.main(["--spec", str(path)] + argv) == 0, argv
        capsys.readouterr()
        after = cached_specs()
        assert all(after[name] is spec for name, spec in specs.items())
        assert {name: spec_digest(spec)
                for name, spec in after.items()} == before

    def test_threads_racing_on_cold_builders(self):
        """Eight threads build every clean table from a cold cache at once
        and compute on it; two racing builds of one key are equal values,
        so every thread gets the sequential results."""
        def work():
            out = []
            for name, spec in sorted(cached_specs().items()):
                a, b = sorted(spec.basis)[:2], sorted(spec.basis)[-2:]
                out.append((name, spec_digest(spec), format_env(env_commutator(
                    EnvElement.monomial(a), EnvElement.monomial(b), spec))))
            return out

        want = work()
        build_deformed_algebra.cache_clear()
        build_so6_algebra.cache_clear()
        results = {}
        start = threading.Barrier(8)

        def run(k):
            start.wait()
            results[k] = work()

        threads = [threading.Thread(target=run, args=(k,)) for k in range(8)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert [results.get(k) for k in range(8)] == [want] * 8
        assert build_deformed_algebra.cache_info().currsize == 4 * 4


def test_long_word_commutator_within_recursion_limit(full):
    # [p0^60, x0] needs a rewrite chain deeper than the interpreter's
    # recursion limit (it runs out between 40 and 50 letters)
    p = EnvElement.monomial((P_IDS[0],) * 60)
    assert env_commutator(p, gen(X_IDS[0]), full) == \
        -ad_generator(X_IDS[0], p, full)


def test_tangent_long_word_through_iminv(tangent):
    # ImInv commutes with p in the tangent regime and [ImInv, x0] =
    # i*ell^2*p0*ImInv^2 at eps4 = 1, so [ImInv^k p0^m, x0] has a closed
    # form; the rewrite chain is k*m swaps long
    k, m = 20, 60
    a = EnvElement.monomial((IMINV,) * k + (P_IDS[0],) * m)
    got = env_commutator(a, gen(X_IDS[0]), tangent)
    want = EnvElement({
        (P_IDS[0],) * (m - 1) + (IMINV,) * (k - 1): Scalar.of(QQi(0, m)),
        (P_IDS[0],) * (m + 1) + (IMINV,) * (k + 1):
            Scalar.param("ell", 2, coeff=QQi(0, k))})
    assert got == want
    assert got == -ad_generator(X_IDS[0], a, tangent)


class TestExponentRange:
    """Parameter exponents are packed into one int inside the kernel."""

    BIG = 2 ** 40

    def test_large_exponents_stay_exact(self, full):
        ell = Scalar.param("ell", self.BIG)
        a = EnvElement.monomial((X_IDS[0],), ell)
        b = EnvElement.monomial((X_IDS[1], P_IDS[0]),
                                Scalar.param("R_inv", -self.BIG))
        got = env_commutator(a, b, full)
        plain = env_commutator(gen(X_IDS[0]), EnvElement.monomial(
            (X_IDS[1], P_IDS[0])), full)
        scale = ell * Scalar.param("R_inv", -self.BIG)
        assert got == plain.scale(scale)
        assert env_product(a, a, full) == EnvElement.monomial(
            (X_IDS[0], X_IDS[0]), Scalar.param("ell", 2 * self.BIG))

    def test_exponents_near_the_field_limit(self, full):
        # opposite signs in neighbouring fields, up to 2^62 in magnitude
        def mono(e):
            return Scalar.param("ell", e) * Scalar.param("R_inv", -e)
        a = EnvElement.monomial((X_IDS[0],), mono(2 ** 61))
        assert env_product(a, a, full) == EnvElement.monomial(
            (X_IDS[0], X_IDS[0]), mono(2 ** 62))
        b = EnvElement.monomial((X_IDS[0],), mono(2 ** 62))
        with pytest.raises(ExponentRangeError):
            env_product(b, b, full)

    def test_out_of_range_exponent_raises(self, full):
        with pytest.raises(ExponentRangeError):
            Scalar.param("phi", 2 ** 70)
        # in range, but [p0, p1] carries a factor phi
        a = EnvElement.monomial((P_IDS[0],), Scalar.param("phi", 2 ** 63 - 1))
        with pytest.raises(ExponentRangeError):
            env_commutator(a, gen(P_IDS[1]), full)
        with pytest.raises(ExponentRangeError):
            ad_generator(P_IDS[1], a, full)
