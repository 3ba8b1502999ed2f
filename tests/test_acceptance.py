"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -s to see the lines on success).

Run:  pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from ncspacetime.algebra import (P_IDS, X_IDS, Signature,
                                 build_deformed_algebra, build_so6_algebra,
                                 contract_tangent, defining_rep,
                                 identify_orthogonal,
                                 jacobi_defect, physical_rep)
from ncspacetime.clifford import (FinkelsteinParams, closure_report,
                                  d_form_via_D, gamma_basis_for)
from ncspacetime.connections import (Connection, curvature_commutator,
                                     expected_phi_term, field_strength)
from ncspacetime.diffcalc import (derivation_set, differential_of_generator,
                                  exterior_derivative,
                                  reference_differential_p,
                                  reference_differential_x)
from ncspacetime.enveloping import (EnvElement, casimir, centrality_defect,
                                    env_product)
from ncspacetime.expressions import Const, Mul
from ncspacetime.reps import (BOOST_EXPONENT_FACTOR, BOOST_GENERATOR_SIGN,
                              build_rep_5d, build_rep_so32, check_rep_exact,
                              finite_boost_14, make_sample_points,
                              make_test_functions, verify_relations)
from ncspacetime.scalars import QQi, Scalar

ALL_SIGS = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]
SIG = Signature(1, 1)


def report(number: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_jacobi_exactness():
    t0 = time.time()
    for sig in ALL_SIGS:
        for regime in ("full", "tangent"):
            spec = build_deformed_algebra(sig, regime)
            n = len(spec.basis)
            assert n * (n - 1) * (n - 2) // 6 == 455
            assert jacobi_defect(spec) == []
    elapsed = time.time() - t0
    report(1, elapsed < 1.0,
           f"Jacobi exact zero on 455 triples, 4 signatures x 2 regimes "
           f"({elapsed:.2f}s < 1s)")


def test_criterion_02_orthogonal_realization():
    t0 = time.time()
    worst = 0.0
    for sig in ALL_SIGS:
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
            assert (pushed - direct).is_zero
        rep = physical_rep(sig, ell=1.0, r_inv=0.5)
        env = {"ell": 1.0, "R_inv": 0.5, "phi": sig.eps5 * 0.25}
        pairs = 0
        for a, b in itertools.combinations(sorted(full.basis), 2):
            lhs = rep[a] @ rep[b] - rep[b] @ rep[a]
            rhs = full.bracket_ids(a, b).evaluate_matrix(rep, env)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
            pairs += 1
        assert pairs == 105
    elapsed = time.time() - t0
    report(2, worst <= 1e-12 and elapsed / len(ALL_SIGS) < 1.0,
           f"orthogonal realization exact; oracle max residual {worst:.1e} "
           f"<= 1e-12 over 105 brackets ({elapsed / len(ALL_SIGS):.2f}s "
           f"per signature < 1s)")


def test_criterion_03_contraction():
    ok = all(
        contract_tangent(build_deformed_algebra(sig, "full")).table_equal(
            build_deformed_algebra(sig, "tangent"))
        for sig in ALL_SIGS)
    report(3, ok, "R_inv -> 0 contraction equals the tangent table "
                  "entry-for-entry, exactly (all signatures)")


def test_criterion_04_casimir_centrality():
    spec = build_deformed_algebra(SIG, "full")
    sym_ok = True
    for kind in ("C1", "C2", "C3"):
        sym_ok &= centrality_defect(casimir(kind, spec), spec) == []
    t0 = time.time()
    worst = 0.0
    rep6 = defining_rep(SIG)
    ident = identify_orthogonal(SIG)
    env = {"ell": 1.0, "R_inv": 0.5, "phi": 0.25}
    rep = {gid: complex(ident.to_mab(gid)[1].evaluate(env))
           * rep6[ident.to_mab(gid)[0]] for gid in spec.basis}
    for kind in ("C1", "C2", "C3"):
        mat = casimir(kind, spec).evaluate_matrix(rep, env)
        scale = max(1.0, float(np.abs(mat).max()))
        for m in rep6.values():
            worst = max(worst,
                        float(np.abs(mat @ m - m @ mat).max()) / scale)
    elapsed = time.time() - t0
    report(4, sym_ok and worst <= 1e-10 and elapsed < 1.0,
           f"C1, C2, C3 centrality exact-symbolic; matrix oracle residual "
           f"{worst:.1e} <= 1e-10 ({elapsed:.2f}s < 1s)")


def test_criterion_05_worked_differentials():
    ok = True
    for sig in ALL_SIGS:
        spec = build_deformed_algebra(sig, "full")
        derivs = derivation_set(spec)
        for mu in range(4):
            ok &= differential_of_generator(
                X_IDS[mu], spec, derivs) == \
                reference_differential_x(mu, sig)
            ok &= differential_of_generator(
                P_IDS[mu], spec, derivs) == \
                reference_differential_p(mu, sig)
    for regime in ("full", "tangent"):
        spec = build_deformed_algebra(SIG, regime)
        derivs = derivation_set(spec)
        for gid in spec.basis:
            form = differential_of_generator(gid, spec, derivs)
            ok &= exterior_derivative(form, spec, derivs).is_zero
    report(5, ok, "dx^mu and dp^mu reproduce both worked one-forms exactly; "
                  "d(d(g)) = 0 on all generators in both regimes")


def test_criterion_06_curvature():
    t0 = time.time()
    spec = build_deformed_algebra(SIG, "full")
    ok = True
    conn0 = Connection.zero(spec)
    for ai, bi in itertools.combinations(range(4), 2):
        for mu in range(4):
            got = curvature_commutator(
                conn0, EnvElement.generator(X_IDS[mu]), P_IDS[ai], P_IDS[bi])
            ok &= got == expected_phi_term(mu, ai, bi)
    conn = Connection.formal(spec)
    for ai, bi in itertools.combinations(range(4), 2):
        f = field_strength(conn, P_IDS[ai], P_IDS[bi])
        for mu in range(4):
            x = EnvElement.generator(X_IDS[mu])
            lhs = curvature_commutator(conn, x, P_IDS[ai], P_IDS[bi])
            rhs = env_product(x, f, spec) + expected_phi_term(mu, ai, bi)
            ok &= (lhs - rhs).is_zero
    elapsed = time.time() - t0
    report(6, ok and elapsed < 5.0,
           f"zero-connection curvature equals the recorded-sign phi term; "
           f"formal-A decomposition exact, uniform sign ({elapsed:.2f}s < 5s)")


def test_criterion_07_clifford_closure():
    half = QQi(Fraction(1, 2))
    gate_ok = FinkelsteinParams(3, half, half).constraint_holds() and \
        not FinkelsteinParams(2, half, half).constraint_holds()

    t0 = time.time()
    rows2 = closure_report(FinkelsteinParams(2, half, QQi(1)), SIG)
    t2 = time.time() - t0
    t0 = time.time()
    rows3 = closure_report(FinkelsteinParams(3, half, half), SIG)
    t3 = time.time() - t0
    res_ok = max(r[3] for r in rows2) <= 1e-10 and \
        max(r[3] for r in rows3) <= 1e-10

    def coeff(rows, a, b, g):
        for na, nb, matches, _r in rows:
            if (na, nb) == (a, b):
                return dict(matches).get(g, 0.0)

    base = closure_report(FinkelsteinParams(
        2, half, QQi(Fraction(1, 3)), enforce_constraint=False), SIG)
    dchi = closure_report(FinkelsteinParams(
        2, QQi(1), QQi(Fraction(1, 3)), enforce_constraint=False), SIG)
    dphi = closure_report(FinkelsteinParams(
        2, half, QQi(Fraction(2, 3)), enforce_constraint=False), SIG)
    scale_ok = (
        coeff(dchi, "x0", "x1", "M01") == 4 * coeff(base, "x0", "x1", "M01")
        and coeff(dphi, "p0", "p1", "M01") == 4 * coeff(base, "p0", "p1", "M01")
        and coeff(dchi, "x0", "p0", "Im") == 2 * coeff(base, "x0", "p0", "Im")
        and coeff(dphi, "x0", "p0", "Im") == 2 * coeff(base, "x0", "p0", "Im"))

    report(7, gate_ok and res_ok and scale_ok and t2 < 10 and t3 < 120,
           f"cell commutators close in the family span (N=2: {t2:.1f}s < 10s, "
           f"N=3: {t3:.1f}s < 2min, residual <= 1e-10); coefficients scale "
           f"quadratically/bilinearly; constraint gate accepts (1/2,1/2,3) "
           f"and rejects (1/2,1/2,2)")


def test_criterion_08_d_form_equivalence():
    ok = True
    for regime in ("full", "tangent"):
        spec = build_deformed_algebra(SIG, regime)
        basis = gamma_basis_for(SIG)
        derivs = derivation_set(spec)
        for gid in spec.basis:
            comps = d_form_via_D(EnvElement.generator(gid), spec,
                                 basis, derivs)
            form = differential_of_generator(gid, spec, derivs)
            for lab, (_mat, val) in comps.items():
                ok &= (val - form.value((lab,))).is_zero
    report(8, ok, "[D, g] components equal the derivation differentials for "
                  "all 15 generators, exactly (both regimes)")


def test_criterion_09_five_dim_representation():
    ok = True
    for sig in ALL_SIGS:
        rep = build_rep_5d(sig)
        target = build_deformed_algebra(sig, "tangent")
        ok &= check_rep_exact(rep, target) == []
    report(9, ok, "the 5-variable operator realization satisfies every "
                  "tangent-algebra bracket as an exact polynomial identity "
                  "(zero tolerance, all signatures)")


def test_criterion_10_cone_representation():
    t0 = time.time()
    target = build_deformed_algebra(Signature(1, 1), "spacetime")
    points = make_sample_points(0, 120)
    funcs = make_test_functions(0, 5)
    assert len(points) >= 100 and len(funcs) >= 5
    assert all(abs(math.sin(pt["phi2"])) > 0.1 for pt in points)
    worst = 0.0
    for sigma in (0.37, 1.5, -0.8):
        rep = build_rep_so32(sigma, 0)
        res = verify_relations(rep, target, points, funcs)
        assert len(res) == 45
        worst = max(worst, max(res.values()))
    mutated = build_rep_so32(0.37, 0)
    mutated[X_IDS[1]].firsts["theta1"] = Mul(
        Const(1.01), mutated[X_IDS[1]].firsts["theta1"])
    mres = verify_relations(mutated, target, points[:40], funcs[:3])
    elapsed = time.time() - t0
    report(10, worst <= 1e-8 and max(mres.values()) > 1e-3 and elapsed < 30,
           f"45 pairs x 120 points x 5 functions, sigma in {{0.37, 1.5, "
           f"-0.8}}: max residual {worst:.1e} <= 1e-8; 1% mutation gives "
           f"{max(mres.values()):.1e} > 1e-3 ({elapsed:.1f}s < 30s)")


def test_criterion_11_finite_boost():
    funcs = make_test_functions(2, 3)
    pts = make_sample_points(2, 20)

    def fc(expr):
        return lambda p1, p2, th: expr.evaluate(
            {"phi1": p1, "phi2": p2, "theta1": th})

    f = fc(funcs[0])
    ident = finite_boost_14(0.0, 0.9, f)
    id_ok = all(ident(pt["phi1"], pt["phi2"], pt["theta1"])
                == f(pt["phi1"], pt["phi2"], pt["theta1"]) for pt in pts)

    rng = random.Random(6)
    gl_worst = 0.0
    for _ in range(5):
        t1, t2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        lhs = finite_boost_14(t1, 0.9, finite_boost_14(t2, 0.9, f))
        rhs = finite_boost_14(t1 + t2, 0.9, f)
        for pt in pts:
            args = (pt["phi1"], pt["phi2"], pt["theta1"])
            gl_worst = max(gl_worst, abs(lhs(*args) - rhs(*args)))

    sigma = 0.8
    rep_half = build_rep_so32(sigma * BOOST_EXPONENT_FACTOR, 0)
    h = 1e-5
    der_worst = 0.0
    for fe in funcs:
        g = fc(fe)
        bp = finite_boost_14(h, sigma, g)
        bm = finite_boost_14(-h, sigma, g)
        for pt in pts[:10]:
            args = (pt["phi1"], pt["phi2"], pt["theta1"])
            fd = (bp(*args) - bm(*args)) / (2 * h)
            # recorded: d/dt T|0 = sign * iX_1(sigma/2); X_1 = -X^1
            val = BOOST_GENERATOR_SIGN * 1j \
                * (-1) * rep_half[X_IDS[1]].apply(fe, pt)
            der_worst = max(der_worst, abs(fd - val))

    report(11, id_ok and gl_worst <= 1e-8 and der_worst <= 1e-7,
           f"t = 0 is the exact identity; group law residual {gl_worst:.1e} "
           f"<= 1e-8 on [-1,1]; d/dt at 0 matches the recorded convention "
           f"sign={BOOST_GENERATOR_SIGN} x (iX_1 at sigma*"
           f"{BOOST_EXPONENT_FACTOR}) to {der_worst:.1e} (the multiplier "
           f"exponent is sigma/2, not sigma)")


def test_criterion_12_cli_determinism(tmp_path):
    cmd = [sys.executable, "-m", "ncspacetime.cli"]

    def run(*args):
        return subprocess.run(cmd + list(args), capture_output=True,
                              text=True)

    pairs_identical = True
    for args in (("verify",), ("rep", "so32"), ("casimir", "1"),
                 ("commute", "x0*p1", "M01")):
        a, b = run(*args), run(*args)
        pairs_identical &= a.stdout == b.stdout and a.returncode == 0

    spec = tmp_path / "broken.json"
    spec.write_text(json.dumps(
        {"structure_overrides": {"[p0,x0]": "0"}}), encoding="utf-8")
    fail_run = run("--spec", str(spec), "verify")
    usage_run = run("commute", "p0 + ", "x1")

    ok = pairs_identical and fail_run.returncode == 1 \
        and usage_run.returncode == 2
    report(12, ok, "identical spec + seed give byte-identical reports; exit "
                   "codes 0 (all pass) / 1 (check failed) / 2 (usage error)")
