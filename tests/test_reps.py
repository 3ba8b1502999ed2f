import math

import pytest

from ncspacetime.algebra import (IM, M_IDS, P_IDS, X_IDS, Signature,
                                 build_deformed_algebra)
from ncspacetime.cli import check_brackets
from ncspacetime.expressions import Const, Cos, Mul, Poly, Pow, Var
from ncspacetime.reps import (BOOST_EXPONENT_FACTOR, BOOST_GENERATOR_SIGN,
                              BoundaryPointError, ConeChart, HomogeneitySpec,
                              boost_14_point, build_rep_5d, build_rep_so32,
                              check_rep_exact, exact_rep_so32,
                              finite_boost_14, homogeneous_extension,
                              make_sample_points, make_test_functions,
                              rep_of_element, scalar_to_trig,
                              verify_relations, POLY_VARS)

ALL_SIGS = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]


class TestRep5d:
    @pytest.mark.parametrize("sig", ALL_SIGS, ids=str)
    def test_every_bracket_exact(self, sig):
        rep = build_rep_5d(sig)
        target = build_deformed_algebra(sig, "tangent")
        assert check_rep_exact(rep, target) == []

    def test_p_x_bracket_is_i_imbar(self):
        sig = Signature(1, 1)
        rep = build_rep_5d(sig)
        got = rep[P_IDS[0]].commutator(rep[X_IDS[0]])
        target = build_deformed_algebra(sig, "tangent")
        want = rep_of_element(target.bracket_ids(P_IDS[0], X_IDS[0]), rep)
        assert got == want
        # and explicitly: i*(1 + i*ell*d4)
        i = __import__("ncspacetime.scalars", fromlist=["QQI_I"]).QQI_I
        assert got.zeroth == Poly.constant(POLY_VARS, i)
        assert got.firsts["xi4"] == \
            Poly.constant(POLY_VARS, -1) * Poly.variable(POLY_VARS, "ell")

    def test_x_x_bracket(self):
        for sig in (Signature(1, 1), Signature(-1, 1)):
            rep = build_rep_5d(sig)
            target = build_deformed_algebra(sig, "tangent")
            got = rep[X_IDS[0]].commutator(rep[X_IDS[1]])
            want = rep_of_element(target.bracket_ids(X_IDS[0], X_IDS[1]), rep)
            assert got == want

    def test_self_commutator_vanishes(self):
        rep = build_rep_5d(Signature(1, 1))
        z = rep[M_IDS[0]].commutator(rep[M_IDS[0]])
        assert z.zeroth.is_zero
        assert all(c.is_zero for c in z.firsts.values())

    def test_x_im_bracket_nonzero(self):
        # [x0, Im] = i*eps4*ell^2*p0 as an exact operator identity
        sig = Signature(1, 1)
        rep = build_rep_5d(sig)
        target = build_deformed_algebra(sig, "tangent")
        got = rep[X_IDS[0]].commutator(rep[IM])
        want = rep_of_element(target.bracket_ids(X_IDS[0], IM), rep)
        assert got == want
        assert any(not c.is_zero for c in got.firsts.values())


@pytest.fixture(scope="module")
def target():
    return build_deformed_algebra(Signature(1, 1), "spacetime")


@pytest.fixture(scope="module")
def points():
    return make_sample_points(0, 120)


@pytest.fixture(scope="module")
def funcs():
    return make_test_functions(0, 5)


class TestRepSO32:
    @pytest.mark.parametrize("sigma", [0.37, 1.5, -0.8])
    def test_residuals_all_45_pairs(self, sigma, target, points, funcs):
        rep = build_rep_so32(sigma, 0)
        res = verify_relations(rep, target, points, funcs)
        assert len(res) == 45
        assert max(res.values()) <= 1e-8

    def test_sample_points_avoid_degeneracy(self, points):
        assert len(points) >= 100
        assert all(abs(math.sin(pt["phi2"])) > 0.1 for pt in points)

    def test_coefficient_mutation_detected(self, target, points, funcs):
        rep = build_rep_so32(0.37, 0)
        scale_x1_theta1(rep)
        res = verify_relations(rep, target, points[:40], funcs[:3])
        assert max(res.values()) > 1e-3

    def test_m20_phi1_sign_mutation_detected(self, target, points, funcs):
        # the opposite sign of the phi1 term of M_{20} (the M02 operator)
        # leaves the ten operators without a closed Lie algebra
        rep = build_rep_so32(0.37, 0)
        flip_m20_phi1(rep)
        res = verify_relations(rep, target, points[:40], funcs[:3])
        assert max(res.values()) == pytest.approx(20.2549, abs=1e-3)
        assert sum(r > 1e-3 for r in res.values()) == 11

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_residual_fails(self, sigma, target, points, funcs):
        rep = build_rep_so32(sigma, 0)
        res = verify_relations(rep, target, points[:10], funcs[:2])
        assert max(res.values()) == math.inf

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            build_rep_so32(0.37, 2)

    def test_x0_and_m23_forms(self):
        rep = build_rep_so32(0.5, 0)
        # X^0 = -i * d/dtheta1; M^{23} = -(-i)(-d/dphi1) = ... check action
        f = make_test_functions(1, 1)[0]
        pt = make_sample_points(1, 1)[0]
        dtheta = f.diff("theta1").evaluate(pt)
        assert rep[X_IDS[0]].apply(f, pt) == pytest.approx(-1j * dtheta)
        dphi1 = f.diff("phi1").evaluate(pt)
        assert rep[M_IDS[5]].apply(f, pt) == pytest.approx(-1j * dphi1)


class TestFailingPairsNamed:
    def test_rep_5d(self):
        sig = Signature(1, 1)
        target = build_deformed_algebra(sig, "tangent")
        rep = build_rep_5d(sig)
        rep[P_IDS[0]] = rep[P_IDS[0]].scale(2)
        bad = check_rep_exact(rep, target)
        check = check_brackets("rep_5d_brackets", bad, target)
        assert (check.status, check.max_residual) == ("fail", 1.0)
        names = [f"[{target.gen_name(a)},{target.gen_name(b)}]"
                 for a, b in bad]
        assert "[x0,p0]" in names
        assert check.details == (f"{len(bad)} of 105 brackets fail: "
                                 + ", ".join(names))

    def test_rep_so32(self, target):
        rep = build_rep_so32(0.37, 0)
        flip_m20_phi1(rep)
        check = check_brackets("rep_so32_brackets",
                               exact_failures(rep, target), target)
        assert check.status == "fail"
        assert check.details.startswith(
            "11 of 45 brackets fail: [X0,X2], [X0,M02], ")
        clean = check_brackets("rep_so32_brackets", [], target)
        assert (clean.status, clean.max_residual) == ("pass", "exact-zero")


def exact_failures(rep, target) -> list:
    return check_rep_exact(exact_rep_so32(rep), target, scalar_to_trig)


def flip_m20_phi1(rep):
    rep[M_IDS[1]].firsts["phi1"] = Mul(Const(-1), rep[M_IDS[1]].firsts["phi1"])


def scale_x1_theta1(rep):
    rep[X_IDS[1]].firsts["theta1"] = Mul(
        Const(1.01), rep[X_IDS[1]].firsts["theta1"])


# (sigma, parity, eps5 of the target, seed), as in test_operator_digest
SAMPLED_SETS = ((1.0, 0, 1, 7), (-2.5, 1, -1, 11), (0.5, 0, -1, 23),
                (3.25, 1, 1, 101))


class TestRepSO32Exact:
    @pytest.mark.parametrize("eps5", [1, -1])
    @pytest.mark.parametrize("eps", [0, 1])
    # the sampled benchmark's sigmas, the digest's and the extremes
    @pytest.mark.parametrize("sigma", [0, 1, -2.5, 0.37, -0.8, 0.5, 1.3,
                                       -0.25, 0.9, 3.25, 1e300])
    def test_all_45_brackets_exact(self, sigma, eps, eps5):
        target = build_deformed_algebra(Signature(1, eps5), "spacetime")
        assert exact_failures(build_rep_so32(sigma, eps), target) == []

    def test_m20_phi1_sign_flip_fails_exactly_the_sampled_pairs(
            self, target, points, funcs):
        rep = build_rep_so32(0.37, 0)
        flip_m20_phi1(rep)
        bad = exact_failures(rep, target)
        res = verify_relations(rep, target, points[:40], funcs[:3])
        assert len(bad) == 11
        assert set(bad) == {pair for pair, r in res.items() if r > 1e-3}
        assert [(target.gen_name(a), target.gen_name(b)) for a, b in bad] == [
            ("X0", "X2"), ("X0", "M02"), ("X2", "M02"), ("X3", "M02"),
            ("M01", "M02"), ("M01", "M12"), ("M02", "M03"), ("M02", "M12"),
            ("M02", "M13"), ("M02", "M23"), ("M03", "M23")]

    def test_coefficient_mutation_detected(self, target, points, funcs):
        rep = build_rep_so32(0.37, 0)
        scale_x1_theta1(rep)
        bad = exact_failures(rep, target)
        res = verify_relations(rep, target, points[:40], funcs[:3])
        assert bad
        assert set(bad) == {pair for pair, r in res.items() if r > 1e-3}

    @pytest.mark.parametrize("sigma", [0.37, 1.5, -0.8])
    @pytest.mark.parametrize("sampled_set", SAMPLED_SETS, ids=str)
    def test_agrees_with_sampled_residuals(self, sampled_set, sigma):
        """The exact check passes wherever the sampled residual is at most
        1e-8, for the digest's sets at their own sigma and three more."""
        own_sigma, parity, eps5, seed = sampled_set
        target = build_deformed_algebra(Signature(1, eps5), "spacetime")
        for s in (own_sigma, sigma):
            rep = build_rep_so32(s, parity)
            res = verify_relations(rep, target, make_sample_points(seed, 40),
                                   make_test_functions(seed))
            assert len(res) == 45
            assert set(exact_failures(rep, target)) == {
                pair for pair, r in res.items() if r > 1e-8}

    def test_unsupported_node_raises(self, target):
        rep = build_rep_so32(0.37, 0)
        rep[X_IDS[0]].firsts["theta1"] = Pow(Cos(Var("theta1")), 2)
        with pytest.raises(TypeError):
            exact_failures(rep, target)


class TestFiniteBoost:
    def fc(self, expr):
        return lambda p1, p2, th: expr.evaluate(
            {"phi1": p1, "phi2": p2, "theta1": th})

    def test_identity_at_zero_exact(self):
        f = self.fc(make_test_functions(2, 1)[0])
        b = finite_boost_14(0.0, 0.9, f)
        for pt in make_sample_points(2, 10):
            args = (pt["phi1"], pt["phi2"], pt["theta1"])
            assert b(*args) == f(*args)

    def test_group_law(self):
        f = self.fc(make_test_functions(3, 1)[0])
        pts = make_sample_points(3, 15)
        for t1, t2 in ((0.4, -0.75), (1.0, 0.9), (-1.0, 0.35)):
            lhs = finite_boost_14(t1, 0.7, finite_boost_14(t2, 0.7, f))
            rhs = finite_boost_14(t1 + t2, 0.7, f)
            for pt in pts:
                args = (pt["phi1"], pt["phi2"], pt["theta1"])
                assert abs(lhs(*args) - rhs(*args)) <= 1e-8

    def test_phi1_fixed(self):
        for pt in make_sample_points(4, 10):
            p1, _p2, _th, _a = boost_14_point(
                0.8, pt["phi1"], pt["phi2"], pt["theta1"])
            assert p1 == pt["phi1"]

    def test_boost_moves_points_on_cone(self):
        chart = ConeChart("V32")
        for pt in make_sample_points(5, 10):
            p1, p2, th, a = boost_14_point(
                0.6, pt["phi1"], pt["phi2"], pt["theta1"])
            y = chart.embed(0.0, {"phi1": p1, "phi2": p2, "theta1": th})
            assert abs(chart.cone_residual(y)) <= 1e-12

    def test_generator_at_zero_matches_recorded_convention(self):
        # central difference of T_t at t=0 equals
        # BOOST_GENERATOR_SIGN * (iX_1 with sigma -> sigma/2)
        sigma = 0.8
        rep_half = build_rep_so32(sigma * BOOST_EXPONENT_FACTOR, 0)
        funcs = make_test_functions(5, 3)
        pts = make_sample_points(5, 10)
        h = 1e-5
        for fe in funcs:
            f = self.fc(fe)
            bp = finite_boost_14(h, sigma, f)
            bm = finite_boost_14(-h, sigma, f)
            for pt in pts:
                args = (pt["phi1"], pt["phi2"], pt["theta1"])
                fd = (bp(*args) - bm(*args)) / (2 * h)
                # iX_1 (lower) = -X^1 op * i ... : with X^1 = -X_1 the recorded
                # statement  d/dt T|_0 = -iX_1(sigma/2)  reads +i*X^1(sigma/2)
                val = BOOST_GENERATOR_SIGN * (-1) * 1j \
                    * rep_half[X_IDS[1]].apply(fe, pt)
                assert abs(fd - val) <= 1e-7

    def test_range_guard(self):
        f = self.fc(make_test_functions(2, 1)[0])
        with pytest.raises(ValueError):
            finite_boost_14(100.0, 0.5, f)


class TestHomogeneity:
    def test_restriction_at_zero(self):
        f = lambda p1, p2, th: math.sin(p2) + math.cos(th)
        ext = homogeneous_extension(f, HomogeneitySpec(1.7))
        assert ext(0.0, 0.3, 1.0, 2.0) == pytest.approx(f(0.3, 1.0, 2.0))

    def test_constant_along_rays_for_sigma_zero(self):
        f = lambda p1, p2, th: math.sin(p2) * math.cos(p1)
        ext = homogeneous_extension(f, HomogeneitySpec(0.0))
        assert ext(2.5, 0.3, 1.0, 2.0) == pytest.approx(ext(0.0, 0.3, 1.0, 2.0))

    def test_degree_two_doubling(self):
        f = lambda p1, p2, th: 1.0 + 0.2 * math.cos(th)
        ext = homogeneous_extension(f, HomogeneitySpec(2.0))
        assert ext(math.log(2), 0.1, 0.9, 0.4) == pytest.approx(
            4.0 * f(0.1, 0.9, 0.4))

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            HomogeneitySpec(1.0, 2)


class TestConeCharts:
    def test_v32_cone_relation_and_scaling(self):
        chart = ConeChart("V32")
        angles = {"phi1": 0.4, "phi2": 1.1, "theta1": 2.2}
        y0 = chart.embed(0.0, angles)
        assert abs(chart.cone_residual(y0)) <= 1e-14
        y1 = chart.embed(0.7, angles)
        for a, b in zip(y1, y0):
            assert a == pytest.approx(math.exp(0.7) * b)

    def test_v41_cone_relation(self):
        chart = ConeChart("V41")
        assert chart.contour_topology == "S3"
        angles = {"phi1": 0.4, "phi2": 1.1, "phi3": 0.8}
        y = chart.embed(0.3, angles)
        assert abs(chart.cone_residual(y)) <= 1e-12

    def test_v32_contour_topology(self):
        assert ConeChart("V32").contour_topology == "S2 x S1"

    def test_jacobian_nonsingular_away_from_degeneracy(self):
        chart = ConeChart("V32")
        det = chart.jacobian_determinant(
            0.0, {"phi1": 0.4, "phi2": 1.2, "theta1": 0.7})
        assert det > 1e-3

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ConeChart("V99")


def test_boundary_point_error():
    # theta1 = 0, phi2 = 0: boosting collapses the transverse circle radius
    with pytest.raises((BoundaryPointError, ValueError)):
        boost_14_point(50.0, 0.0, 0.0, 0.0)
