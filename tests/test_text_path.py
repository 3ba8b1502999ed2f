"""The text path of `ncst commute`: printed forms and parsed products.

The golden strings were printed by the generic Scalar-based printer that
preceded the direct one, so any change of a printed form fails here (the
kernel digest pins the same printer on kernel results; these cases cover
the forms it reaches rarely or never).  The junction tests pin the parser's
products against the kernel.
"""

import random
from fractions import Fraction as F

import pytest

from ncspacetime.algebra import (FORMAL_BASE, IM, IMINV, M_IDS, P_IDS, X_IDS,
                                 Signature, build_deformed_algebra)
from ncspacetime.enveloping import EnvElement, env_product
from ncspacetime.minilang import format_env, parse_element, parse_scalar
from ncspacetime.scalars import QQi, Scalar

x0, x1, x2, x3 = X_IDS
p0, p1, p2, p3 = P_IDS
M01, M02, M03, M12, M13, M23 = M_IDS


def S(re=0, im=0):
    return Scalar.of(QQi(re, im))


def P(name, exp=1, coeff=1):
    return Scalar.param(name, exp, coeff=coeff)


def E(*terms):
    return EnvElement({tuple(w): s for w, s in terms})


# (name, element, regime, printed form)
GOLDEN = [
    ("zero", E(), "full", "0"),
    ("fraction parts", E(((x0,), S(F(1, 2), F(-3, 4)))), "full",
     "(1/2-3/4*i)*x0"),
    ("fraction real", E(((x0, p1), S(F(-3, 7)))), "full", "-3/7*x0*p1"),
    ("fraction imaginary", E(((M01,), S(0, F(5, 2)))), "full",
     "5/2*i*M01"),
    ("i", E(((p1,), S(0, 1))), "full", "i*p1"),
    ("minus i", E(((p1,), S(0, -1))), "full", "-i*p1"),
    ("k i", E(((IM,), S(0, 3))), "full", "3*i*Im"),
    ("minus k i", E(((IM,), S(0, -4))), "full", "-4*i*Im"),
    ("re plus i", E(((x1,), S(2, 1))), "full", "(2+i)*x1"),
    ("re minus i", E(((x1,), S(2, -1))), "full", "(2-i)*x1"),
    ("re minus k i", E(((x1,), S(-2, -7))), "full", "(-2-7*i)*x1"),
    ("fraction plus i", E(((x1,), S(F(1, 3), 1))), "full", "(1/3+i)*x1"),
    ("one", E(((x2,), S(1))), "full", "x2"),
    ("minus one", E(((x2,), S(-1))), "full", "-x2"),
    ("plus one times parameter", E(((x0,), P("ell"))), "full", "ell*x0"),
    ("minus one times parameter", E(((x0,), P("ell", coeff=-1))), "full",
     "-ell*x0"),
    ("i times parameter", E(((x0,), P("phi", coeff=QQi(0, 1)))), "full",
     "i*phi*x0"),
    ("minus i times parameter", E(((x0,), P("phi", coeff=QQi(0, -1)))),
     "full", "-i*phi*x0"),
    ("complex times parameter", E(((x0,), P("hbar", coeff=QQi(3, -2)))),
     "full", "(3-2*i)*hbar*x0"),
    ("fraction times parameter", E(((x0,), P("chi", coeff=F(-1, 2)))),
     "full", "-1/2*chi*x0"),
    ("negative exponent", E(((p0, p0), P("ell", -2))), "full",
     "ell^-2*p0^2"),
    ("mixed exponents",
     E(((p0,), P("ell", -2) * P("R_inv", 3) * P("phi", -1))), "full",
     "ell^-2*R_inv^3*phi^-1*p0"),
    ("all parameters",
     E(((M23,), P("ell") * P("R_inv") * P("phi") * P("hbar") * P("chi")
        * P("phi_cell") * P("sigma", -5))), "full",
     "ell*R_inv*phi*hbar*chi*phi_cell*sigma^-5*M23"),
    ("multi-term scalar", E(((M01,), P("ell", 2) + P("phi", coeff=-2))),
     "full", "(-2*phi + ell^2)*M01"),
    ("multi-term scalar, leading minus",
     E(((M01,), P("phi", coeff=-1) + S(F(-3, 7)))), "full",
     "(-3/7 - phi)*M01"),
    ("multi-term scalar with complex",
     E(((x3,), S(1) + P("ell", 2) + S(0, 1))), "full",
     "((1+i) + ell^2)*x3"),
    ("constant alone", E(((), S(5))), "full", "5"),
    ("minus i alone", E(((), S(0, -1))), "full", "-i"),
    ("parameter alone", E(((), P("ell", -1, coeff=-1))), "full", "-ell^-1"),
    ("multi-term constant alone", E(((), S(1) + P("ell", 2))), "full",
     "1 + ell^2"),
    ("multi-term constant in a sum",
     E(((), S(1) + P("ell", 2, coeff=-1)), ((x0,), S(1))), "full",
     "(1 - ell^2) + x0"),
    ("constant in a sum", E(((), S(-3)), ((x0,), S(-1)), ((p0,), S(2))),
     "full", "-3 - x0 + 2*p0"),
    ("complex constant in a sum", E(((), S(1, -1)), ((x0, p0), S(0, 1))),
     "full", "(1-i) + i*x0*p0"),
    ("run", E(((x0, x0, x0), S(1))), "full", "x0^3"),
    ("runs", E(((x0, x0, p1, M01, M01, IM, IM, IM, IM), S(-1))), "full",
     "-x0^2*p1*M01^2*Im^4"),
    ("iminv squared", E(((IMINV, IMINV), P("ell", -1))), "tangent",
     "ell^-1*ImInv^2"),
    ("iminv after p",
     E(((p0, IMINV, IMINV), P("ell", 2, coeff=QQi(0, 1))),
       ((x0, IMINV), S(1))), "tangent",
     "x0*ImInv + i*ell^2*p0*ImInv^2"),
    ("formal symbols",
     E(((FORMAL_BASE, FORMAL_BASE + 3, FORMAL_BASE + 3), S(2)),
       ((x0, FORMAL_BASE + 12), S(-1))), "full", "-x0*A12 + 2*A0*A3^2"),
    ("spacetime names",
     E(((x0, x1, x1), S(1)), ((x3, M12), S(0, -1)), ((IM,), P("ell", 2))),
     "spacetime", "ell^2*Im - i*X3*M12 + X0*X1^2"),
    ("sorted by degree then word",
     E(((M23,), S(1)), ((x0, x1), S(-1)), ((), S(2)), ((x3,), S(0, 1)),
       ((p0, p0, p0), S(F(1, 2))), ((x0,), S(-1))), "full",
     "2 - x0 + i*x3 + M23 - x0*x1 + 1/2*p0^3"),
    ("signs in a sum",
     E(((x0,), S(-1)), ((x1,), P("ell", coeff=-1)), ((x2,), S(-2, 1)),
       ((x3,), S(F(-1, 2))), ((p0,), S(0, -1)),
       ((p1,), P("ell") + P("phi", coeff=-1))), "full",
     "-x0 - ell*x1 + (-2+i)*x2 - 1/2*x3 - i*p0 + (-phi + ell)*p1"),
]

SIG = Signature(1, 1)


@pytest.fixture(scope="module")
def specs():
    return {regime: build_deformed_algebra(SIG, regime)
            for regime in ("full", "tangent", "spacetime")}


@pytest.mark.parametrize("name, elem, regime, text", GOLDEN,
                         ids=[case[0] for case in GOLDEN])
def test_golden_form(specs, name, elem, regime, text):
    assert format_env(elem, regime) == text
    if name != "formal symbols":  # A<n> is printed, never parsed
        spec = specs[regime]
        # the spacetime regime has no Im; the printer does not care
        if all(g in spec.basis or g == IMINV for w in elem.terms for g in w):
            assert parse_element(text, spec) == elem


def _letters(spec):
    names = spec.gen_ids()
    if spec.engine.allow_iminv:
        names["ImInv"] = IMINV
    return names


@pytest.mark.parametrize("regime", ["full", "tangent", "spacetime"])
def test_every_junction_matches_the_kernel(specs, regime):
    spec = specs[regime]
    letters = _letters(spec)
    assert ("ImInv" in letters) == (regime == "tangent")
    for a, ga in letters.items():
        for b, gb in letters.items():
            want = env_product(EnvElement.generator(ga),
                               EnvElement.generator(gb), spec)
            assert parse_element(f"{a}*{b}", spec) == want, (a, b)


@pytest.mark.parametrize("regime", ["full", "tangent", "spacetime"])
def test_products_of_monomials_match_the_kernel(specs, regime):
    """Runs, coefficients and parameters on either side of a junction."""
    spec = specs[regime]
    names = {g: n for n, g in _letters(spec).items()}
    coeffs = ["", "3*", "-", "(1/2-i)*", "ell^-2*", "i*phi*"]
    rng = random.Random(1401)
    for _ in range(150):
        factors = []
        want = EnvElement.one()
        for _ in range(rng.randrange(2, 4)):
            word = [rng.choice(list(names)) for _ in range(rng.randrange(1, 4))]
            coeff = rng.choice(coeffs)
            factors.append(coeff + "*".join(names[g] for g in word))
            for k, g in enumerate(word):
                letter = EnvElement.monomial(
                    (g,), parse_scalar(coeff + "1") if not k else None)
                want = env_product(want, letter, spec)
        assert parse_element("*".join(factors), spec) == want, factors
