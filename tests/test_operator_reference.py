"""Reference gate for the operator arithmetic: DiffOperator.commutator,
reps.rep_of_element and the Poly / TrigLaurent product against the naive
sum of products of tests/operator_reference.py, value by value and slot by
slot (a slot whose sum cancels must be there, as a zero coefficient).

Inputs: seeded random Poly and TrigLaurent operators (dyadic Fraction
parts, negative sine powers, cosine products that split by
c^2 = 1 - s^2), all 45 brackets of the so(3,2) contour operators for
several (sigma, parity, eps5), and all 105 brackets of the five-variable
realization on the four signatures.
"""

import random
from fractions import Fraction

import operator_reference as ref
import pytest

from ncspacetime.algebra import Signature, build_deformed_algebra
from ncspacetime.enveloping import EnvElement
from ncspacetime.expressions import DiffOperator, Poly, TrigLaurent
from ncspacetime.reps import (CONE_VARS, POLY_VARS, build_rep_5d,
                              build_rep_so32, exact_rep_so32, rep_of_element,
                              scalar_to_poly, scalar_to_trig)
from ncspacetime.scalars import QQi, Scalar

SEEDS = range(12)
RINGS = {"poly": (Poly, POLY_VARS), "trig": (TrigLaurent, CONE_VARS)}


def _part(rng):
    """0, a small integer or a dyadic fraction."""
    return rng.choice((0, rng.randint(-3, 3),
                       Fraction(rng.randint(-9, 9), 2 ** rng.randint(1, 6))))


def _key(rng, ring, width):
    if ring == "poly":
        return tuple(rng.choice((0, 0, 1, 2)) for _ in range(width))
    return tuple(x for _ in range(width)
                 for x in (rng.randint(0, 1), rng.randint(-3, 3)))


def _coeff(rng, ring):
    cls, variables = RINGS[ring]
    return cls(variables, {_key(rng, ring, len(variables)):
                           QQi(_part(rng), _part(rng))
                           for _ in range(rng.randint(0, 3))})


def _operator(rng, ring):
    cls, variables = RINGS[ring]
    slots = rng.sample(variables, rng.randint(0, len(variables)))
    return DiffOperator(variables, _coeff(rng, ring),
                        {v: _coeff(rng, ring) for v in slots})


def _terms(rep):
    return {g: ref.terms_of(op) for g, op in rep.items()}


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_product(ring, seed):
    rng = random.Random(f"mul-{ring}-{seed}")
    for _ in range(20):
        x, y = _coeff(rng, ring), _coeff(rng, ring)
        assert (x * y).terms == ref.mul(ring, x.terms, y.terms)


def test_products_split_cosine_squares():
    """c s^-1 * c s^2 = s - s^3, per angle and on two angles at once."""
    for k1, k2, count in (((1, -1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0), 2),
                          ((1, -1, 1, 0, 0, 0), (1, 2, 1, -2, 0, 0), 4)):
        x = TrigLaurent(CONE_VARS, {k1: QQi(Fraction(3, 4), -1)})
        y = TrigLaurent(CONE_VARS, {k2: QQi(2, Fraction(1, 8))})
        got = (x * y).terms
        assert got == ref.mul("trig", x.terms, y.terms)
        assert len(got) == count


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_commutators(ring, seed):
    rng = random.Random(f"commutator-{ring}-{seed}")
    variables = RINGS[ring][1]
    for _ in range(8):
        a, b = _operator(rng, ring), _operator(rng, ring)
        assert ref.terms_of(a.commutator(b)) == ref.commutator(
            ring, variables, ref.terms_of(a), ref.terms_of(b))


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_images(ring, seed):
    """Images of random degree <= 1 elements, central part included, in
    random operators; the poly scalars carry powers of ell."""
    rng = random.Random(f"image-{ring}-{seed}")
    variables = RINGS[ring][1]
    rep = {g: _operator(rng, ring) for g in range(5)}
    coeff, scalar = ((scalar_to_poly, ref.poly_scalar(variables))
                     if ring == "poly" else
                     (scalar_to_trig, ref.trig_scalar(variables)))
    for _ in range(8):
        terms = {}
        for word in rng.sample([()] + [(g,) for g in rep], rng.randint(1, 4)):
            s = Scalar.of(QQi(_part(rng), _part(rng)) or QQi(1))
            if ring == "poly" and rng.random() < 0.5:
                s = s * Scalar.param("ell", rng.randint(1, 2))
            terms[word] = s
        elem = EnvElement(terms)
        assert ref.terms_of(rep_of_element(elem, rep, coeff)) == ref.image(
            ring, elem, _terms(rep), scalar)


def _check_every_pair(ring, rep, target, coeff, scalar):
    variables = next(iter(rep.values())).vars
    plain = _terms(rep)
    ids = sorted(target.basis)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            assert ref.terms_of(rep[a].commutator(rep[b])) == ref.commutator(
                ring, variables, plain[a], plain[b]), (a, b)
            elem = target.bracket_ids(a, b)
            assert ref.terms_of(rep_of_element(elem, rep, coeff)) == \
                ref.image(ring, elem, plain, scalar), (a, b)


@pytest.mark.parametrize("sigma, parity, eps5", [
    (0.37, 0, 1), (-0.8, 1, -1), (1.3, 1, 1), (-2.5, 0, -1)])
def test_so32_every_pair(sigma, parity, eps5):
    rep = exact_rep_so32(build_rep_so32(sigma, parity))
    target = build_deformed_algebra(Signature(1, eps5), "spacetime")
    _check_every_pair("trig", rep, target, scalar_to_trig,
                      ref.trig_scalar(CONE_VARS))


@pytest.mark.parametrize("eps4, eps5", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_rep_5d_every_pair(eps4, eps5):
    sig = Signature(eps4, eps5)
    _check_every_pair("poly", build_rep_5d(sig),
                      build_deformed_algebra(sig, "tangent"), scalar_to_poly,
                      ref.poly_scalar(POLY_VARS))
