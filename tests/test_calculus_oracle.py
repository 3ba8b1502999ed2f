"""Derandomized gate: the packed derivation calculus against a reference.

The reference keeps each derivation as EnvElement images of the
generators (the full regime's bracket table scaled by s_a, the tangent
regime's printed table), applies it word by word through env_product, and
sums d(omega) term by term in EnvElement arithmetic, as the calculus did
before it ran on the packed kernel.  It shares no code with Derivation,
leibniz or exterior_derivative.
"""

import itertools
import random

import pytest
from test_kernel_digest import EXTRA_SPECS

from ncspacetime.algebra import (FORMAL_BASE, IM, IMINV, M_IDS, M_PAIRS,
                                 P_IDS, X_IDS, eta4)
from ncspacetime.diffcalc import (FULL_LABELS, PForm,
                                  derivation_commutator_coeffs,
                                  derivation_labels, derivation_set,
                                  exterior_derivative)
from ncspacetime.enveloping import (EnvElement, env_product,
                                    random_env_element)
from ncspacetime.scalars import QQi, Scalar
from ncspacetime.specfile import load_specfile


def reference_images(spec) -> dict:
    """label -> {generator: d^label(generator)} as EnvElements."""
    if spec.regime == "full":
        out = {}
        for lab in FULL_LABELS:
            s = Scalar.param("ell", -1 if lab == IM else 0, coeff=QQi(0, -1))
            out[lab] = {g: spec.table[lab, g].scale(s)
                        for g in spec.basis if (lab, g) in spec.table}
        return out
    eps4 = spec.signature.eps4
    out = {IM: {X_IDS[mu]: EnvElement.monomial(
        (P_IDS[mu], IM), Scalar.param("ell", 1, coeff=-eps4))
        for mu in range(4)}}
    for mu in range(4):
        e = eta4(mu, mu)
        act = {X_IDS[mu]: EnvElement.generator(IM).scale(e)}
        for k, (a, b) in enumerate(M_PAIRS):
            if mu in (a, b):  # eta^{mu a} p^b - eta^{mu b} p^a
                other, sign = (b, e) if a == mu else (a, -e)
                act[M_IDS[k]] = EnvElement.generator(P_IDS[other]).scale(sign)
        out[P_IDS[mu]] = act
    return out


def reference_apply(images: dict, a: EnvElement, spec) -> EnvElement:
    out = EnvElement.zero()
    for word, s in a.terms.items():
        for k, g in enumerate(word):
            if g in images:
                left = env_product(EnvElement.monomial(word[:k], s),
                                   images[g], spec)
                out = out + env_product(
                    left, EnvElement.monomial(word[k + 1:]), spec)
    return out


def reference_d(omega: PForm, spec, images: dict) -> PForm:
    regime = spec.regime
    labels = derivation_labels(regime)
    p = omega.degree
    out = {}
    for tup in itertools.combinations(labels, p + 1):
        total = EnvElement.zero()
        for i in range(p + 1):
            rest = tup[:i] + tup[i + 1:]
            term = reference_apply(images[tup[i]], omega.value(rest), spec)
            total = total + (term if i % 2 == 0 else -term)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = tuple(t for k, t in enumerate(tup) if k not in (i, j))
                for lab, coeff in derivation_commutator_coeffs(
                        tup[i], tup[j], spec):
                    val = omega.value((lab,) + rest).scale(coeff)
                    total = total + (-val if (i + j) % 2 else val)
        out[tup] = total
    return PForm(p + 1, out)


SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
DOCS = [{"signature": {"eps4": e4, "eps5": e5}, "regime": regime}
        for e4, e5 in SIGNATURES for regime in ("full", "tangent")] \
    + list(EXTRA_SPECS)


def _element(rng, spec) -> EnvElement:
    """A random element, some words holding a formal symbol (a constant of
    the calculus) and, where the engine allows it, ImInv."""
    a = random_env_element(rng, spec, 3, 3)
    word = list(rng.choice(list(a.terms) or [()]))
    word.insert(rng.randrange(len(word) + 1), FORMAL_BASE + rng.randrange(3))
    a = a + EnvElement.monomial(word, Scalar.param("chi", rng.randrange(3)))
    if spec.engine.allow_iminv:
        a = a + EnvElement.monomial((X_IDS[rng.randrange(4)], IMINV))
    return a


@pytest.mark.parametrize("doc", DOCS, ids=lambda d: str(sorted(d.items())))
def test_packed_calculus_matches_reference(doc):
    spec = load_specfile(doc).build()
    regime = spec.regime
    rng = random.Random(f"calculus {sorted(doc.items())}")
    derivs = derivation_set(spec)
    images = reference_images(spec)
    labels = sorted(derivs)
    assert labels == sorted(images)
    for _ in range(3):
        a = _element(rng, spec)
        for lab in labels:
            assert derivs[lab].apply(a) == \
                reference_apply(images[lab], a, spec), lab
    for gid in sorted(spec.basis):
        form = PForm.zero_form(EnvElement.generator(gid))
        d1 = exterior_derivative(form, spec, derivs)
        assert d1 == reference_d(form, spec, images), gid
        assert exterior_derivative(d1, spec, derivs) == \
            reference_d(d1, spec, images), gid
    for degree in (0, 1, 2, 3):
        form = PForm(degree, {tuple(sorted(rng.sample(labels, degree))):
                              _element(rng, spec) for _ in range(3)})
        assert exterior_derivative(form, spec, derivs) == \
            reference_d(form, spec, images), degree
