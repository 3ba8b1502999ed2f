"""Derandomized differential gate: the rewrite kernel against the naive
reference in kernel_reference.py.

Random words up to length about 10 over the full, tangent (with ImInv) and
spacetime regimes of all four signatures, with formal symbols, on both
documented mutated tables and on random override specs built through
SpecFile.build.  On a table that violates Jacobi the leftmost rule is the
contract, so env_product and env_commutator must match the reference
exactly there too, and ad_generator must match the reference's
letter-by-letter Leibniz rule.
"""

import pytest
from kernel_reference import ad, commutator, normal_form, product
from test_kernel_digest import EXTRA_SPECS

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncspacetime.algebra import (FORMAL_BASE, IM, IMINV,  # noqa: E402
                                 EnvElement)
from ncspacetime.enveloping import (ad_generator, env_commutator,  # noqa: E402
                                    env_product)
from ncspacetime.scalars import QQi, Scalar  # noqa: E402
from ncspacetime.specfile import load_specfile  # noqa: E402

SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
CLEAN = tuple({"signature": {"eps4": e4, "eps5": e5}, "regime": regime}
              for e4, e5 in SIGNATURES
              for regime in ("full", "tangent", "spacetime"))
MUTATED = EXTRA_SPECS[:2]
FORMALS = (FORMAL_BASE, FORMAL_BASE + 1)


def gate(examples: int):
    """Derandomized settings.  No shrink phase: the reference is
    exponential in word length, and shrinking a failure drawn over words
    of length 10 took minutes, so a failing example is reported as drawn."""
    return settings(max_examples=examples, deadline=None, derandomize=True,
                    phases=(Phase.explicit, Phase.generate))


def letters(spec) -> list:
    """The letters of spec's words.  Where ImInv is a letter, it and Im
    are drawn about as often as the other fifteen together, so that words
    with ImInv next to Im or to an x are common."""
    out = list(spec.basis)
    if spec.engine.allow_iminv:
        out += [IMINV, IM] * 8
    return out


@st.composite
def coefficients(draw):
    q = QQi(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    name = draw(st.sampled_from(("ell", "R_inv", "phi", None)))
    s = Scalar.of(q)
    return s * Scalar.param(name, draw(st.integers(-2, 2))) if name else s


@st.composite
def elements(draw, alphabet, max_len=5, max_terms=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        word = tuple(draw(st.lists(st.sampled_from(alphabet),
                                   max_size=max_len)))
        terms[word] = draw(coefficients())
    return EnvElement(terms)


@st.composite
def override_docs(draw):
    """A random override spec: one to three brackets replaced by random
    degree <= 1 elements of the regime's basis."""
    doc = dict(draw(st.sampled_from(CLEAN)))
    spec = load_specfile(doc).build()
    names = [spec.gen_name(g) for g in spec.basis]
    overrides = {}
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2,
                             unique=True))
        value = " + ".join(
            f"({draw(st.integers(-2, 2))}{draw(st.integers(-2, 2)):+d}*i)"
            + f"*{draw(st.sampled_from(names + ['ell', '1']))}"
            for _ in range(draw(st.integers(1, 2))))
        overrides[f"[{a},{b}]"] = value
    doc["structure_overrides"] = overrides
    return doc


def spec_id(doc) -> str:
    sig = doc["signature"]
    tag = "-mutated" if "structure_overrides" in doc else ""
    return f"{sig['eps4']:+d}{sig['eps5']:+d}-{doc['regime']}{tag}"


def check_products(spec, data):
    alphabet = letters(spec) + list(FORMALS)
    a = data.draw(elements(alphabet))
    b = data.draw(elements(alphabet))
    assert env_product(a, b, spec) == product(a, b, spec)
    assert env_commutator(a, b, spec) == commutator(a, b, spec)


def check_ad(spec, data):
    alphabet = letters(spec)
    g = data.draw(st.sampled_from(alphabet))
    a = data.draw(elements(alphabet, max_len=8))
    assert ad_generator(g, a, spec) == ad(g, a, spec)


@pytest.mark.parametrize("doc", CLEAN + MUTATED, ids=spec_id)
@gate(8)
@given(data=st.data())
def test_products_match_reference(doc, data):
    check_products(load_specfile(doc).build(), data)


@pytest.mark.parametrize("doc", CLEAN + MUTATED, ids=spec_id)
@gate(6)
@given(data=st.data())
def test_ad_generator_matches_reference(doc, data):
    check_ad(load_specfile(doc).build(), data)


@gate(40)
@given(doc=override_docs(), data=st.data())
def test_override_specs_match_reference(doc, data):
    spec = load_specfile(doc).build()
    check_products(spec, data)
    check_ad(spec, data)


@pytest.mark.parametrize("doc", CLEAN + MUTATED, ids=spec_id)
@gate(2)
@given(data=st.data())
def test_single_words_up_to_length_ten(doc, data):
    spec = load_specfile(doc).build()
    word = tuple(data.draw(st.lists(st.sampled_from(letters(spec)),
                                    min_size=8, max_size=10)))
    assert env_product(EnvElement.monomial(word), EnvElement.one(), spec) \
        == normal_form(word, spec=spec)
