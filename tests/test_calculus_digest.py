"""Golden digest of the derivation calculus.

One SHA-256 over the printed results of a fixed seeded set:

* the `ncst diff` report of every generator, for the four signatures in
  the full and tangent regimes;
* per spec (those eight, plus test_kernel_digest's four EXTRA_SPECS: both
  documented mutated tables, a multi-term override and numeric bindings):
  d(g) and d(d(g)) of every generator, the exterior derivative of seeded
  random 1-forms and 2-forms, a Lie derivative, and every derivation
  applied to a seeded random element;
* curvature_commutator and field_strength of Connection.formal, whose
  formal letters are constants of the calculus.

The pinned value was computed with the calculus that scaled a Scalar copy
of the bracket table into EnvElement actions and summed d(omega) term by
term, so any change of a printed result fails this test.
"""

import argparse
import hashlib
import itertools
import random

from test_kernel_digest import EXTRA_SPECS

from ncspacetime.algebra import P_IDS, X_IDS
from ncspacetime.cli import cmd_diff
from ncspacetime.connections import (Connection, curvature_commutator,
                                     field_strength)
from ncspacetime.diffcalc import (PForm, derivation_set,
                                  differential_of_generator,
                                  exterior_derivative, lie_derivative)
from ncspacetime.enveloping import EnvElement, random_env_element
from ncspacetime.minilang import format_env
from ncspacetime.specfile import load_specfile

GOLDEN = "a99bea99f22e2b48dfd64f65a2ca3bb269a1e2ff79f884e3da2bff3b74262f73"

SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _clean_docs():
    for eps4, eps5 in SIGNATURES:
        for regime in ("full", "tangent"):
            yield {"signature": {"eps4": eps4, "eps5": eps5},
                   "regime": regime}


def _form_lines(form: PForm, regime: str):
    yield f"degree {form.degree}"
    for labels, val in sorted(form.comps.items()):
        yield f"{labels} {format_env(val, regime)}"


def _random_form(rng, spec, labels, degree: int, n_comps: int) -> PForm:
    comps = {}
    for _ in range(n_comps):
        tup = tuple(sorted(rng.sample(labels, degree)))
        comps[tup] = random_env_element(rng, spec, 2, 2)
    return PForm(degree, comps)


def _spec_lines(spec, rng):
    regime = spec.regime
    derivs = derivation_set(spec)
    labels = sorted(derivs)
    for gid in sorted(spec.basis):
        d1 = differential_of_generator(gid, spec, derivs)
        yield from _form_lines(d1, regime)
        yield from _form_lines(
            exterior_derivative(d1, spec, derivs), regime)
    for degree in (1, 2):
        form = _random_form(rng, spec, labels, degree, 3)
        yield from _form_lines(
            exterior_derivative(form, spec, derivs), regime)
    form = _random_form(rng, spec, labels, 1, 2)
    yield from _form_lines(
        lie_derivative(form, rng.choice(labels), spec, derivs),
        regime)
    a = random_env_element(rng, spec, 3, 3)
    for lab in labels:
        yield format_env(derivs[lab].apply(a), regime)


def _connection_lines(spec):
    regime = spec.regime
    conn = Connection.formal(spec)
    x = EnvElement.generator(X_IDS[1])
    for alpha, beta in itertools.combinations(sorted(conn.components), 2):
        yield format_env(field_strength(conn, alpha, beta), regime)
        if alpha in P_IDS and beta in P_IDS:
            yield format_env(curvature_commutator(conn, x, alpha, beta),
                             regime)


def _lines():
    rng = random.Random(20261019)
    for doc in _clean_docs():
        sf = load_specfile(doc)
        spec = sf.build()
        yield f"spec {doc}"
        for name in sorted(spec.gen_ids()):
            args = argparse.Namespace(generator=name, seed=None)
            yield cmd_diff(sf, args).dumps()
        yield from _spec_lines(spec, rng)
    for doc in EXTRA_SPECS:
        yield f"spec {doc}"
        yield from _spec_lines(load_specfile(doc).build(), rng)
    for eps4, eps5 in SIGNATURES[:2]:
        for regime in ("full", "tangent"):
            spec = load_specfile({"signature": {"eps4": eps4, "eps5": eps5},
                                  "regime": regime}).build()
            yield f"connection {eps4} {eps5} {regime}"
            yield from _connection_lines(spec)


def calculus_digest() -> str:
    text = "\n".join(_lines())
    return hashlib.sha256(text.encode()).hexdigest()


def test_calculus_digest():
    assert calculus_digest() == GOLDEN


if __name__ == "__main__":
    print(calculus_digest())
