"""Golden digest of normal-ordering results.

One SHA-256 over the formatted products, commutators, ad_generator results
and Casimirs of a fixed seeded set: four signatures in both regimes, the two
documented mutated tables, a spec with a multi-term structure override and a
spec with numeric parameter bindings.  The pinned value was computed with
the recursive Scalar-valued kernel that preceded the packed one, so any
change of a printed result fails this test.
"""

import hashlib
import random

from ncspacetime.algebra import IM, IMINV, P_IDS, X_IDS
from ncspacetime.enveloping import (EnvElement, ad_generator, casimir,
                                    env_commutator, env_product,
                                    random_env_element)
from ncspacetime.minilang import format_env
from ncspacetime.scalars import Scalar
from ncspacetime.specfile import load_specfile

GOLDEN = "843ecba8cfdf76e91ef8bd915b5a22262a7594a6b4eef819260fa8f14cbf03d6"

SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

EXTRA_SPECS = (
    # the two mutated tables the test suite documents
    {"signature": {"eps4": 1, "eps5": 1}, "regime": "full",
     "structure_overrides": {"[p0,x0]": "0"}},
    {"signature": {"eps4": -1, "eps5": 1}, "regime": "tangent",
     "structure_overrides": {f"[x{mu},Im]": "0" for mu in range(4)}},
    # multi-term coefficients from an override
    {"signature": {"eps4": 1, "eps5": -1}, "regime": "full",
     "structure_overrides": {"[x0,x1]": "(ell^2 + 2*phi)*M01 - i*ell*R_inv*Im",
                             "[p2,M23]": "(1/2 - i*hbar)*p3 + chi"}},
    # numeric parameter bindings
    {"signature": {"eps4": -1, "eps5": -1}, "regime": "full",
     "parameters": {"ell": "1/2", "phi": "-3", "R_inv": "symbolic"}},
)


def _specs():
    for eps4, eps5 in SIGNATURES:
        for regime in ("full", "tangent"):
            yield load_specfile({"signature": {"eps4": eps4, "eps5": eps5},
                                 "regime": regime})
    for doc in EXTRA_SPECS:
        yield load_specfile(doc)


def _lines():
    rng = random.Random(20261018)
    for sf in _specs():
        spec = sf.build()
        regime = spec.regime
        yield f"spec {sf.signature.eps4} {sf.signature.eps5} {regime}"
        for _ in range(6):
            a = random_env_element(rng, spec, 3, 3)
            b = random_env_element(rng, spec, 3, 3)
            yield format_env(env_product(a, b, spec), regime)
            yield format_env(env_commutator(a, b, spec), regime)
            gid = rng.choice(spec.basis)
            yield format_env(ad_generator(gid, a, spec), regime)
        if regime == "tangent":
            inv = EnvElement.monomial((IMINV,) * 2, Scalar.param("ell", -1))
            x = EnvElement.monomial((X_IDS[0], X_IDS[1], P_IDS[2], IM))
            yield format_env(env_product(inv, x, spec), regime)
            yield format_env(env_commutator(x, inv, spec), regime)
        for kind in ("C1", "C2", "C3"):
            yield format_env(casimir(kind, spec), regime)


def kernel_digest() -> str:
    text = "\n".join(_lines())
    return hashlib.sha256(text.encode()).hexdigest()


def test_kernel_digest():
    assert kernel_digest() == GOLDEN


if __name__ == "__main__":
    print(kernel_digest())
