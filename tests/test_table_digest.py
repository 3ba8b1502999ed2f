"""Golden digest of the bracket tables, and the table invariants.

One SHA-256 over the formatted bracket of every ordered pair of the basis,
plus im_is_central and the engine's allow_iminv, for the built-in tables
of the four signatures in every regime, so(eta6), the contracted full
table, the two documented mutated tables, a multi-term override spec and
specs with numeric parameter bindings.  The pinned value was computed
while the spec still kept its table keyed a < b with zero entries, and the
engine a second, two-orientation copy, so a change of storage that
changes any bracket fails this test.
"""

import hashlib
import itertools

import pytest

from ncspacetime.algebra import (IM, P_IDS, X_IDS, EnvElement,
                                 LieAlgebraSpec, Signature,
                                 build_deformed_algebra, build_so6_algebra,
                                 contract_tangent)
from ncspacetime.minilang import format_env
from ncspacetime.specfile import load_specfile

GOLDEN = "6bc3c2709499a6b15af9963941bcec32262d170336fed7ea93dde4719ede2b60"

SIGNATURES = tuple(Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1))

SPEC_DOCS = (
    # the two mutated tables the test suite documents
    {"signature": {"eps4": 1, "eps5": 1}, "regime": "full",
     "structure_overrides": {"[p0,x0]": "0"}},
    {"signature": {"eps4": -1, "eps5": 1}, "regime": "tangent",
     "structure_overrides": {f"[x{mu},Im]": "0" for mu in range(4)}},
    # multi-term coefficients from an override
    {"signature": {"eps4": 1, "eps5": -1}, "regime": "full",
     "structure_overrides": {"[x0,x1]": "(ell^2 + 2*phi)*M01 - i*ell*R_inv*Im",
                             "[p2,M23]": "(1/2 - i*hbar)*p3 + chi"}},
    # numeric parameter bindings; phi = 0 zeroes the [p,p] and [p,Im] entries
    {"signature": {"eps4": -1, "eps5": -1}, "regime": "full",
     "parameters": {"ell": "1/2", "phi": "-3", "R_inv": "symbolic"}},
    {"parameters": {"phi": "0"}},
)


def _specs():
    for sig in SIGNATURES:
        for regime in ("full", "tangent", "spacetime"):
            yield f"{sig} {regime}", build_deformed_algebra(sig, regime)
        yield f"{sig} spacetime+Im", build_deformed_algebra(
            sig, "spacetime", extend_im=True)
        yield f"{sig} so6", build_so6_algebra(sig)
        yield f"{sig} contracted", contract_tangent(
            build_deformed_algebra(sig, "full"))
    for k, doc in enumerate(SPEC_DOCS):
        yield f"doc {k}", load_specfile(doc).build()


def table_digest() -> str:
    lines = []
    for name, spec in _specs():
        lines.append(f"spec {name} {spec.im_is_central} "
                     f"{spec.engine.allow_iminv}")
        for a, b in itertools.product(spec.basis, repeat=2):
            lines.append(f"{a} {b} {format_env(spec.bracket_ids(a, b))}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_table_digest():
    assert table_digest() == GOLDEN


def test_table_antisymmetric_without_zeros():
    for name, spec in _specs():
        for (a, b), elem in spec.table.items():
            assert not elem.is_zero, (name, a, b)
            assert spec.table[(b, a)] == -elem, (name, a, b)


def test_one_orientation_rejected():
    sig = Signature(1, 1)
    table = {(P_IDS[0], X_IDS[0]): EnvElement.generator(IM)}
    with pytest.raises(ValueError, match="mirror"):
        LieAlgebraSpec(sig, "full", X_IDS + P_IDS + (IM,), table)
