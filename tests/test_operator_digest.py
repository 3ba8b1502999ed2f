"""Golden digest of the differential-operator layer.

One SHA-256 over:

* the 105 commutators of the exact five-variable representation and the
  operators ``rep_of_element`` builds for their table brackets, for all
  four signatures, printed coefficient by coefficient;
* ``check_rep_exact`` on the same four representations;
* the sampled so(3,2) residuals of ``verify_relations`` (``float.hex``,
  so bitwise) for four seeded sigma/parity/seed sets.

The pinned value was computed before ``DiffOperator`` dispatched on a
coefficient protocol, so any change of an operator, of a residual bit or of
which first-order slots an operator carries fails this test.
"""

import hashlib

from ncspacetime.algebra import Signature, build_deformed_algebra
from ncspacetime.reps import (build_rep_5d, build_rep_so32, check_rep_exact,
                              make_sample_points, make_test_functions,
                              rep_of_element, verify_relations)

GOLDEN = "3f2eb18729fe5b1272091f1df3012bbbd2b9ff99eeb472608c4506ccfb954080"

SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# (sigma, parity, eps5 of the target, seed)
SAMPLED_SETS = ((1.0, 0, 1, 7), (-2.5, 1, -1, 11), (0.5, 0, -1, 23),
                (3.25, 1, 1, 101))


def _format_op(op) -> str:
    firsts = "; ".join(f"{v}: {op.firsts[v]!r}" for v in sorted(op.firsts))
    return f"{op.zeroth!r} | {firsts}"


def _lines():
    for eps4, eps5 in SIGNATURES:
        sig = Signature(eps4, eps5)
        rep = build_rep_5d(sig)
        target = build_deformed_algebra(sig, "tangent")
        yield f"rep5d {eps4} {eps5}"
        ids = sorted(target.basis)
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1:]:
                yield f"[{a},{b}] {_format_op(rep[a].commutator(rep[b]))}"
                rhs = rep_of_element(target.bracket_ids(a, b), rep)
                yield f"rhs {_format_op(rhs)}"
        yield f"exact {check_rep_exact(rep, target)}"
    for sigma, parity, eps5, seed in SAMPLED_SETS:
        rep = build_rep_so32(sigma, parity)
        target = build_deformed_algebra(Signature(1, eps5), "spacetime")
        residuals = verify_relations(rep, target,
                                     make_sample_points(seed, 40),
                                     make_test_functions(seed))
        yield f"so32 {sigma} {parity} {eps5} {seed}"
        for pair in sorted(residuals):
            yield f"{pair} {residuals[pair].hex()}"


def operator_digest() -> str:
    text = "\n".join(_lines())
    return hashlib.sha256(text.encode()).hexdigest()


def test_operator_digest():
    assert operator_digest() == GOLDEN


if __name__ == "__main__":
    print(operator_digest())
