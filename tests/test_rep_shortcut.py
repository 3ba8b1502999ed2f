"""check_rep_exact decides its brackets through algebra.sweep: the pairs
on the target's generating set first, every pair only when one of those
fails or the target has no generating set.  The verdict must be the one a
plain loop over every pair gives, for single-operator faults on seed and
non-seed operators alike, and each pair is decided at most once per call.
"""

import dataclasses
import random
from collections import Counter

import pytest

from ncspacetime.algebra import (IM, X_IDS, EnvElement, Signature,
                                 build_deformed_algebra, generating_set,
                                 jacobi_defect, set_bracket)
from ncspacetime.expressions import DiffOperator
from ncspacetime.reps import (build_rep_5d, build_rep_so32, check_rep_exact,
                              exact_rep_so32, rep_of_element, scalar_to_poly,
                              scalar_to_trig)

from test_reps import flip_m20_phi1

ALL_SIGS = [Signature(e4, e5) for e4 in (1, -1) for e5 in (1, -1)]


def naive_failures(rep, target, coeff) -> list:
    """Every pair (a, b), a < b, decided on its own, in id order."""
    ids = sorted(target.basis)
    return [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
            if not rep[a].commutator(rep[b]) == rep_of_element(
                target.bracket_ids(a, b), rep, coeff)]


def _rep5d(sig):
    return (build_rep_5d(sig), build_deformed_algebra(sig, "tangent"),
            scalar_to_poly)


def _so32(sig):
    return (exact_rep_so32(build_rep_so32(0.37, 0)),
            build_deformed_algebra(Signature(1, sig.eps5), "spacetime"),
            scalar_to_trig)


def scaled(op, rng):
    return op.scale(rng.choice((2, -1, 3)))


def shifted(op, rng):
    return DiffOperator(op.vars, op.zeroth + rng.choice((1, -2, 5)),
                        op.firsts)


def negated_slot(op, rng):
    v = rng.choice(sorted(op.firsts))
    return DiffOperator(op.vars, op.zeroth,
                        {**op.firsts, v: -op.firsts[v]})


FAULTS = (scaled, shifted, negated_slot)


def fault_cases(make, seed):
    """One fault on each operator, the kind and the signature drawn from
    a fixed seed: (gid, fault name, rep, target, coeff)."""
    rng = random.Random(seed)
    sig = rng.choice(ALL_SIGS)
    rep, target, coeff = make(sig)
    for gid in sorted(target.basis):
        fault = rng.choice(FAULTS)
        yield (gid, fault.__name__, {**rep, gid: fault(rep[gid], rng)},
               target, coeff)


@pytest.mark.parametrize("make, seed", [(_rep5d, 1), (_rep5d, 2),
                                        (_so32, 3), (_so32, 4)],
                         ids=["5d-1", "5d-2", "so32-3", "so32-4"])
def test_faults_get_the_all_pairs_verdict(make, seed):
    kinds, failing = Counter(), Counter()
    for gid, name, rep, target, coeff in fault_cases(make, seed):
        seeds = generating_set(target)
        want = naive_failures(rep, target, coeff)
        assert check_rep_exact(rep, target, coeff) == want, (gid, name)
        on_seed = "seed" if gid in seeds else "non-seed"
        kinds[on_seed] += 1
        failing[on_seed] += bool(want)
    assert kinds["non-seed"] >= kinds["seed"] > 0
    # the gate is not vacuous: faults on non-seed operators are caught
    assert failing["non-seed"] > 0 and failing["seed"] > 0


def counted_pairs(monkeypatch, rep):
    """Counter of the unordered generator pairs whose commutator runs."""
    gid_of = {id(op): gid for gid, op in rep.items()}
    pairs, commutator = Counter(), DiffOperator.commutator

    def counted(self, other):
        pairs[tuple(sorted((gid_of[id(self)], gid_of[id(other)])))] += 1
        return commutator(self, other)

    monkeypatch.setattr(DiffOperator, "commutator", counted)
    return pairs


def test_a_target_failing_jacobi_decides_every_pair_once(monkeypatch):
    rep, spec, coeff = _rep5d(Signature(1, 1))
    table = dict(spec.table)
    set_bracket(table, X_IDS[0], IM, EnvElement.zero())
    target = dataclasses.replace(spec, table=table)
    assert jacobi_defect(target) and generating_set(target) is None
    want = naive_failures(rep, target, coeff)
    pairs = counted_pairs(monkeypatch, rep)
    assert check_rep_exact(rep, target, coeff) == want
    assert (X_IDS[0], IM) in want
    assert len(pairs) == 105 and set(pairs.values()) == {1}


def test_a_failing_seed_pair_decides_every_pair_once(monkeypatch):
    rep = build_rep_so32(0.37, 0)
    flip_m20_phi1(rep)
    rep = exact_rep_so32(rep)
    target = build_deformed_algebra(Signature(1, 1), "spacetime")
    want = naive_failures(rep, target, scalar_to_trig)
    pairs = counted_pairs(monkeypatch, rep)
    assert check_rep_exact(rep, target, scalar_to_trig) == want
    assert len(want) == 11
    assert len(pairs) == 45 and set(pairs.values()) == {1}
