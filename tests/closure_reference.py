"""Exact reference for clifford.closure_report, rebuilt from the definitions.

Each row is recomputed one match at a time, with no sharing between rows:
the coefficient of family G in [A, B] is c_A c_B (-2i) s_G / c_G, with c_F
from family_terms and s_G the coefficient of M^G in [M^A, M^B] in the
so(eta6) bracket table; a family with a zero prefactor is out of the span,
and the residual is sqrt(sum_out |s_G|^2 / sum_all |s_G|^2) over the terms
of the bracket.

CELL_DOCS is the grid of spec documents that the reference gate and the
golden report digest share.
"""

import math
from fractions import Fraction

from ncspacetime.algebra import MAB_PAIRS, build_so6_algebra
from ncspacetime.clifford import FAMILY_NAMES, family_terms
from ncspacetime.scalars import QQi

SIGNATURES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# (N, chi, phi_cell, finkelstein fields beyond these three)
CELLS = (
    # on the locus chi*phi_cell*(N-1) = 1/2, from two cells to fifty
    (2, "1/2", "1", {}), (3, "1/2", "1/2", {}), (4, "1/2", "1/3", {}),
    (7, "1/2", "1/6", {}), (50, "1/2", "1/49", {}),
    # the rest of the cell workload's on-locus values
    (3, "1", "1/4", {}), (3, "1/4", "1", {}), (3, "2", "1/8", {}),
    (3, "1/2*i", "-1/2*i", {}),
    (2, "1", "1/2", {}), (2, "1/4", "2", {}), (2, "2", "1/4", {}),
    (2, "1/2*i", "-i", {}),
    # the cell workload's off-locus values
    (2, "1/2", "1/2", {}), (2, "1", "1", {}), (2, "1/4", "1/4", {}),
    (2, "3", "1/2", {}),
    # Gaussian-rational prefactors, and hbar = 3
    (2, "1+i", "1/4-1/4*i", {}), (2, "1", "3/2", {"hbar": 3}),
    # a zero prefactor drops a class out of the span
    (3, "0", "1/2", {"enforce_constraint": False}),
    (3, "1/2", "0", {"enforce_constraint": False}),
    # phi_cell = i/2 is the M prefactor; at N = 3 with chi = -i/2 all four
    # classes share the value i/2
    (2, "-i", "1/2*i", {}), (3, "-1/2*i", "1/2*i", {}),
)


def cell_doc(sig, cell) -> dict:
    n, chi, phi, extra = cell
    return {"signature": {"eps4": sig[0], "eps5": sig[1]},
            "finkelstein": {"n_cells": n, "chi": chi, "phi_cell": phi,
                            **extra}}


CELL_DOCS = tuple(cell_doc(sig, cell) for sig in SIGNATURES for cell in CELLS)


def reference_rows(params, sig) -> list:
    """closure_report's rows, one coefficient per match."""
    terms = family_terms(params)
    table = build_so6_algebra(sig).table
    index = {MAB_PAIRS.index((a, b)): name for name, (a, b, _c) in terms.items()}
    rows = []
    for i, name_a in enumerate(FAMILY_NAMES):
        a, b, c_a = terms[name_a]
        for name_b in FAMILY_NAMES[i + 1:]:
            c, d, c_b = terms[name_b]
            bracket = table.get((MAB_PAIRS.index((a, b)),
                                 MAB_PAIRS.index((c, d))))
            matches, residual = [], 0.0
            if bracket is not None and not (c_a * c_b).is_zero:
                out = total = Fraction(0)
                for (gid,), coeff in sorted(
                        bracket.terms.items(),
                        key=lambda kv: FAMILY_NAMES.index(index[kv[0][0]])):
                    name_g = index[gid]
                    s = coeff.constant_value()
                    norm = s.re ** 2 + s.im ** 2
                    total += norm
                    c_g = terms[name_g][2]
                    if c_g.is_zero:
                        out += norm
                    else:
                        matches.append((name_g,
                                        c_a * c_b * QQi(0, -2) * s / c_g))
                residual = math.sqrt(out / total)
            rows.append((name_a, name_b, matches, residual))
    return rows
