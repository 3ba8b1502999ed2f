"""Gamma-matrix machinery: Clifford bases, Dirac operators and the N-cell
world-line construction.

The 4x4 sector provides the five-gamma bases of C(3,2) and C(4,1) (the
fifth gamma is gamma5 or i*gamma5 depending on eps4) and the 15-element set
{gamma^mu, i^{(1-eps4)/2} gamma5, gamma^{mu nu}, gamma^mu gamma5} that pairs
with the fifteen derivations to form the Dirac operator D = i Gamma_a d^a.

The cell sector realizes the space-time operators as sums of second-order
elements over N Clifford cells: each cell carries a six-generator Clifford
algebra on an 8-dimensional spinor factor (metric eta6).  With the
first-order generators embedded along a Jordan-Wigner chirality chain,
different cells anticommute (the test suite checks this), and the even
bilinears gamma^{ab}(n) live on single tensor factors.  Each family
operator is c_F * sum_n gamma^{ab}(n) (family_terms).  Even elements on
different cells commute, and the fifteen cell bilinears realize so(eta6),
so closure_report reads the whole closure table off the so(eta6) bracket
table in exact arithmetic, with no matrices, at any N in constant time and
memory.  The fifteen prefactors take four values, one per class (x, p, M,
Im), and every so(eta6) constant is +-i, so one call divides once per
class triple and computes each of its twelve distinct coefficients once.
finkelstein_operators builds the dense 8^N x 8^N operators as the numeric
oracle, for N <= 3 only; numpy is imported only there.

d_form_via_D(a, spec, basis) reads the regime from the spec and pairs the
Dirac weights with the labels of the derivation set it applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GEN_NAMES, IM, M_IDS, M_PAIRS, MAB_PAIRS, P_IDS, \
    X_IDS, LieAlgebraSpec, Signature, build_so6_algebra, eta4
from .diffcalc import derivation_labels, derivation_set
from .enveloping import EnvElement
from .scalars import QQI_I, QQi

class ConstraintViolation(ValueError):
    pass


# -- exact small matrices ---------------------------------------------------

def qmat(rows):
    return tuple(tuple(x if isinstance(x, QQi) else QQi(x) for x in row)
                 for row in rows)


def qmat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = QQi(0)
            for t in range(k):
                if a[i][t] and b[t][j]:
                    acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def qmat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def qmat_scale(a, s):
    s = s if isinstance(s, QQi) else QQi(s)
    return tuple(tuple(s * x for x in row) for row in a)


def qmat_eye(n):
    return tuple(tuple(QQi(1 if i == j else 0) for j in range(n))
                 for i in range(n))


def qmat_anticommutator(a, b):
    return qmat_add(qmat_mul(a, b), qmat_mul(b, a))


def qmat_commutator(a, b):
    return qmat_add(qmat_mul(a, b), qmat_scale(qmat_mul(b, a), -1))


def qmat_kron(a, b):
    na, nb = len(a), len(b)
    out = []
    for i in range(na):
        for k in range(nb):
            row = []
            for j in range(na):
                for l in range(nb):
                    row.append(a[i][j] * b[k][l])
            out.append(tuple(row))
    return tuple(out)


_I = QQI_I
PAULI1 = qmat([[0, 1], [1, 0]])
PAULI2 = qmat([[0, -_I], [_I, 0]])
PAULI3 = qmat([[1, 0], [0, -1]])
ID2 = qmat_eye(2)

# Dirac basis: gamma0 = diag(1,1,-1,-1), gamma^k antidiagonal in Pauli blocks.
GAMMA0 = qmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])


def _dirac_spatial(pauli):
    z = QQi(0)
    out = [[z] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            out[i][2 + j] = pauli[i][j]
            out[2 + i][j] = -pauli[i][j]
    return tuple(tuple(row) for row in out)


GAMMA1 = _dirac_spatial(PAULI1)
GAMMA2 = _dirac_spatial(PAULI2)
GAMMA3 = _dirac_spatial(PAULI3)
GAMMA5 = qmat_scale(qmat_mul(qmat_mul(GAMMA0, GAMMA1),
                             qmat_mul(GAMMA2, GAMMA3)), _I)

GAMMA_KINDS = ("C31", "C32", "C41")


@dataclass
class GammaBasis:
    """Four (or five) anticommuting gammas with exact entries."""

    kind: str
    gammas: tuple          # gamma^0..gamma^3 [, gamma^4]
    gamma5: tuple
    eta: tuple[int, ...]   # metric values matching the gamma list

    @property
    def eps4(self) -> int:
        if self.kind == "C32":
            return 1
        if self.kind == "C41":
            return -1
        raise ValueError("the four-gamma basis has no fifth axis")


def gamma_basis(kind: str) -> GammaBasis:
    """C31: the 4d basis; C32/C41: add gamma^4 = gamma5 or i*gamma5."""
    if kind not in GAMMA_KINDS:
        raise ValueError(f"unknown gamma basis kind {kind!r}")
    base = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)
    if kind == "C31":
        return GammaBasis(kind, base, GAMMA5, (1, -1, -1, -1))
    if kind == "C32":
        return GammaBasis(kind, base + (GAMMA5,), GAMMA5, (1, -1, -1, -1, 1))
    g4 = qmat_scale(GAMMA5, _I)
    return GammaBasis(kind, base + (g4,), GAMMA5, (1, -1, -1, -1, -1))


def gamma_basis_for(sig: Signature) -> GammaBasis:
    return gamma_basis("C32" if sig.eps4 == 1 else "C41")


def gamma_set_15(basis: GammaBasis) -> dict[int, tuple]:
    """The 15 matrices paired with the full derivation labels.

    d^mu <-> gamma^mu, d^4 <-> i^{(1-eps4)/2} gamma5,
    d^{mu nu} <-> (1/2)[gamma^mu, gamma^nu], d^{x_mu} <-> gamma^mu gamma5.
    """
    eps4 = basis.eps4
    g = basis.gammas
    out: dict[int, tuple] = {}
    for mu in range(4):
        out[P_IDS[mu]] = g[mu]
    g5w = basis.gamma5 if eps4 == 1 else qmat_scale(basis.gamma5, _I)
    out[IM] = g5w
    for k, (mu, nu) in enumerate(M_PAIRS):
        out[M_IDS[k]] = qmat_scale(qmat_commutator(g[mu], g[nu]), Fraction(1, 2))
    for mu in range(4):
        out[X_IDS[mu]] = qmat_mul(g[mu], basis.gamma5)
    return out


def lowered_gamma(label: int, basis: GammaBasis) -> tuple:
    """Index-lowered weight Gamma_a for the Dirac pairing i Gamma_a d^a."""
    mats = gamma_set_15(basis)
    if label in P_IDS:
        mu = label - P_IDS[0]
        return qmat_scale(mats[label], eta4(mu, mu))
    if label == IM:
        return qmat_scale(mats[label], basis.eps4)
    if label in M_IDS:
        mu, nu = M_PAIRS[label - M_IDS[0]]
        return qmat_scale(mats[label], eta4(mu, mu) * eta4(nu, nu))
    mu = label  # x-type labels already carry a lower index
    return qmat_scale(mats[label], eta4(mu, mu))


@dataclass
class DiracOperator:
    """Formal sum of (matrix weight, derivation) pairs: D = i Gamma_a d^a."""

    regime: str
    terms: dict[int, tuple]  # label -> exact 4x4 weight (includes the i)

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def dirac_operator(regime: str, basis: GammaBasis) -> DiracOperator:
    labels = derivation_labels(regime)
    terms = {lab: qmat_scale(lowered_gamma(lab, basis), _I) for lab in labels}
    return DiracOperator(regime, terms)


def d_form_via_D(a: EnvElement, spec: LieAlgebraSpec, basis: GammaBasis,
                 derivs=None):
    """[D, a] as matrix-weighted one-form components: label -> (Gamma, i*d^a(a)).

    Multiplication operators commute with the constant matrix weights, so
    the commutator reduces to i Gamma_a d^a(a); the derivation action is
    computed directly so the result can be compared against the exterior
    derivative as an independent route.
    """
    if derivs is None:
        derivs = derivation_set(spec)
    op = dirac_operator(spec.regime, basis)
    return {lab: (op.terms[lab], d.apply(a)) for lab, d in derivs.items()}


# -- N-cell construction ----------------------------------------------------

def cl6_generators(sig: Signature) -> tuple:
    """Six exact 8x8 generators with {G^a, G^b} = 2 eta6^{ab}."""
    euclid = []
    for j in range(3):
        for p in (PAULI1, PAULI2):
            factors = [PAULI3] * j + [p] + [ID2] * (2 - j)
            m = factors[0]
            for f in factors[1:]:
                m = qmat_kron(m, f)
            euclid.append(m)
    eta = sig.eta6
    return tuple(m if eta[a] == 1 else qmat_scale(m, _I)
                 for a, m in enumerate(euclid))


@dataclass
class FinkelsteinParams:
    """Cell count and the two simplifier parameters of the construction.
    The defaults satisfy the constraint chi*phi_cell*(N-1) = hbar/2."""

    n_cells: int = 3
    chi: QQi = QQi(Fraction(1, 2))
    phi_cell: QQi = QQi(Fraction(1, 2))
    hbar: Fraction = Fraction(1)
    enforce_constraint: bool = True

    def __post_init__(self):
        if self.n_cells < 2:
            raise ValueError("the construction needs at least two cells")
        if not isinstance(self.chi, QQi):
            self.chi = QQi(self.chi)
        if not isinstance(self.phi_cell, QQi):
            self.phi_cell = QQi(self.phi_cell)
        self.hbar = Fraction(self.hbar)
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    def constraint_holds(self) -> bool:
        """chi * phi_cell * (N-1) = hbar/2, exactly."""
        lhs = self.chi * self.phi_cell * QQi(self.n_cells - 1)
        return lhs == QQi(Fraction(self.hbar, 2))

    def check(self) -> None:
        if self.enforce_constraint and not self.constraint_holds():
            raise ConstraintViolation(
                "chi*phi_cell*(N-1) != hbar/2 for "
                f"N={self.n_cells}, chi={self.chi!r}, phi_cell={self.phi_cell!r}")


FAMILY_NAMES = GEN_NAMES[:15]  # x0 .. x3, p0 .. p3, M01 .. M23, Im
# the prefactor class of each family (x, p, M, Im): one c_F per class
FAMILY_CLASS = (0,) * 4 + (1,) * 4 + (2,) * 6 + (3,)


def family_terms(params: FinkelsteinParams) -> dict[str, tuple]:
    """name -> (a, b, c_F): family F is c_F * sum_n gamma^{ab}(n).

    x^mu = -chi      * sum_n gamma^{mu 4}(n)
    p^mu = phi_cell  * sum_n gamma^{mu 5}(n)
    M^{mu nu} = (i/2)     * sum_n gamma^{mu nu}(n)
    Im   = (i/(N-1)) * sum_n gamma^{4 5}(n)

    with n running over cells 1..N-1 (the growing tip carries no sum term).
    The M and Im prefactors are the normalizations that make the M-sector
    bracket and, on the constraint locus, [p, x] = i hbar eta Im come out
    exactly; they are recorded in the closure report.  The fifteen families
    use the fifteen bilinears once each.
    """
    half_i = QQi(0, Fraction(1, 2))
    terms = {}
    for mu in range(4):
        terms[f"x{mu}"] = (mu, 4, -params.chi)
    for mu in range(4):
        terms[f"p{mu}"] = (mu, 5, params.phi_cell)
    for mu, nu in M_PAIRS:
        terms[f"M{mu}{nu}"] = (mu, nu, half_i)
    terms["Im"] = (4, 5, QQi(0, Fraction(1, params.n_cells - 1)))
    return terms


def finkelstein_operators(params: FinkelsteinParams, sig: Signature) -> dict:
    """Dense 8^N x 8^N numpy realizations of the families (see family_terms).

    This is the numeric oracle for closure_report.  It refuses N > 3
    (8^3 = 512) before it allocates anything.
    """
    if params.n_cells > 3:
        raise ValueError("the dense oracle builds at most 3 cells, "
                         f"not {params.n_cells}")
    import numpy as np
    params.check()
    k = params.n_cells - 1  # cells 1..N-1 carry the sum; the tip does not
    gens = cl6_generators(sig)
    out = {}
    for name, (a, b, c) in family_terms(params).items():
        # gamma^{ab} = (1/2)[G^a, G^b] on one cell (= G^a G^b)
        mat = qmat_scale(qmat_commutator(gens[a], gens[b]), Fraction(1, 2))
        m = np.array([[x.to_complex() for x in row] for row in mat])
        out[name] = c.to_complex() * sum(
            np.kron(np.kron(np.eye(8 ** n), m), np.eye(8 ** (k - n)))
            for n in range(k))
    return out


def closure_report(params: FinkelsteinParams, sig: Signature):
    """Exact closure of every family commutator onto the family span.

    Even elements on different cells commute, so
    [sum_n A(n), sum_m B(m)] = sum_n [A, B](n) and the whole table is fixed
    by one cell.  There the bilinear gamma^{ab} stands for the so(eta6)
    generator M^{ab}: [gamma^A, gamma^B] = -2i sum_G s_G gamma^G with
    s = [M^A, M^B] read from the so(eta6) bracket table, so the coefficient
    of family G in [A, B] is c_A c_B (-2i s_G) / c_G, exact in QQi.  The
    ratio c_A c_B (-2i) / c_G depends only on the classes of A, B and G, so
    each call divides once per class triple that occurs (8 on every
    signature); each coefficient is that ratio times s_G, made once per
    (classes, s_G) key (12).  Both memos die with the call, and the rows
    share the coefficient objects.

    Returns a list of rows
        (name_a, name_b, matches: list[(name, QQi)], relative_residual)
    listing the nonzero coefficients.  The residual is 0.0 when the
    commutator lies exactly in the family span.  Otherwise (a family with a
    zero prefactor drops out of the span) it is the relative Frobenius norm
    of the remainder.  The bilinears are orthogonal with equal norms under
    the trace form, so that is sqrt(sum_out |s_G|^2 / sum_all |s_G|^2) over
    the families G out of the span; the one cell gives the same ratio as the
    N-cell operators.
    """
    params.check()
    by_name = family_terms(params)
    terms = [by_name[name] for name in FAMILY_NAMES]
    so6 = build_so6_algebra(sig).table
    ids = [MAB_PAIRS.index((a, b)) for a, b, _c in terms]
    family_of = {gid: g for g, gid in enumerate(ids)}
    prefactors = [c for _a, _b, c in terms]
    nonzero = [bool(c) for c in prefactors]
    minus_2i = QQi(0, -2)
    ratios = {}  # (class of A, class of B, class of G) -> c_A c_B (-2i) / c_G
    memo = {}  # (class of A, class of B, class of G, s_G) -> coefficient
    rows = []
    for i, name_a in enumerate(FAMILY_NAMES):
        for j in range(i + 1, len(FAMILY_NAMES)):
            bracket = so6.get((ids[i], ids[j])) \
                if nonzero[i] and nonzero[j] else None
            matches = []
            residual = 0.0
            if bracket is not None:
                norm_out = norm_all = 0
                for g, s in sorted((family_of[gid], coeff.constant_value())
                                   for (gid,), coeff in bracket.terms.items()):
                    norm = s.re * s.re + s.im * s.im
                    norm_all += norm
                    if nonzero[g]:
                        triple = (FAMILY_CLASS[i], FAMILY_CLASS[j],
                                  FAMILY_CLASS[g])
                        key = triple + (s.re, s.im)
                        coeff = memo.get(key)
                        if coeff is None:
                            ratio = ratios.get(triple)
                            if ratio is None:
                                ratio = ratios[triple] = (
                                    prefactors[i] * prefactors[j] * minus_2i
                                    / prefactors[g])
                            coeff = memo[key] = ratio * s
                        matches.append((FAMILY_NAMES[g], coeff))
                    else:
                        norm_out += norm
                if norm_out:
                    residual = math.sqrt(Fraction(norm_out) / norm_all)
            rows.append((name_a, FAMILY_NAMES[j], matches, residual))
    return rows
