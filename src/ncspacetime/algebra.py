"""The deformed Poincare-Heisenberg algebra and its orthogonal realization.

Generators (15): x0..x3, p0..p3, M01..M23 (antisymmetric pairs stored with
mu < nu), Im.  Three bracket-table regimes are supported:

  full      -- noncommuting translations, [p,p] = -i*phi*M and
               [p,Im] = -i*phi*x, with phi the gravity-field parameter
               standing for eps5/R^2,
  tangent   -- the R -> infinity contraction: [p,p] = [p,Im] = 0, all
               other brackets unchanged (in particular [x,Im] stays
               i*eps4*ell^2*p; dropping it would violate Jacobi),
  spacetime -- the 10-generator subalgebra {M, X} with X = x/ell, so
               [X,X] = -i*eps4*M.

Each builder fills a plain dict with set_bracket and constructs one frozen
LieAlgebraSpec from it; a changed table is a new spec.

The independent numerical oracle is the defining 6x6 matrix representation
of the pseudo-orthogonal algebra so(eta6); identify_orthogonal carries the
generator dictionary between the two bases.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .scalars import S_I, S_MINUS_I, S_ONE, Scalar

if TYPE_CHECKING:
    from .enveloping import RewriteEngine

# Generator ids.  Canonical order for enveloping-algebra normal forms:
# x0..x3 < p0..p3 < M01..M23 < Im < ImInv.
X_IDS = (0, 1, 2, 3)
P_IDS = (4, 5, 6, 7)
M_IDS = (8, 9, 10, 11, 12, 13)
IM = 14
IMINV = 15
FORMAL_BASE = 100  # ids >= FORMAL_BASE are free formal symbols

M_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_M_OF_PAIR = {pair: M_IDS[k] for k, pair in enumerate(M_PAIRS)}

GEN_NAMES = ("x0", "x1", "x2", "x3", "p0", "p1", "p2", "p3",
             "M01", "M02", "M03", "M12", "M13", "M23", "Im", "ImInv")
ST_NAMES = ("X0", "X1", "X2", "X3", "p0", "p1", "p2", "p3",
            "M01", "M02", "M03", "M12", "M13", "M23", "Im", "ImInv")

# 6d orthogonal basis: the 15 index pairs (a,b), a < b, a,b in 0..5.
MAB_PAIRS = tuple((a, b) for a in range(6) for b in range(a + 1, 6))
_MAB_INDEX = {pair: k for k, pair in enumerate(MAB_PAIRS)}


def x_id(mu: int) -> int:
    return X_IDS[mu]


def p_id(mu: int) -> int:
    return P_IDS[mu]


def m_id(mu: int, nu: int) -> tuple[int, int]:
    """Generator id and sign for M^{mu nu}; M^{nu mu} = -M^{mu nu}."""
    if mu == nu:
        raise ValueError("M indices must differ")
    if mu < nu:
        return _M_OF_PAIR[(mu, nu)], 1
    return _M_OF_PAIR[(nu, mu)], -1


def gen_name(gid: int, regime: str = "full") -> str:
    """The name of a generator id: X for x in the spacetime regime, A<n>
    for the formal symbol FORMAL_BASE + n."""
    if gid >= FORMAL_BASE:
        return f"A{gid - FORMAL_BASE}"
    return (ST_NAMES if regime == "spacetime" else GEN_NAMES)[gid]


class UnknownGeneratorError(KeyError):
    pass


@dataclass(frozen=True)
class Signature:
    """The two sign choices of the 6-metric (1,-1,-1,-1,eps4,eps5)."""

    eps4: int = 1
    eps5: int = 1

    def __post_init__(self):
        if self.eps4 not in (1, -1) or self.eps5 not in (1, -1):
            raise ValueError("eps4 and eps5 must be +1 or -1")

    @property
    def eta6(self) -> tuple[int, ...]:
        return (1, -1, -1, -1, self.eps4, self.eps5)

    @property
    def eta4(self) -> tuple[int, ...]:
        return (1, -1, -1, -1)


def eta4(mu: int, nu: int) -> int:
    if mu != nu:
        return 0
    return 1 if mu == 0 else -1


class AlgebraElement:
    """Finite linear combination of generators plus an optional central term."""

    __slots__ = ("coeffs", "central")

    def __init__(self, coeffs=None, central=None):
        self.coeffs: dict[int, Scalar] = {}
        if coeffs:
            for gid, s in coeffs.items():
                if s:
                    self.coeffs[gid] = s
        self.central: Scalar = central if central is not None else Scalar.zero()

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def generator(cls, gid: int, coeff=None) -> "AlgebraElement":
        return cls({gid: coeff if coeff is not None else S_ONE})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.central.is_zero

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        out = dict(self.coeffs)
        for gid, s in other.coeffs.items():
            t = out.get(gid)
            t = s if t is None else t + s
            if t:
                out[gid] = t
            elif gid in out:
                del out[gid]
        return AlgebraElement(out, self.central + other.central)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        out = AlgebraElement.__new__(AlgebraElement)  # no zeros to drop
        out.coeffs = {g: -s for g, s in self.coeffs.items()}
        out.central = -self.central
        return out

    def scale(self, s) -> "AlgebraElement":
        s = s if isinstance(s, Scalar) else Scalar.of(s)
        return AlgebraElement({g: s * c for g, c in self.coeffs.items()},
                              s * self.central)

    def map_scalars(self, f) -> "AlgebraElement":
        return AlgebraElement({g: f(s) for g, s in self.coeffs.items()},
                              f(self.central))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.coeffs == other.coeffs and self.central == other.central

    def __repr__(self) -> str:
        from .minilang import format_algebra_element
        return format_algebra_element(self)


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Basis plus total antisymmetric structure-constant table, frozen.

    table maps (a, b) with a < b to [g_a, g_b] and is read-only: a builder
    fills a plain dict (set_bracket) and constructs the spec from it once.
    The rewrite engine of the enveloping algebra is made with the spec and
    holds the complete bracket table from then on (enveloping.RewriteEngine).
    """

    signature: Signature
    regime: str
    basis: tuple[int, ...]
    table: Mapping[tuple[int, int], AlgebraElement]
    engine: "RewriteEngine" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from .enveloping import RewriteEngine  # enveloping imports this module
        object.__setattr__(self, "table", MappingProxyType(dict(self.table)))
        object.__setattr__(self, "engine", RewriteEngine(self))

    def bracket_ids(self, a: int, b: int) -> AlgebraElement:
        for gid in (a, b):
            if gid not in self.basis:
                raise UnknownGeneratorError(
                    f"generator id {gid} not in {self.regime} basis")
        entry = self.engine.brackets.get((a, b))
        return entry if entry is not None else AlgebraElement.zero()

    def bracket(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        """Bilinear antisymmetric extension of the table; centrals drop out."""
        out = AlgebraElement.zero()
        for ga, sa in a.coeffs.items():
            for gb, sb in b.coeffs.items():
                out = out + self.bracket_ids(ga, gb).scale(sa * sb)
        return out

    @property
    def im_is_central(self) -> bool:
        if IM not in self.basis:
            return False
        return all(self.bracket_ids(IM, g).is_zero
                   for g in self.basis if g != IM)

    def table_equal(self, other: "LieAlgebraSpec") -> bool:
        if tuple(sorted(self.basis)) != tuple(sorted(other.basis)):
            return False
        pairs = itertools.combinations(sorted(self.basis), 2)
        return all(self.bracket_ids(a, b) == other.bracket_ids(a, b)
                   for a, b in pairs)

    def gen_name(self, gid: int) -> str:
        return gen_name(gid, self.regime)

    def gen_ids(self) -> dict[str, int]:
        """Generator name -> id over the basis."""
        return {gen_name(g, self.regime): g for g in self.basis}


def set_bracket(table: dict, a: int, b: int, elem: AlgebraElement) -> None:
    """Write [g_a, g_b] = elem into a builder's table, keyed a < b."""
    if a == b:
        raise ValueError("diagonal brackets vanish identically")
    if a < b:
        table[(a, b)] = elem
    else:
        table[(b, a)] = -elem


_I_TIMES = {1: S_I, -1: S_MINUS_I}  # i * sign, for the builders


def _gen(gid, coeff) -> AlgebraElement:
    return AlgebraElement.generator(gid, coeff)


def _m_elem(mu: int, nu: int, coeff: Scalar) -> AlgebraElement:
    if mu == nu:
        return AlgebraElement.zero()
    gid, sign = m_id(mu, nu)
    return _gen(gid, coeff if sign > 0 else -coeff)


def build_deformed_algebra(sig: Signature, regime: str,
                           extend_im: bool = False) -> LieAlgebraSpec:
    """Structure-constant table for the chosen regime.

    full/tangent: 15 generators {x, p, M, Im}.  spacetime: 10 generators
    {X, M} with X = x/ell (extend_im adjoins a central Im, the setting in
    which the formal inverse ImInv is unrestricted).  The full-regime
    translation brackets carry the central parameter phi; the tangent table
    is its phi -> 0, R_inv -> 0 substitution.
    """
    if regime not in ("full", "tangent", "spacetime"):
        raise ValueError(f"unknown regime {regime!r}")
    if extend_im and regime != "spacetime":
        raise ValueError("extend_im applies to the spacetime regime only")
    eps4 = Scalar.of(sig.eps4)
    ell2 = Scalar.param("ell", 2)
    phi = Scalar.param("phi")

    table = {}
    if regime == "spacetime":
        basis = X_IDS + M_IDS + ((IM,) if extend_im else ())
        for mu in range(4):
            for nu in range(mu + 1, 4):
                # [X^mu, X^nu] = -i*eps4*M^{mu nu}
                gid, _ = m_id(mu, nu)
                set_bracket(table, x_id(mu), x_id(nu),
                            _gen(gid, S_MINUS_I * eps4))
        _fill_lorentz_sector(table, vector_ids=[("x", x_id)])
        return LieAlgebraSpec(sig, regime, basis, table)

    _fill_lorentz_sector(table, vector_ids=[("x", x_id), ("p", p_id)])
    for mu in range(4):
        for nu in range(4):
            # [p^mu, x^nu] = i*eta^{mu nu}*Im
            e = eta4(mu, nu)
            if e:
                set_bracket(table, p_id(mu), x_id(nu),
                            _gen(IM, _I_TIMES[e]))
        for nu in range(mu + 1, 4):
            gid, _ = m_id(mu, nu)
            # [x^mu, x^nu] = -i*eps4*ell^2*M^{mu nu}
            set_bracket(table, x_id(mu), x_id(nu),
                        _gen(gid, S_MINUS_I * eps4 * ell2))
            # [p^mu, p^nu] = -i*phi*M^{mu nu}  (0 in the tangent regime)
            if regime == "full":
                set_bracket(table, p_id(mu), p_id(nu),
                            _gen(gid, S_MINUS_I * phi))
        # [x^mu, Im] = i*eps4*ell^2*p^mu  (kept in both regimes: Jacobi)
        set_bracket(table, x_id(mu), IM, _gen(p_id(mu), S_I * eps4 * ell2))
        # [p^mu, Im] = -i*phi*x^mu  (0 in the tangent regime)
        if regime == "full":
            set_bracket(table, p_id(mu), IM, _gen(x_id(mu), S_MINUS_I * phi))
    return LieAlgebraSpec(sig, regime, X_IDS + P_IDS + M_IDS + (IM,), table)


def _fill_lorentz_sector(table: dict, vector_ids) -> None:
    """[M,M] and the vector action [M, v] for each listed 4-vector family."""
    for (mu, nu) in M_PAIRS:
        a, _ = m_id(mu, nu)
        for (rho, sg) in M_PAIRS:
            b, _ = m_id(rho, sg)
            if b <= a:
                continue
            # i(M^{mu sg}eta^{nu rho} + M^{nu rho}eta^{mu sg}
            #   - M^{nu sg}eta^{mu rho} - M^{mu rho}eta^{nu sg})
            out = AlgebraElement.zero()
            for (i1, j1, k1, l1, s) in (
                    (mu, sg, nu, rho, 1), (nu, rho, mu, sg, 1),
                    (nu, sg, mu, rho, -1), (mu, rho, nu, sg, -1)):
                e = eta4(k1, l1)
                if e:
                    out = out + _m_elem(i1, j1, _I_TIMES[s * e])
            set_bracket(table, a, b, out)
        for _name, vid in vector_ids:
            for lam in range(4):
                # [M^{mu nu}, v^lam] = i(v^mu eta^{nu lam} - v^nu eta^{mu lam})
                out = AlgebraElement.zero()
                e1, e2 = eta4(nu, lam), eta4(mu, lam)
                if e1:
                    out = out + _gen(vid(mu), _I_TIMES[e1])
                if e2:
                    out = out - _gen(vid(nu), _I_TIMES[e2])
                if not out.is_zero:
                    set_bracket(table, a, vid(lam), out)


def contract_tangent(spec: LieAlgebraSpec) -> LieAlgebraSpec:
    """R -> infinity contraction: substitute R_inv -> 0 and phi -> 0."""
    if spec.regime != "full":
        raise ValueError("contraction applies to the full regime")
    table = {}
    for pair, elem in spec.table.items():
        reduced = elem.map_scalars(
            lambda s: s.set_param_zero("R_inv").set_param_zero("phi"))
        if not reduced.is_zero:
            table[pair] = reduced
    return LieAlgebraSpec(spec.signature, "tangent", spec.basis, table)


def jacobi_defect(spec: LieAlgebraSpec):
    """All basis triples with nonzero Jacobiator; empty means a Lie algebra."""
    defects = []
    for a, b, c in itertools.combinations(sorted(spec.basis), 3):
        ea, eb, ec = (AlgebraElement.generator(g) for g in (a, b, c))
        j = (spec.bracket(spec.bracket(ea, eb), ec)
             + spec.bracket(spec.bracket(eb, ec), ea)
             + spec.bracket(spec.bracket(ec, ea), eb))
        if not j.is_zero:
            defects.append(((a, b, c), j))
    return defects


# -- 6-dimensional orthogonal realization ---------------------------------

def build_so6_algebra(sig: Signature) -> LieAlgebraSpec:
    """so(eta6) over the 15 generators M^{ab}, a<b, in pair-lexicographic order.

    Bracket convention (the 4d M-sector formula extended to six indices):
    [M^{ab}, M^{cd}] = i(M^{ad}eta^{bc} + M^{bc}eta^{ad}
                         - M^{bd}eta^{ac} - M^{ac}eta^{bd}).
    """
    eta = sig.eta6
    table = {}
    for k1, (a, b) in enumerate(MAB_PAIRS):
        for k2, (c, d) in enumerate(MAB_PAIRS):
            if k2 <= k1:
                continue
            out = AlgebraElement.zero()
            for (i1, j1, m1, n1, s) in ((a, d, b, c, 1), (b, c, a, d, 1),
                                        (b, d, a, c, -1), (a, c, b, d, -1)):
                if m1 == n1 and i1 != j1:
                    e = eta[m1]
                    sign = 1 if i1 < j1 else -1
                    idx = _MAB_INDEX[(i1, j1) if i1 < j1 else (j1, i1)]
                    out = out + _gen(idx, _I_TIMES[s * e * sign])
            if not out.is_zero:
                set_bracket(table, k1, k2, out)
    return LieAlgebraSpec(sig, "so6", tuple(range(15)), table)


class OrthogonalIdentification:
    """Generator dictionary between the physical and so(eta6) bases.

        x^mu = ell * M^{mu 4},   p^mu = R_inv * M^{mu 5},
        Im   = ell * R_inv * M^{45},   M^{mu nu} unchanged.

    Pushing the so(eta6) table through this map reproduces the full-regime
    table exactly with phi = eps5 * R_inv^2.  (The published form of the
    dictionary swaps the roles of the two extra axes, which is inconsistent
    with the bracket table; this is the unique axis assignment compatible
    with it, see the repository notes.)
    """

    def __init__(self, sig: Signature):
        self.signature = sig
        ell = Scalar.param("ell")
        rinv = Scalar.param("R_inv")
        self._phys_to_mab: dict[int, tuple[int, Scalar]] = {}
        for mu in range(4):
            self._phys_to_mab[x_id(mu)] = (_MAB_INDEX[(mu, 4)], ell)
            self._phys_to_mab[p_id(mu)] = (_MAB_INDEX[(mu, 5)], rinv)
        self._phys_to_mab[IM] = (_MAB_INDEX[(4, 5)], ell * rinv)
        for (mu, nu) in M_PAIRS:
            gid, _ = m_id(mu, nu)
            self._phys_to_mab[gid] = (_MAB_INDEX[(mu, nu)], S_ONE)
        self._mab_to_phys = {
            k: (gid, s.inverse()) for gid, (k, s) in self._phys_to_mab.items()}

    def to_mab(self, gid: int) -> tuple[int, Scalar]:
        return self._phys_to_mab[gid]

    def to_phys(self, mab_index: int) -> tuple[int, Scalar]:
        return self._mab_to_phys[mab_index]

    def mab_element_to_phys(self, elem: AlgebraElement) -> AlgebraElement:
        out = AlgebraElement(central=elem.central)
        for k, s in elem.coeffs.items():
            gid, f = self.to_phys(k)
            out = out + _gen(gid, s * f)
        return out


def identify_orthogonal(sig: Signature) -> OrthogonalIdentification:
    return OrthogonalIdentification(sig)


def defining_rep(sig: Signature) -> dict[int, np.ndarray]:
    """The 6x6 matrices (M^{ab})^e_f = i(eta^{ae} d^b_f - eta^{be} d^a_f).

    Independent numerical oracle for every structure constant.
    """
    eta = sig.eta6
    mats = {}
    for k, (a, b) in enumerate(MAB_PAIRS):
        m = np.zeros((6, 6), dtype=complex)
        m[a, b] += 1j * eta[a]
        m[b, a] -= 1j * eta[b]
        mats[k] = m
    return mats


def physical_rep(sig: Signature, ell: float = 1.0,
                 r_inv: float = 0.5) -> dict[int, np.ndarray]:
    """Oracle matrices for the physical generators at numeric ell, 1/R."""
    ident = identify_orthogonal(sig)
    mab = defining_rep(sig)
    env = {"ell": ell, "R_inv": r_inv}
    out = {}
    for gid in X_IDS + P_IDS + M_IDS + (IM,):
        k, s = ident.to_mab(gid)
        out[gid] = complex(s.evaluate(env)) * mab[k]
    return out


def element_matrix(elem: AlgebraElement, rep: dict[int, np.ndarray],
                   env: dict) -> np.ndarray:
    """Numeric image of a linear combination under a matrix representation."""
    n = next(iter(rep.values())).shape[0]
    out = np.zeros((n, n), dtype=complex)
    for gid, s in elem.coeffs.items():
        out += complex(s.evaluate(env)) * rep[gid]
    out += complex(elem.central.evaluate(env)) * np.eye(n)
    return out
