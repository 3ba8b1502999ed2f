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
LieAlgebraSpec from it; a changed table is a new spec.  The clean tables
(build_deformed_algebra, build_so6_algebra) are built once per process and
shared: a spec and its engine are never written after construction, so a
cached spec is a value.

The independent numerical oracle is the defining 6x6 matrix representation
of the pseudo-orthogonal algebra so(eta6); identify_orthogonal carries the
generator dictionary between the two bases.  numpy is imported only by the
functions that build or evaluate matrices.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

from .scalars import (S_I, S_MINUS_I, S_ONE, Scalar, _accumulate,
                      _add_times, _checked, _scalar)

if TYPE_CHECKING:
    import numpy as np

    from .enveloping import RewriteEngine

# Generator ids.  Canonical order for enveloping-algebra normal forms:
# x0..x3 < p0..p3 < M01..M23 < Im < ImInv.
X_IDS = (0, 1, 2, 3)
P_IDS = (4, 5, 6, 7)
M_IDS = (8, 9, 10, 11, 12, 13)
IM = 14
IMINV = 15
FORMAL_BASE = 100  # ids >= FORMAL_BASE are free formal symbols
REGIMES = ("full", "tangent", "spacetime")

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
        # ints only: True == 1 and 1.0 == 1, but neither is an exact sign,
        # and an equal Signature must be an interchangeable cache key
        for eps in (self.eps4, self.eps5):
            if eps.__class__ is not int or eps not in (1, -1):
                raise ValueError(
                    f"eps4 and eps5 must be the int +1 or -1, got {eps!r}")

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


def levi_civita(*idx) -> int:
    """Totally antisymmetric symbol: the sign of the permutation that sorts
    idx, 0 if an index repeats; levi_civita(0, 1, ..., n-1) = +1."""
    sign = 1
    for k, a in enumerate(idx):
        for b in idx[k + 1:]:
            if a > b:
                sign = -sign
            elif a == b:
                return 0
    return sign


Word = tuple  # tuple[int, ...]


class EnvElement:
    """Normal-ordered polynomial in the enveloping algebra: a map from
    words (tuples of generator ids) to Scalar coefficients.

    A Lie-algebra element is an EnvElement of degree <= 1: the word (g,)
    for a generator and () for the central part.  Every structure-constant
    entry has this form; the enveloping module supplies the products.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[Word, Scalar] = {}
        if terms:
            for w, s in terms.items():
                if s:
                    self.terms[w] = s

    @classmethod
    def zero(cls) -> "EnvElement":
        return cls()

    @classmethod
    def one(cls) -> "EnvElement":
        return cls({(): S_ONE})

    @classmethod
    def scalar(cls, s) -> "EnvElement":
        return cls({(): s if isinstance(s, Scalar) else Scalar.of(s)})

    @classmethod
    def generator(cls, gid: int) -> "EnvElement":
        return cls({(gid,): S_ONE})

    @classmethod
    def monomial(cls, word, coeff=None) -> "EnvElement":
        return cls({tuple(word): coeff if coeff is not None else S_ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def monomial_support(self) -> set:
        letters = set()
        for w in self.terms:
            letters.update(w)
        return letters

    def __add__(self, other: "EnvElement") -> "EnvElement":
        r = EnvElement()
        r.terms = _accumulate(dict(self.terms), other.terms.items())
        return r

    def __sub__(self, other: "EnvElement") -> "EnvElement":
        return self + (-other)

    def __neg__(self) -> "EnvElement":
        r = EnvElement()
        r.terms = {w: -s for w, s in self.terms.items()}
        return r

    def scale(self, s) -> "EnvElement":
        s = s if isinstance(s, Scalar) else Scalar.of(s)
        if not s:
            return EnvElement.zero()
        return EnvElement({w: s * c for w, c in self.terms.items()})

    def map_scalars(self, f) -> "EnvElement":
        return EnvElement({w: f(s) for w, s in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnvElement):
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def evaluate_matrix(self, rep: dict[int, np.ndarray], env: dict) -> np.ndarray:
        """Numeric image under a matrix representation of the generators:
        the one-element case of evaluate_matrices."""
        return evaluate_matrices([self], rep, env)[0]

    def __repr__(self) -> str:
        from .minilang import format_env
        return format_env(self)


def evaluate_matrices(elems: list, rep: dict[int, np.ndarray],
                      env: dict) -> np.ndarray:
    """The matrix images of elems under a matrix representation of the
    generators, stacked: out[e] is the image of elems[e].

    A word's matrix is the identity times its letters' matrices, left to
    right; the words of one length, over all elems, are one stacked matmul
    of their prefixes' matrices by their last letters'.  The terms of each
    element, scaled by their values at env, are summed in dict order by one
    np.add.accumulate over zero-padded stacks, so every image is the
    term-by-term sum of the same float products.
    """
    import numpy as np
    n = next(iter(rep.values())).shape[0]
    # a row of flat for each word and each prefix of one, the words grouped
    # by length; the last row stays zero, to pad the shorter elements
    row = {(): 0}
    by_length = [[()]]
    for elem in elems:
        for w in elem.terms:
            by_length += [[] for _ in range(len(w) + 1 - len(by_length))]
            while w not in row:
                row[w] = len(row)
                by_length[len(w)].append(w)
                w = w[:-1]
    flat = np.zeros((len(row) + 1, n, n), dtype=complex)
    flat[0] = np.eye(n)
    for words in by_length[1:]:
        flat[[row[w] for w in words]] = np.matmul(
            flat[[row[w[:-1]] for w in words]],
            np.stack([rep[w[-1]] for w in words]))
    width = max([len(elem.terms) for elem in elems] + [1])
    index = np.full((len(elems), width), len(row))
    coeffs = np.zeros((len(elems), width), dtype=complex)
    for e, elem in enumerate(elems):
        for t, (w, s) in enumerate(elem.terms.items()):
            index[e, t] = row[w]
            coeffs[e, t] = complex(s.evaluate(env))
    terms = coeffs[:, :, None, None] * flat[index]
    return np.add.accumulate(terms, axis=1)[:, -1]


def _linear_part(elem: EnvElement) -> list:
    """The (generator, coefficient) pairs of a degree <= 1 element."""
    out = []
    for w, s in elem.terms.items():
        if len(w) == 1:
            out.append((w[0], s))
        elif w:
            raise ValueError(
                f"a Lie-algebra element has degree <= 1, got a term of "
                f"degree {len(w)}")
    return out


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Basis plus antisymmetric structure-constant table, frozen.

    table maps every ordered pair (a, b) whose bracket is nonzero to
    [g_a, g_b], in both orientations, and is read-only: a builder fills a
    plain dict (set_bracket) and constructs the spec from it once; zero
    values are dropped here.  The rewrite engine of the enveloping algebra
    is made with the spec and packs the table (enveloping.RewriteEngine).
    """

    signature: Signature
    regime: str
    basis: tuple[int, ...]
    table: Mapping[tuple[int, int], EnvElement]
    engine: "RewriteEngine" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from .enveloping import RewriteEngine  # enveloping imports this module
        table = {pair: elem for pair, elem in self.table.items() if elem.terms}
        for a, b in table:
            if (b, a) not in table:
                raise ValueError(
                    f"bracket table key {(a, b)} has no mirror key {(b, a)}")
        object.__setattr__(self, "table", MappingProxyType(table))
        object.__setattr__(self, "engine", RewriteEngine(self))

    def bracket_ids(self, a: int, b: int) -> EnvElement:
        for gid in (a, b):
            if gid not in self.basis:
                raise UnknownGeneratorError(
                    f"generator id {gid} not in {self.regime} basis")
        entry = self.table.get((a, b))
        return entry if entry is not None else EnvElement.zero()

    def bracket(self, a: EnvElement, b: EnvElement) -> EnvElement:
        """Bilinear antisymmetric extension of the table to degree <= 1
        elements; centrals drop out, a term of degree >= 2 is a ValueError."""
        lin_a, lin_b = _linear_part(a), _linear_part(b)
        out = {}
        for ga, sa in lin_a:
            for gb, sb in lin_b:
                s = sa * sb
                _accumulate(out, ((w, s * c) for w, c in
                                  self.bracket_ids(ga, gb).terms.items()))
        r = EnvElement()
        r.terms = out
        return r

    @property
    def im_is_central(self) -> bool:
        return IM in self.basis and not any(a == IM for a, _ in self.table)

    def table_equal(self, other: "LieAlgebraSpec") -> bool:
        return (sorted(self.basis) == sorted(other.basis)
                and self.table == other.table)

    def gen_name(self, gid: int) -> str:
        return gen_name(gid, self.regime)

    def gen_ids(self) -> dict[str, int]:
        """Generator name -> id over the basis."""
        return {gen_name(g, self.regime): g for g in self.basis}


def set_bracket(table: dict, a: int, b: int, elem: EnvElement) -> None:
    """Write [g_a, g_b] = elem and [g_b, g_a] = -elem into a builder's
    table."""
    if a == b:
        raise ValueError("diagonal brackets vanish identically")
    table[(a, b)] = elem
    table[(b, a)] = -elem


_I_TIMES = {1: S_I, -1: S_MINUS_I}  # i * sign, for the builders


def _gen(gid, coeff) -> EnvElement:
    return EnvElement.monomial((gid,), coeff)


def _m_elem(mu: int, nu: int, coeff: Scalar) -> EnvElement:
    if mu == nu:
        return EnvElement.zero()
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

    Memoized: a repeated call returns the same shared spec, whether each
    argument is passed by position or by keyword, and a call that raises
    caches nothing.
    """
    return _deformed_table(sig, regime, extend_im)


@lru_cache(maxsize=None)
def _deformed_table(sig: Signature, regime: str,
                    extend_im: bool) -> LieAlgebraSpec:
    if regime not in REGIMES:
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


build_deformed_algebra.cache_info = _deformed_table.cache_info
build_deformed_algebra.cache_clear = _deformed_table.cache_clear


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
            out = EnvElement.zero()
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
                out = EnvElement.zero()
                e1, e2 = eta4(nu, lam), eta4(mu, lam)
                if e1:
                    out = out + _gen(vid(mu), _I_TIMES[e1])
                if e2:
                    out = out - _gen(vid(nu), _I_TIMES[e2])
                set_bracket(table, a, vid(lam), out)


def contract_tangent(spec: LieAlgebraSpec) -> LieAlgebraSpec:
    """R -> infinity contraction: substitute R_inv -> 0 and phi -> 0."""
    if spec.regime != "full":
        raise ValueError("contraction applies to the full regime")
    zero = {"R_inv": Scalar.zero(), "phi": Scalar.zero()}
    table = {pair: elem.map_scalars(lambda s: s.substitute(zero))
             for pair, elem in spec.table.items()}
    return LieAlgebraSpec(spec.signature, "tangent", spec.basis, table)


def jacobi_defect(spec: LieAlgebraSpec):
    """All basis triples a < b < c whose Jacobiator
    [[a,b],c] + [[b,c],a] + [[c,a],b] is nonzero, each with it; empty means
    a Lie algebra.

    The sum is the one spec.bracket gives, read off the packed table
    (spec.engine.rows): each c_xy^g [g, z] is added into one coefficient
    {monomial key: QQi} per word by scalars._add_times.  The central part
    of an inner bracket [x, y] drops out; an outer bracket keeps its own.
    A table entry of degree >= 2 is a ValueError.  An EnvElement is built
    only for a defective triple.
    """
    basis = spec.basis
    for elem in spec.table.values():
        for g, _ in _linear_part(elem):
            if g not in basis:
                raise UnknownGeneratorError(
                    f"generator id {g} not in {spec.regime} basis")
    rows = spec.engine.rows
    defects = []
    for a, b, c in itertools.combinations(sorted(basis), 3):
        acc = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for w, cxy in rows[x].get(y, ()):
                if w:
                    for v, cgz in rows[w[0]].get(z, ()):
                        _add_times(acc.setdefault(v, {}), cxy, cgz)
        if any(acc.values()):
            j = EnvElement()
            j.terms = {w: _scalar(_checked(d)) for w, d in acc.items() if d}
            defects.append(((a, b, c), j))
    return defects


# x0, p0, M01, M12, M23: by brackets they reach every letter of the clean
# full, tangent and spacetime tables (generating_set)
GENERATING_LETTERS = (X_IDS[0], P_IDS[0], M_IDS[0], M_IDS[3], M_IDS[5])


def generating_set(spec: LieAlgebraSpec):
    """The letters of GENERATING_LETTERS in spec's basis if they generate
    it, else None.

    Two conditions, checked on every call: the table passes jacobi_defect
    (so the enveloping algebra is associative), and the bracket closure of
    the letters reaches the whole basis.  A closure step is read from
    spec.table: from reached a and b, an entry [a, b] whose only term of
    degree 1 is one generator g with a one-monomial coefficient reaches g.
    Then a derivation of the enveloping algebra that kills the letters
    kills every generator: its kernel is closed under brackets, kills the
    central part, and a one-monomial coefficient is a unit.  A table that
    jacobi_defect refuses has no generating set.
    """
    try:
        if jacobi_defect(spec):
            return None
    except (ValueError, UnknownGeneratorError):
        return None
    seeds = tuple(g for g in GENERATING_LETTERS if g in spec.basis)
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        a = frontier.pop()
        for b in list(reached):
            linear = _linear_part(spec.table.get((a, b), EnvElement()))
            if len(linear) == 1:
                (g, s), = linear
                if len(s.terms) == 1 and g not in reached:
                    reached.add(g)
                    frontier.append(g)
    return seeds if reached.issuperset(spec.basis) else None


def _vanishes(d) -> bool:
    """A defect is zero: an element or form with is_zero, or an empty
    list."""
    return not d if isinstance(d, list) else d.is_zero


def sweep(spec: LieAlgebraSpec, defect, seeds=None) -> list:
    """(g, defect(g)) for each generator g of spec with a nonzero defect,
    in id order.  A defect is an element or a form (zero by is_zero) or a
    list (zero when empty).

    defect must vanish exactly on a subalgebra, so a defect that vanishes
    on letters generating spec vanishes on every generator.  Two kinds:

    * the kernel of a derivation of the enveloping algebra (centrality,
      d^2): it is closed under brackets, kills the central part, and a
      one-monomial coefficient is a unit;
    * the generators a with [rho a, rho h] = rho [a, h] for every h, for a
      linear map rho into operators (reps.check_rep_exact): for a, b in it,
      [rho [a, b], rho h] = [[rho a, rho b], rho h] expands by the operator
      Jacobi identity into rho of [a, [b, h]] - [b, [a, h]], which is
      rho [[a, b], h] because the table passes jacobi_defect.  A
      one-monomial coefficient cancels, since the coefficient rings have
      no zero divisors and ell is never a differentiated variable.

    seeds is generating_set(spec), found here when None; () takes no
    shortcut.  A nonzero defect on a seed sweeps every generator, so a
    failure lists the same generators either way.
    """
    if seeds is None:
        seeds = generating_set(spec)
    if seeds and all(_vanishes(defect(g)) for g in seeds):
        return []
    pairs = ((g, defect(g)) for g in sorted(spec.basis))
    return [(g, d) for g, d in pairs if not _vanishes(d)]


def phi_locus(sig: Signature) -> dict:
    """phi -> eps5 * R_inv^2, for Scalar.substitute: where the full table
    is the identified so(eta6) table and its Casimirs are central."""
    return {"phi": Scalar.param("R_inv", 2, coeff=sig.eps5)}


# -- 6-dimensional orthogonal realization ---------------------------------

def build_so6_algebra(sig: Signature) -> LieAlgebraSpec:
    """so(eta6) over the 15 generators M^{ab}, a<b, in pair-lexicographic order,
    memoized like build_deformed_algebra: one shared spec per signature.

    Bracket convention (the 4d M-sector formula extended to six indices):
    [M^{ab}, M^{cd}] = i(M^{ad}eta^{bc} + M^{bc}eta^{ad}
                         - M^{bd}eta^{ac} - M^{ac}eta^{bd}).
    """
    return _so6_table(sig)


@lru_cache(maxsize=None)
def _so6_table(sig: Signature) -> LieAlgebraSpec:
    eta = sig.eta6
    table = {}
    for k1, (a, b) in enumerate(MAB_PAIRS):
        for k2, (c, d) in enumerate(MAB_PAIRS):
            if k2 <= k1:
                continue
            out = EnvElement.zero()
            for (i1, j1, m1, n1, s) in ((a, d, b, c, 1), (b, c, a, d, 1),
                                        (b, d, a, c, -1), (a, c, b, d, -1)):
                if m1 == n1 and i1 != j1:
                    e = eta[m1]
                    sign = 1 if i1 < j1 else -1
                    idx = _MAB_INDEX[(i1, j1) if i1 < j1 else (j1, i1)]
                    out = out + _gen(idx, _I_TIMES[s * e * sign])
            set_bracket(table, k1, k2, out)
    return LieAlgebraSpec(sig, "so6", tuple(range(15)), table)


build_so6_algebra.cache_info = _so6_table.cache_info
build_so6_algebra.cache_clear = _so6_table.cache_clear


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

    def mab_element_to_phys(self, elem: EnvElement) -> EnvElement:
        out = {}
        for w, s in elem.terms.items():
            if w:
                gid, f = self.to_phys(*w)
                w, s = (gid,), s * f
            out[w] = s
        return EnvElement(out)


def identify_orthogonal(sig: Signature) -> OrthogonalIdentification:
    return OrthogonalIdentification(sig)


def defining_rep(sig: Signature) -> dict[int, np.ndarray]:
    """The 6x6 matrices (M^{ab})^e_f = i(eta^{ae} d^b_f - eta^{be} d^a_f).

    Independent numerical oracle for every structure constant.
    """
    import numpy as np
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

