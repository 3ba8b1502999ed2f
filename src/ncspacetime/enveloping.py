"""Canonical-form arithmetic in the enveloping algebra.

Elements are stored as maps from normal-ordered words (tuples of generator
ids, non-decreasing in the fixed order x < p < M < Im < ImInv) to Scalar
coefficients.  Products are canonicalized by the rewriting g*h = h*g + [g,h];
every swap strictly lowers a well-founded disorder measure because bracket
terms have lower word degree, so the rewriting terminates and the result is
the Poincare-Birkhoff-Witt normal form.

Two extensions beyond the plain PBW basis:

* ImInv (the inverse of Im) is a sixteenth letter.  It is available when Im
  is central and in the tangent regime, where the only nontrivial rule
  [ImInv, x^mu] = i*eps4*ell^2 * p^mu * ImInv^2 still terminates (p and M
  commute with Im there).  In the full regime the analogous rule does not
  terminate and any use of ImInv raises UnsupportedInverseError.

* Free formal symbols (ids >= FORMAL_BASE) with no relations at all; the
  rewriting never moves a letter across them.  They model symbolic gauge
  components.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager

import numpy as np

from .algebra import (FORMAL_BASE, IM, IMINV, MAB_PAIRS, LieAlgebraSpec,
                      AlgebraElement, Signature, _MAB_INDEX,
                      build_deformed_algebra, identify_orthogonal)
from .scalars import S_ONE, Scalar

Word = tuple  # tuple[int, ...]

CASIMIR_KINDS = ("C1", "C2", "C3")


class UnsupportedInverseError(ValueError):
    pass


class EnvElement:
    """Normal-ordered polynomial in the enveloping algebra."""

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

    @classmethod
    def from_algebra_element(cls, elem: AlgebraElement) -> "EnvElement":
        terms = {(gid,): s for gid, s in elem.coeffs.items()}
        if elem.central:
            terms[()] = elem.central
        return cls(terms)

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
        out = dict(self.terms)
        for w, s in other.terms.items():
            t = out.get(w)
            t = s if t is None else t + s
            if t:
                out[w] = t
            elif w in out:
                del out[w]
        r = EnvElement()
        r.terms = out
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
        """Numeric image under a matrix representation of the generators."""
        n = next(iter(rep.values())).shape[0]
        out = np.zeros((n, n), dtype=complex)
        eye = np.eye(n)
        for w, s in self.terms.items():
            m = eye
            for gid in w:
                m = m @ rep[gid]
            out += complex(s.evaluate(env)) * m
        return out

    def __repr__(self) -> str:
        from .minilang import format_env
        return format_env(self)


class RewriteEngine:
    """Normal-ordering engine bound to one structure-constant table.

    Only the letter brackets (at most 16x16) are kept between calls; the
    normal-order memo lives for one operation() and is then emptied.
    """

    def __init__(self, spec: LieAlgebraSpec):
        self.spec = spec
        self._norm_cache: dict[Word, dict[Word, Scalar]] = {}
        self._bracket_cache: dict[tuple[int, int], list] = {}
        self.allow_iminv = self._iminv_allowed()

    @contextmanager
    def operation(self):
        """Scope of one public operation; empties the memo, also on error."""
        try:
            yield
        finally:
            self._norm_cache.clear()

    def _iminv_allowed(self) -> bool:
        spec = self.spec
        if IM not in spec.basis:
            return False
        if spec.im_is_central:
            return True
        if spec.regime != "tangent":
            return False
        # Sound iff every [Im, g] lands on generators commuting with Im.
        for g in spec.basis:
            for k in spec.bracket_ids(IM, g).coeffs:
                if not spec.bracket_ids(IM, k).is_zero:
                    return False
        return True

    def letter_bracket(self, a: int, b: int):
        """[g_a, g_b] expanded as a list of (word, Scalar) terms."""
        key = (a, b)
        cached = self._bracket_cache.get(key)
        if cached is not None:
            return cached
        out = []
        if a == IMINV or b == IMINV:
            if a == IMINV and b == IMINV:
                pass
            elif IM in (a, b):
                pass  # Im and ImInv commute
            else:
                g = b if a == IMINV else a
                t = self.spec.bracket_ids(IM, g)
                # [ImInv, g] = -ImInv [Im, g] ImInv = -sum t_k g_k ImInv^2
                for k, s in t.coeffs.items():
                    if not self.spec.bracket_ids(IM, k).is_zero:
                        raise UnsupportedInverseError(
                            "ImInv rewriting does not close in this regime")
                    word = (k, IMINV, IMINV)
                    out.append((word, -s if a == IMINV else s))
        else:
            elem = self.spec.bracket_ids(a, b)
            out = [((k,), s) for k, s in elem.coeffs.items()]
            if elem.central:
                out.append(((), elem.central))
        self._bracket_cache[key] = out
        return out

    def check_word(self, word: Word) -> None:
        for gid in word:
            if gid >= FORMAL_BASE:
                continue
            if gid == IMINV:
                if not self.allow_iminv:
                    raise UnsupportedInverseError(
                        f"ImInv is not supported in the {self.spec.regime} regime")
            elif gid not in self.spec.basis:
                raise KeyError(f"generator id {gid} not in basis")

    def normal_order(self, word: Word) -> dict[Word, Scalar]:
        cached = self._norm_cache.get(word)
        if cached is not None:
            return cached
        pos = -1
        kind = None
        for k in range(len(word) - 1):
            u, v = word[k], word[k + 1]
            if u >= FORMAL_BASE or v >= FORMAL_BASE:
                continue
            if u == IM and v == IMINV:
                pos, kind = k, "cancel"
                break
            if u > v:
                pos, kind = k, "swap"
                break
        if pos < 0:
            result = {word: S_ONE}
        elif kind == "cancel":
            result = dict(self.normal_order(word[:pos] + word[pos + 2:]))
        else:
            u, v = word[pos], word[pos + 1]
            swapped = word[:pos] + (v, u) + word[pos + 2:]
            result = dict(self.normal_order(swapped))
            for bw, s in self.letter_bracket(u, v):
                _add_scaled(result, s, self.normal_order(
                    word[:pos] + bw + word[pos + 2:]).items())
        self._norm_cache[word] = result
        return result


def _add_scaled(out: dict, c: Scalar, terms) -> None:
    """out[w] += c * s for each (w, s) in terms, dropping words that cancel."""
    for w, s in terms:
        t = out.get(w)
        t = c * s if t is None else t + c * s
        if t:
            out[w] = t
        elif w in out:
            del out[w]


def get_engine(spec: LieAlgebraSpec) -> RewriteEngine:
    if getattr(spec, "_engine", None) is None:
        spec._engine = RewriteEngine(spec)
    return spec._engine


def env_product(a: EnvElement, b: EnvElement, spec: LieAlgebraSpec) -> EnvElement:
    """Canonical normal-ordered product in the enveloping algebra."""
    eng = get_engine(spec)
    r = EnvElement()
    with eng.operation():
        for w1, s1 in a.terms.items():
            eng.check_word(w1)
            for w2, s2 in b.terms.items():
                eng.check_word(w2)
                _add_scaled(r.terms, s1 * s2, eng.normal_order(w1 + w2).items())
    return r


def env_commutator(a: EnvElement, b: EnvElement, spec: LieAlgebraSpec) -> EnvElement:
    """a*b - b*a in canonical form; reduces to the table bracket on degree 1."""
    return env_product(a, b, spec) - env_product(b, a, spec)


def ad_generator(gid: int, a: EnvElement, spec: LieAlgebraSpec) -> EnvElement:
    """[g, a] computed by the Leibniz rule letter by letter.

    Faster than two full products for long elements; agrees with
    env_commutator(generator, a) on the PBW part of the algebra.
    """
    eng = get_engine(spec)
    r = EnvElement()
    with eng.operation():
        for word, c in a.terms.items():
            eng.check_word(word)
            for k, letter in enumerate(word):
                if letter >= FORMAL_BASE:
                    raise ValueError("ad_generator does not support formal symbols")
                if letter == IMINV:
                    terms = [(w, -s) for w, s in eng.letter_bracket(IMINV, gid)]
                else:
                    terms = eng.letter_bracket(gid, letter) if gid > letter else \
                        [(w, -s) for w, s in eng.letter_bracket(letter, gid)] if gid < letter else []
                for bw, s in terms:
                    _add_scaled(r.terms, c * s, eng.normal_order(
                        word[:k] + bw + word[k + 1:]).items())
    return r


# -- Casimir invariants ----------------------------------------------------

def _phys_mab_factor(ident, a: int, b: int):
    """(gid, Scalar) for the physical image of M^{ab}, any index order."""
    if a == b:
        return None
    if a < b:
        idx, sgn = _MAB_INDEX[(a, b)], 1
    else:
        idx, sgn = _MAB_INDEX[(b, a)], -1
    gid, f = ident.to_phys(idx)
    return gid, (f if sgn > 0 else -f)


def levi_civita6(a, b, c, d, e, f) -> int:
    """Totally antisymmetric symbol on six indices, value of (012345) = +1."""
    idx = (a, b, c, d, e, f)
    if len(set(idx)) != 6:
        return 0
    sign = 1
    lst = list(idx)
    for i in range(6):
        for j in range(i + 1, 6):
            if lst[i] > lst[j]:
                lst[i], lst[j] = lst[j], lst[i]
                sign = -sign
    return sign


def casimir(kind: str, sig: Signature,
            spec: LieAlgebraSpec | None = None) -> EnvElement:
    """Invariants of the 6d orthogonal algebra, in the physical basis.

    C1 = sum M_ab M^ab, C2 = sum eps_abcdef M^ab M^cd M^ef,
    C3 = sum M_ab M^bc M_cd M^da; indices are lowered with eta6, so the
    physical coefficients carry (possibly negative) powers of ell and R_inv.
    """
    if kind not in CASIMIR_KINDS:
        raise ValueError(f"unknown Casimir kind {kind!r}")
    if spec is None:
        spec = build_deformed_algebra(sig, "full")
    eng = get_engine(spec)
    ident = identify_orthogonal(sig)
    eta = sig.eta6
    factors = {}
    for (a, b) in MAB_PAIRS:
        gid, f = _phys_mab_factor(ident, a, b)
        factors[(a, b)] = (gid, f)
        factors[(b, a)] = (gid, -f)

    r = EnvElement()

    def accumulate(index_pairs, coeff: int):
        word = []
        scal = Scalar.of(coeff)
        for (a, b) in index_pairs:
            gid, f = factors[(a, b)]
            word.append(gid)
            scal = scal * f
        _add_scaled(r.terms, scal, eng.normal_order(tuple(word)).items())

    with eng.operation():
        if kind == "C1":
            for a in range(6):
                for b in range(6):
                    if a != b:
                        accumulate(((a, b), (a, b)), eta[a] * eta[b])
        elif kind == "C2":
            for perm in itertools.permutations(range(6)):
                a, b, c, d, e, f = perm
                accumulate(((a, b), (c, d), (e, f)), levi_civita6(*perm))
        else:  # C3
            for a, b, c, d in itertools.product(range(6), repeat=4):
                if a == b or b == c or c == d or d == a:
                    continue
                accumulate(((a, b), (b, c), (c, d), (d, a)),
                           eta[a] * eta[b] * eta[c] * eta[d])

    return r


def centrality_defect(c: EnvElement, spec: LieAlgebraSpec):
    """Generators g with [c, g] != 0 after restoring phi = eps5 * R_inv^2.

    The gravity parameter phi and the contraction parameter R_inv are
    independent formal symbols in the coefficient ring; centrality of the
    orthogonal-algebra invariants is an identity only on the locus relating
    them, so the defect is evaluated there.
    """
    sub = {"phi": Scalar.param("R_inv", 2, coeff=spec.signature.eps5)}
    out = []
    for gid in sorted(spec.basis):
        d = -ad_generator(gid, c, spec)
        d = d.map_scalars(lambda s: s.substitute(sub))
        if not d.is_zero:
            out.append((gid, d))
    return out


def random_env_element(rng, spec: LieAlgebraSpec, max_degree: int = 2,
                       n_terms: int = 3, allow_im: bool = True) -> EnvElement:
    """Seeded random canonical element, for property tests."""
    ids = [g for g in spec.basis if allow_im or g != IM]
    out = EnvElement.zero()
    for _ in range(n_terms):
        deg = rng.randrange(0, max_degree + 1)
        word = tuple(sorted(rng.choice(ids) for _ in range(deg)))
        coeff = Scalar.of(rng.randrange(-4, 5)) + Scalar.i() * rng.randrange(-4, 5)
        out = out + EnvElement.monomial(word, coeff)
    return out
