"""Canonical-form arithmetic in the enveloping algebra.

Elements (EnvElement, defined in algebra because the bracket table holds
them, and re-exported here) are stored as maps from normal-ordered words
(tuples of generator ids, non-decreasing in the fixed order
x < p < M < Im < ImInv) to Scalar coefficients.  Products are canonicalized
by the rewriting g*h = h*g + [g,h]; every swap strictly lowers a
well-founded disorder measure because bracket terms have lower word degree,
so the rewriting terminates and the result is the Poincare-Birkhoff-Witt
normal form.  Each step rewrites the leftmost
out-of-order pair, so the result is a function of the word even for a
table that violates Jacobi.

Each spec's RewriteEngine is made with the spec and holds its complete
letter-bracket table; nothing in it changes afterwards.  The kernel (_Run)
is one call of env_product, env_commutator, leibniz (ad_generator,
derivations) or casimir, or one component of an exterior derivative.
Inside it a coefficient is a dict {monomial key: QQi}, built from the
items of Scalars as they are (multiplying monomials is adding keys).  A
run adds a coefficient to each word it is given and keeps no normal form
of any word: at the end it walks the graph of rewrite steps once, on an
explicit stack, and pushes each word's coefficient down to the words of
its step, parents before children.  The normal form is linear, so what
reaches the normal words is the result.  A word of length L has O(L^2)
intermediate words, and each carries a coefficient, not an O(L) normal
form.  Word length is not bounded by Python's recursion limit, and
concurrent calls share nothing mutable.  Coefficients need no grading: a
multi-term Scalar is simply several terms.  A result exponent of 2^63 or
more in magnitude raises ExponentRangeError (see scalars).

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

from .algebra import (FORMAL_BASE, IM, IMINV, MAB_PAIRS, EnvElement,
                      LieAlgebraSpec, UnknownGeneratorError, Word,
                      identify_orthogonal, levi_civita, phi_locus, sweep)
from .scalars import ExponentRangeError  # noqa: F401 (re-exported)
from .scalars import _UNIT, QQi, Scalar, _add_times, _checked, _scalar

CASIMIR_KINDS = ("C1", "C2", "C3")


class UnsupportedInverseError(ValueError):
    pass


class RewriteEngine:
    """Normal-ordering engine bound to one frozen structure-constant table.

    Made once with its spec and never changed afterwards.  rows[a][b] holds
    [g_a, g_b] for every key of spec.table, plus the brackets of ImInv
    where allow_iminv holds, as lists of (word, coefficient items).
    rows has a key for every letter a word may hold, formal symbols aside.
    The engine only reads: rewrite_step gives one word's step, and every
    word met and every coefficient belongs to one kernel call (_Run).
    """

    def __init__(self, spec: LieAlgebraSpec):
        self.spec = spec
        # Always empty: a run keeps its words to itself (see _Run).  Kept
        # so that tools inspecting an engine find the attribute.
        self._norm_cache: dict[Word, dict[Word, Scalar]] = {}
        table = spec.table
        self.rows = rows = {g: {} for g in spec.basis}
        for (a, b), elem in table.items():
            rows[a][b] = _items(elem)
        im_row = {g: e for (a, g), e in table.items() if a == IM}
        # ImInv closes when Im is central, or in the tangent regime when
        # every [Im, g] lands on generators commuting with Im.
        self.allow_iminv = IM in spec.basis and (not im_row or (
            spec.regime == "tangent"
            and not any(k in im_row for e in im_row.values()
                        for w in e.terms for k in w)))
        if self.allow_iminv:
            rows[IMINV] = {}

            def squared(elem):  # elem * ImInv^2
                return [(w + (IMINV, IMINV), c) for w, c in _items(elem)]
            # [g, ImInv] = ImInv [Im, g] ImInv = [Im, g] ImInv^2 and
            # [ImInv, g] = [g, Im] ImInv^2, central parts included
            for g in im_row:
                rows[g][IMINV] = squared(table[IM, g])
                rows[IMINV][g] = squared(table[g, IM])

    def check_letter(self, gid: int) -> None:
        """Raise unless gid is a letter of this engine's words."""
        if gid not in self.rows:
            if gid == IMINV:
                raise UnsupportedInverseError(
                    f"ImInv is not supported in the {self.spec.regime} regime")
            raise UnknownGeneratorError(
                f"generator id {gid} not in {self.spec.regime} basis")

    def check_word(self, word: Word) -> None:
        for gid in word:
            if gid < FORMAL_BASE and gid not in self.rows:
                self.check_letter(gid)

    def rewrite_step(self, w: Word, start: int, known):
        """None if w is normal-ordered, else (first, rest, hint) with
        w = first + sum(coeff * child for child, coeff in rest).

        The step begins at the leftmost out-of-order pair or Im*ImInv
        factor, which lies at start or later.  An out-of-order letter v
        moves left by swaps with its left neighbour g, each adding the
        words with the terms of [g, v] in place of the pair.  It stops, in
        the word first, where the next swap would not be the leftmost
        rewrite or where the word reached is in known (already met).  Every
        word of the step agrees with w before position hint, so its own
        leftmost rewrite lies at hint or later.
        """
        rows = self.rows
        for k in range(start, len(w) - 1):
            u = w[k]
            v = w[k + 1]
            if u > v:
                if u < FORMAL_BASE:
                    tail = w[k + 2:]
                    rest = []
                    j = k
                    while True:
                        head = w[:j]
                        mid = w[j + 1:k + 1] + tail
                        for bw, coeff in rows[w[j]].get(v, ()):
                            rest.append((head + bw + mid, coeff))
                        first = head + (v,) + w[j:k + 1] + tail
                        if not j or not v < w[j - 1] < FORMAL_BASE \
                                or first in known:
                            break
                        j -= 1
                    return first, rest, j - 1 if j else 0
            elif u == IM and v == IMINV:
                return w[:k] + w[k + 2:], (), k - 1 if k else 0
        return None

    def normal_order(self, word: Word) -> dict[Word, Scalar]:
        """Normal form of one word, in one kernel call of its own."""
        self.check_word(word)
        run = _Run(self)
        run.add(word, _UNIT)
        return run.element().terms


# -- the kernel ------------------------------------------------------------

def _items(a: EnvElement) -> list:
    """a as a list of (word, coefficient items)."""
    return [(w, s.terms.items()) for w, s in a.terms.items()]


def _terms(eng: RewriteEngine, a: EnvElement) -> list:
    """_items(a), each word checked against the engine's letters."""
    for w in a.terms:
        eng.check_word(w)
    return _items(a)


class _Run:
    """One kernel call: a coefficient for each word met, pushed down the
    rewrite graph once at the end.

    coef[w] is the coefficient {monomial key: QQi} that w carries so far;
    steps[w] is w's rewrite step (RewriteEngine.rewrite_step), None for a
    normal word.  No normal form of a word is ever built: the normal form
    is linear, so element() walks the graph the added words rewrite to,
    and then, parents before children, hands each word's coefficient to
    the words of its step.  What reaches a normal word is its term of the
    result.
    """

    __slots__ = ("eng", "coef", "steps")

    def __init__(self, eng: RewriteEngine):
        self.eng = eng
        self.coef: dict[Word, dict] = {}
        self.steps: dict[Word, tuple | None] = {}

    def add(self, word: Word, c, coeff=_UNIT) -> None:
        """result += c * coeff * word, c and coeff coefficient items
        (iterables of (key, QQi); scalars._add_times)."""
        d = self.coef.get(word)
        if d is None:
            d = self.coef[word] = {}
        _add_times(d, c, coeff)

    def add_normal(self, word: Word, c, coeff=_UNIT) -> None:
        """add for a word taken to be in normal form."""
        self.steps[word] = None
        self.add(word, c, coeff)

    def leibniz(self, terms, images: dict, scale=None) -> None:
        """result += D(a) for a as (word, coefficient items) pairs and the
        derivation D with D(g) = scale * images[g]; see leibniz."""
        for word, c in terms:
            if scale is not None:
                c = _add_times({}, scale, c).items()
            for k, letter in enumerate(word):
                image = images.get(letter)
                if image:
                    head, tail = word[:k], word[k + 1:]
                    for w, cs in image:
                        self.add(head + w + tail, cs, c)

    def _walk(self) -> list:
        """The words that rewrite, parents before children.

        Fills steps for every word reachable from coef by a depth-first
        walk on an explicit stack, so word length is not bounded by
        Python's recursion limit.  A frame (w, start) asks for w, whose
        leftmost rewrite lies at start or later; a frame (w, None) closes
        w once all the words of its step are closed.  The reverse of the
        closing order puts each word before every word it rewrites to.
        """
        steps = self.steps
        step_of = self.eng.rewrite_step
        post = []
        stack = [(w, 0) for w, c in self.coef.items() if c and w not in steps]
        push = stack.append
        while stack:
            w, start = stack.pop()
            if start is None:
                post.append(w)
                continue
            if w in steps:
                continue
            step = steps[w] = step_of(w, start, steps)
            if step is not None:
                push((w, None))
                first, rest, hint = step
                if first not in steps:
                    push((first, hint))
                for child, _ in rest:
                    if child not in steps:
                        push((child, hint))
        post.reverse()
        return post

    def element(self) -> EnvElement:
        """The result: every coefficient pushed down to the normal words.

        A word hands its coefficient dict to the first word of its step
        as it is, and adds coefficient x bracket coefficient into each
        word of the rest.  Keys add without carrying, so one check of each
        result key (scalars._checked) finds any exponent that left the
        range.  This ends the run: its dicts become the result's Scalars."""
        coef = self.coef
        steps = self.steps
        add = self.add
        for w in self._walk():
            c = coef.pop(w, None)
            if not c:
                continue
            first, rest, _ = steps[w]
            items = c.items()
            for child, coeff in rest:
                add(child, items, coeff)
            d = coef.get(first)
            if d is None:
                coef[first] = c
            elif len(d) < len(c):
                coef[first] = _add_times(c, d.items())
            else:
                _add_times(d, items)
        r = EnvElement()
        r.terms = {w: _scalar(_checked(c)) for w, c in coef.items() if c}
        return r


def get_engine(spec: LieAlgebraSpec) -> RewriteEngine:
    """The rewrite engine made with spec."""
    return spec.engine


def env_product(a: EnvElement, b: EnvElement, spec: LieAlgebraSpec) -> EnvElement:
    """Canonical normal-ordered product in the enveloping algebra."""
    eng = get_engine(spec)
    run = _Run(eng)
    pb = _terms(eng, b)
    for w1, c1 in _terms(eng, a):
        for w2, c2 in pb:
            run.add(w1 + w2, c2, c1)
    return run.element()


def env_commutator(a: EnvElement, b: EnvElement, spec: LieAlgebraSpec) -> EnvElement:
    """a*b - b*a in canonical form; reduces to the table bracket on degree 1."""
    eng = get_engine(spec)
    run = _Run(eng)
    pb = [(w, c, [(m, -q) for m, q in c]) for w, c in _terms(eng, b)]
    for w1, c1 in _terms(eng, a):
        for w2, c2, minus_c2 in pb:
            ab, ba = w1 + w2, w2 + w1
            if ab != ba:
                run.add(ab, c2, c1)
                run.add(ba, minus_c2, c1)
    return run.element()


def leibniz(a: EnvElement, images: dict, spec: LieAlgebraSpec,
            scale=None) -> EnvElement:
    """The derivation D with D(g) = scale * images[g] applied to a.

    images maps a letter to its image as (word, coefficient items) pairs
    (_items), such as a row of the engine's rows; a letter it does not map
    is a constant.  scale, if given, is the items of a Scalar.  Each word
    u*g*v of a contributes the normal forms of u*w*v over the terms w of
    D(g), all in one kernel call.
    """
    if not a.terms:
        return EnvElement()
    eng = get_engine(spec)
    run = _Run(eng)
    run.leibniz(_terms(eng, a), images, scale)
    return run.element()


def ad_generator(gid: int, a: EnvElement, spec: LieAlgebraSpec) -> EnvElement:
    """[g, a] computed by the Leibniz rule letter by letter.

    Agrees with env_commutator(generator, a) on the PBW part of the
    algebra.  Which of the two is faster depends on the element (best of 5
    in-process, Python 3.11 on a shared 2-core x86 machine, all four
    signatures): the 15 brackets of the full-regime C3 take 0.03-0.06 s
    here against 0.04-0.08 s by env_commutator, while in the tangent regime
    -ad_generator(p0, ImInv*x0^30) and env_commutator both take 0.05-0.09 s
    (parsing ImInv*x0^30 itself, which normal-orders ImInv x0^30, takes
    0.46-0.53 s, best of 3).
    """
    eng = get_engine(spec)
    eng.check_letter(gid)
    if any(letter >= FORMAL_BASE for word in a.terms for letter in word):
        raise ValueError("ad_generator does not support formal symbols")
    return leibniz(a, eng.rows[gid], spec)


# -- Casimir invariants ----------------------------------------------------

def casimir(kind: str, spec: LieAlgebraSpec) -> EnvElement:
    """Invariants of the 6d orthogonal algebra of spec's signature, in
    the physical basis, normal-ordered on spec's table.

    C1 = sum M_ab M^ab, C2 = sum eps_abcdef M^ab M^cd M^ef,
    C3 = sum M_ab M^bc M_cd M^da; indices are lowered with eta6, so the
    physical coefficients carry (possibly negative) powers of ell and R_inv.

    C2 is summed over the 90 permutations with a<b, c<d and e<f, each
    with weight 8.  Swapping the two indices of a pair flips both the
    Levi-Civita sign and M^{ab}, so each of the 720 words of the free
    algebra is one of these 90 with the same coefficient, on any table.
    The identification makes each M^{ab} one physical generator times a
    monomial, so a word's coefficient is one key sum and one product of
    Gaussian rationals.
    """
    if kind not in CASIMIR_KINDS:
        raise ValueError(f"unknown Casimir kind {kind!r}")
    sig = spec.signature
    eng = get_engine(spec)
    run = _Run(eng)
    ident = identify_orthogonal(sig)
    eta = sig.eta6
    factors = {}  # (a, b) -> (gid, key, re, im) of M^{ab}, any index order
    for k, (a, b) in enumerate(MAB_PAIRS):
        gid, f = ident.to_phys(k)
        eng.check_letter(gid)
        (key, q), = f.terms.items()
        factors[(a, b)] = (gid, key, q.re, q.im)
        factors[(b, a)] = (gid, key, -q.re, -q.im)

    def accumulate(index_pairs, coeff: int):
        word = []
        key, re, im = 0, coeff, 0
        for pair in index_pairs:
            gid, k, x, y = factors[pair]
            word.append(gid)
            key += k
            re, im = re * x - im * y, re * y + im * x
        run.add(tuple(word), ((key, QQi(re, im)),))

    if kind == "C1":
        for a in range(6):
            for b in range(6):
                if a != b:
                    accumulate(((a, b), (a, b)), eta[a] * eta[b])
    elif kind == "C2":
        for perm in itertools.permutations(range(6)):
            a, b, c, d, e, f = perm
            if a < b and c < d and e < f:
                accumulate(((a, b), (c, d), (e, f)), 8 * levi_civita(*perm))
    else:  # C3
        for a, b, c, d in itertools.product(range(6), repeat=4):
            if a == b or b == c or c == d or d == a:
                continue
            accumulate(((a, b), (b, c), (c, d), (d, a)),
                       eta[a] * eta[b] * eta[c] * eta[d])
    return run.element()


def centrality_defect(c: EnvElement, spec: LieAlgebraSpec, seeds=None):
    """Generators g with [c, g] != 0 after restoring phi = eps5 * R_inv^2
    (algebra.phi_locus), each with that defect.

    The gravity parameter phi and the contraction parameter R_inv are
    independent formal symbols in the coefficient ring; centrality of the
    orthogonal-algebra invariants is an identity only on the locus relating
    them, so the defect is evaluated there.

    Restoring phi is a ring map on coefficients that commutes with normal
    ordering, so the generators with a zero defect are those of the
    centralizer of the restored c, the kernel of a derivation.  A
    one-monomial coefficient stays one monomial, a unit of the Laurent
    coefficient ring, so letters that generate spec still generate it on
    the locus.  When every letter of c is in the basis, algebra.sweep
    takes the defect on seeds (generating_set(spec), found there when
    None) first; otherwise it sweeps every generator.
    """
    locus = phi_locus(spec.signature)

    def defect(gid):
        return (-ad_generator(gid, c, spec)).map_scalars(
            lambda s: s.substitute(locus))

    if not {g for w in c.terms for g in w}.issubset(spec.basis):
        seeds = ()
    return sweep(spec, defect, seeds)


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
