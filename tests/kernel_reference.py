"""A deliberately naive normal-orderer, the exact reference for the kernel.

It is the textbook definition of the normal form under leftmost reduction
(Kandri-Rody & Weispfenning, J. Symb. Comp. 9, 1990): rewrite the leftmost
reducible pair of a word, u*v -> v*u + [u, v] for an out-of-order pair and
Im*ImInv -> 1, and repeat on every word that comes out, until each word is
ordered.  Words are letter tuples and coefficients are Scalars.  The
brackets come straight from spec.table; the ImInv rule is derived here from
the identity [ImInv, g] = ImInv [g, Im] ImInv.  No rows, no packed
monomials, no memo: the same word may be reduced many times, which is
slow but shares nothing with enveloping._Run.
"""

from ncspacetime.algebra import FORMAL_BASE, IM, IMINV, EnvElement
from ncspacetime.scalars import S_ONE


def bracket(u: int, v: int, spec) -> list:
    """[u, v] as (word, Scalar) pairs."""
    if u == IMINV:
        # [ImInv, g] = ImInv [g, Im] ImInv
        elem = spec.table.get((v, IM))
        return [((IMINV,) + w + (IMINV,), s) for w, s in elem.terms.items()] \
            if elem else []
    elem = spec.table.get((u, v))
    return list(elem.terms.items()) if elem else []


def leftmost(word: tuple):
    """Position of the leftmost reducible pair of word, or None.  A formal
    symbol (id >= FORMAL_BASE) has no relations, so nothing crosses it."""
    for k in range(len(word) - 1):
        u, v = word[k], word[k + 1]
        if v < u < FORMAL_BASE or (u, v) == (IM, IMINV):
            return k
    return None


def normal_form(word: tuple, coeff=S_ONE, spec=None) -> EnvElement:
    """coeff * word in normal form, by leftmost reduction."""
    out = {}
    todo = [(tuple(word), coeff)]
    while todo:
        w, c = todo.pop()
        k = leftmost(w)
        if k is None:
            s = out.get(w)
            out[w] = c if s is None else s + c
            continue
        u, v = w[k], w[k + 1]
        head, tail = w[:k], w[k + 2:]
        if (u, v) == (IM, IMINV):
            todo.append((head + tail, c))
            continue
        todo.append((head + (v, u) + tail, c))
        for bw, s in bracket(u, v, spec):
            todo.append((head + bw + tail, c * s))
    return EnvElement(out)


def product(a: EnvElement, b: EnvElement, spec) -> EnvElement:
    out = EnvElement.zero()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            out = out + normal_form(w1 + w2, c1 * c2, spec)
    return out


def commutator(a: EnvElement, b: EnvElement, spec) -> EnvElement:
    return product(a, b, spec) - product(b, a, spec)


def ad(g: int, a: EnvElement, spec) -> EnvElement:
    """[g, a] by the Leibniz rule: each letter h of a word of a is replaced
    by [g, h], and every word that gives is reduced on its own."""
    out = EnvElement.zero()
    for word, c in a.terms.items():
        for k, h in enumerate(word):
            if h == IMINV:  # [g, ImInv] = ImInv [Im, g] ImInv
                elem = spec.table.get((IM, g))
                image = [((IMINV,) + w + (IMINV,), s)
                         for w, s in elem.terms.items()] if elem else []
            else:
                image = bracket(g, h, spec)
            for w, s in image:
                out = out + normal_form(word[:k] + w + word[k + 1:], c * s,
                                        spec)
    return out
