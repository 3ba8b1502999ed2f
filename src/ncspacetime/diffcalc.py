"""Derivation-based graded differential calculus over the enveloping algebra.

Derivations are indexed by the generator they shadow: the full regime has
all fifteen inner derivations (commutator with p^mu/i, Im/(i*ell), M^{mu nu}/i,
x^mu/i respectively), the tangent regime the five-element Abelian set acting
by

    d^mu(x^nu)  = eta^{mu nu} Im          d^4(x^mu)    = -eps4*ell*p^mu*Im
    d^mu(M)     = eta-antisymmetrized p   d^4(M^{mu nu}) = 0

with every unlisted action zero.  (The d^4 action carries a trailing Im
factor relative to the naive inner-derivation limit; it is nevertheless a
bona fide derivation of the tangent relations, which the test suite checks.)

A derivation works on the packed kernel (enveloping._Run).  In the full
regime d^a = s_a * ad(g_a), with s_a = -i (-i/ell for d^4): the
derivation holds its label's row of the rewrite engine's rows by reference
and the terms of s_a, so a derivation set copies nothing from the table.
The tangent table is built directly in the rows' form.

p-forms are antisymmetric maps from tuples of derivation labels into the
enveloping algebra, stored on strictly increasing label tuples.  The
exterior derivative is the alternating-sum formula including the
derivation-commutator term, which in the full regime is resolved back into
the derivation basis through the structure constants.  Each component of
d(omega) is one kernel run that takes both sums.

Every entry point reads the regime from its spec (derivation_set(spec),
exterior_derivative(omega, spec), ...), and d(omega) lives on the labels of
the derivation set it applies.  A spacetime spec has no derivation set.
"""

from __future__ import annotations

import itertools

from .algebra import (IM, M_IDS, M_PAIRS, P_IDS, X_IDS, LieAlgebraSpec, eta4,
                      levi_civita)
from .enveloping import EnvElement, _Run, _terms, leibniz
from .scalars import S_MINUS_I, QQi, Scalar

_MINUS_I = QQi(0, -1)

FULL_LABELS = X_IDS + P_IDS + M_IDS + (IM,)
TANGENT_LABELS = P_IDS + (IM,)


class CalculusClosureError(ValueError):
    pass


class DegreeError(ValueError):
    pass


def deriv_name(label: int) -> str:
    if label in X_IDS:
        return f"d_x{label}"
    if label in P_IDS:
        return f"d{label - P_IDS[0]}"
    if label == IM:
        return "d4"
    mu, nu = _m_pair(label)
    return f"d{mu}{nu}"


def _m_pair(gid: int):
    return M_PAIRS[gid - M_IDS[0]]


def theta_name(label: int) -> str:
    return "theta_" + deriv_name(label)[2:] if label in X_IDS else \
        "theta" + deriv_name(label)[1:]


class Derivation:
    """A derivation of the enveloping algebra: d(g) = scale * images[g] on
    each letter g, every other letter (formal symbols included) constant.

    images is in the form of the engine's rows ((word, coefficient items)
    pairs per letter); in the full regime it is the engine's own row of the
    label and scale the items of its inner scale, in the tangent regime
    the printed table and None.  commutators memoizes commutator: it
    belongs to this derivation, so it lives as long as its set, one
    request.
    """

    def __init__(self, label: int, images: dict, spec: LieAlgebraSpec,
                 scale=None):
        self.label = label
        self.images = images
        self.spec = spec
        self.scale = scale
        self.commutators: dict[int, list] = {}

    def apply(self, a: EnvElement) -> EnvElement:
        """Leibniz extension to arbitrary canonical elements; formal
        symbols are constants."""
        return leibniz(a, self.images, self.spec, self.scale)

    def commutator(self, other: int) -> list:
        """[d^label, d^other] in the derivation basis as (label, items,
        negated items) triples, resolved on first use."""
        out = self.commutators.get(other)
        if out is None:
            out = self.commutators[other] = [
                (lab, c.terms.items(), (-c).terms.items())
                for lab, c in derivation_commutator_coeffs(
                    self.label, other, self.spec)]
        return out


def derivation_labels(regime: str) -> tuple[int, ...]:
    if regime == "full":
        return FULL_LABELS
    if regime == "tangent":
        return TANGENT_LABELS
    raise ValueError(f"no derivation set for regime {regime!r}")


# d^a = s_a * ad(g_a) in the full regime: s_a = -i (d^mu ~ p^mu/i,
# d^{mu nu} ~ M/i, d^{x_mu} ~ x/i) and s_4 = -i/ell (d^4 ~ Im/(i*ell))
_SCALE = S_MINUS_I.terms.items()
_SCALE_D4 = (S_MINUS_I * Scalar.param("ell", -1)).terms.items()


def _tangent_images(eps4: int) -> dict:
    """The printed five-derivation table, label -> images."""
    out = {}
    for mu in range(4):
        e = Scalar.of(eta4(mu, mu))
        images = {X_IDS[mu]: [((IM,), e.terms.items())]}
        for k, (a, b) in enumerate(M_PAIRS):
            # d^mu(M^{ab}) = eta^{mu a} p^b - eta^{mu b} p^a
            if a == mu:
                images[M_IDS[k]] = [((P_IDS[b],), e.terms.items())]
            elif b == mu:
                images[M_IDS[k]] = [((P_IDS[a],), (-e).terms.items())]
        out[P_IDS[mu]] = images
    ell = Scalar.param("ell", 1, coeff=-eps4).terms.items()
    out[IM] = {X_IDS[mu]: [((P_IDS[mu], IM), ell)] for mu in range(4)}
    return out


def derivation_set(spec: LieAlgebraSpec) -> dict[int, Derivation]:
    """The derivation space of the calculus on spec's regime, keyed by
    label in increasing order."""
    labels = derivation_labels(spec.regime)
    if spec.regime == "full":
        rows = spec.engine.rows  # the nonzero brackets, packed
        return {label: Derivation(label, rows[label], spec,
                                  _SCALE_D4 if label == IM else _SCALE)
                for label in labels}
    # tangent: the printed five-derivation table, unlisted actions zero
    images = _tangent_images(spec.signature.eps4)
    return {label: Derivation(label, images[label], spec)
            for label in labels}


def derivation_commutator_coeffs(a: int, b: int, spec: LieAlgebraSpec):
    """[d^a, d^b] resolved in the derivation basis: list of (label, Scalar).

    Full regime: ad of the corresponding generator bracket.  Tangent
    regime: the set is Abelian, so the list is empty.
    """
    if spec.regime == "tangent":
        return []
    out = []
    for word, t in spec.bracket_ids(a, b).terms.items():
        if not word:
            continue  # central
        (gid,) = word
        if gid not in FULL_LABELS:
            raise CalculusClosureError(
                "derivation commutator leaves the derivation basis")
        # d^j = s_j * ad(g_j), so [d^a, d^b] = s_a s_b ad([g_a, g_b])
        # = sum_j t_j * s_a s_b / s_j * d^j, and s_a s_b / s_j = -i ell^k
        k = (gid == IM) - (a == IM) - (b == IM)
        out.append((gid, t * Scalar.param("ell", k, coeff=_MINUS_I)))
    return out


class PForm:
    """Antisymmetric multilinear map from derivation tuples to the algebra."""

    __slots__ = ("degree", "comps")

    def __init__(self, degree: int, comps=None):
        if degree < 0:
            raise DegreeError("form degree must be non-negative")
        self.degree = degree
        self.comps: dict[tuple, EnvElement] = {}
        if comps:
            for labels, val in comps.items():
                if not val.is_zero:
                    self.comps[tuple(labels)] = val

    @classmethod
    def zero_form(cls, value: EnvElement) -> "PForm":
        return cls(0, {(): value})

    @classmethod
    def theta(cls, label: int) -> "PForm":
        return cls(1, {(label,): EnvElement.one()})

    def value(self, labels: tuple) -> EnvElement:
        """Evaluate on an arbitrary label tuple (sign of the sorting perm)."""
        if len(labels) != self.degree:
            raise DegreeError("wrong number of arguments")
        sign = levi_civita(*labels)
        val = self.comps.get(tuple(sorted(labels))) if sign else None
        if val is None:
            return EnvElement.zero()
        return val if sign > 0 else -val

    def __add__(self, other: "PForm") -> "PForm":
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        out = dict(self.comps)
        for k, v in other.comps.items():
            t = out.get(k)
            t = v if t is None else t + v
            if not t.is_zero:
                out[k] = t
            elif k in out:
                del out[k]
        return PForm(self.degree, out)

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other) -> bool:
        if not isinstance(other, PForm):
            return NotImplemented
        return self.degree == other.degree and self.comps == other.comps


def exterior_derivative(omega: PForm, spec: LieAlgebraSpec,
                        derivs: dict[int, Derivation] | None = None) -> PForm:
    """Chevalley-Eilenberg style differential on derivation-indexed forms.

    Each component is one kernel run: the Leibniz terms of every
    (-1)^i d^{t_i}(omega(rest)), and the derivation-commutator terms added
    as the normal-ordered words of omega they select.  derivs is
    derivation_set(spec), and d(omega) lives on its labels; each
    [d^a, d^b] is resolved once per derivation set
    (Derivation.commutator).
    """
    if derivs is None:
        derivs = derivation_set(spec)
    eng = spec.engine
    p = omega.degree
    values = {tup: _terms(eng, val) for tup, val in omega.comps.items()}
    out: dict[tuple, EnvElement] = {}
    for tup in itertools.combinations(derivs, p + 1):
        run = _Run(eng)
        for i in range(p + 1):
            terms = values.get(tup[:i] + tup[i + 1:])
            if terms:
                d = derivs[tup[i]]
                run.leibniz(terms, d.images, _signed(d.scale, i % 2))
        for i, j in itertools.combinations(range(p + 1), 2):
            rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
            for lab, c, minus_c in derivs[tup[i]].commutator(tup[j]):
                sign = levi_civita(lab, *rest)
                terms = sign and values.get(tuple(sorted((lab,) + rest)))
                if terms:
                    if sign * (-1) ** (i + j) < 0:
                        c = minus_c
                    for w, cw in terms:
                        run.add_normal(w, cw, c)
        if run.coef:
            value = run.element()
            if value.terms:
                out[tup] = value
    return PForm(p + 1, out)


def _signed(scale, negate: bool):
    """The coefficient items scale (None for 1), negated if asked."""
    if not negate:
        return scale
    if scale is None:
        return ((0, QQi(-1)),)
    return [(m, -q) for m, q in scale]


def contraction(omega: PForm, label: int) -> PForm:
    """First-slot insertion, degree p -> p-1."""
    if omega.degree == 0:
        raise DegreeError("cannot contract a 0-form")
    out: dict[tuple, EnvElement] = {}
    for tup in omega.comps:
        if label not in tup:
            continue
        rest = tuple(t for t in tup if t != label)
        pos = tup.index(label)
        val = omega.comps[tup]
        out[rest] = val if pos % 2 == 0 else -val
    return PForm(omega.degree - 1, out)


def lie_derivative(omega: PForm, label: int, spec: LieAlgebraSpec,
                   derivs: dict[int, Derivation] | None = None) -> PForm:
    """Cartan formula L = d i + i d."""
    if derivs is None:
        derivs = derivation_set(spec)
    d_omega = exterior_derivative(omega, spec, derivs)
    term1 = contraction(d_omega, label)
    if omega.degree == 0:
        return term1
    term2 = exterior_derivative(contraction(omega, label), spec, derivs)
    return term1 + term2


def differential_of_generator(gid: int, spec: LieAlgebraSpec,
                              derivs: dict[int, Derivation] | None = None) -> PForm:
    """d(g) as a one-form: components d^a(g) on the theta basis."""
    return exterior_derivative(
        PForm.zero_form(EnvElement.generator(gid)), spec, derivs)


def _rotation_part(mu: int, ids) -> dict:
    """(eta^{b mu} v^a - eta^{a mu} v^b) theta_ab, v^a the generator
    ids[a]: the theta_ab components of dx^mu and dp^mu."""
    comps = {}
    for k, (a, b) in enumerate(M_PAIRS):
        val = (EnvElement.generator(ids[a]).scale(eta4(b, mu))
               - EnvElement.generator(ids[b]).scale(eta4(a, mu)))
        if not val.is_zero:
            comps[(M_IDS[k],)] = val
    return comps


def reference_differential_x(mu: int, sig) -> PForm:
    """The worked closed form of dx^mu in the full regime:

    eta^{mu nu} Im theta_nu - eps4*ell p^mu theta_4
    + (eta^{b mu} x^a - eta^{a mu} x^b) theta_{ab}
    - eps4*ell^2 M^{a mu} theta_{x_a}.
    """
    from .algebra import m_id
    eps4 = sig.eps4
    comps = {}
    comps[(P_IDS[mu],)] = EnvElement.generator(IM).scale(
        Scalar.of(eta4(mu, mu)))
    comps[(IM,)] = EnvElement.generator(P_IDS[mu]).scale(
        Scalar.param("ell", 1, coeff=-eps4))
    comps.update(_rotation_part(mu, X_IDS))
    for a in range(4):
        if a == mu:
            continue
        gid, sign = m_id(a, mu)
        comps[(X_IDS[a],)] = EnvElement.generator(gid).scale(
            Scalar.param("ell", 2, coeff=-eps4 * sign))
    return PForm(1, comps)


def reference_differential_p(mu: int, sig) -> PForm:
    """The worked closed form of dp^mu in the full regime:

    -phi M^{nu mu} theta_nu + (phi/ell) x^mu theta_4
    + (eta^{b mu} p^a - eta^{a mu} p^b) theta_{ab}
    - eta^{a mu} Im theta_{x_a}.
    """
    from .algebra import m_id
    comps = {}
    for nu in range(4):
        if nu == mu:
            continue
        gid, sign = m_id(nu, mu)
        comps[(P_IDS[nu],)] = EnvElement.generator(gid).scale(
            Scalar.param("phi", 1, coeff=-sign))
    comps[(IM,)] = EnvElement.generator(X_IDS[mu]).scale(
        Scalar.param("phi") * Scalar.param("ell", -1))
    comps.update(_rotation_part(mu, P_IDS))
    comps[(X_IDS[mu],)] = EnvElement.generator(IM).scale(
        Scalar.of(-eta4(mu, mu)))
    return PForm(1, comps)
