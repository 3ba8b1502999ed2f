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

p-forms are antisymmetric maps from tuples of derivation labels into the
enveloping algebra, stored on strictly increasing label tuples.  The
exterior derivative is the alternating-sum formula including the
derivation-commutator term, which in the full regime is resolved back into
the derivation basis through the structure constants.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import (IM, M_IDS, P_IDS, X_IDS, LieAlgebraSpec, eta4,
                      levi_civita)
from .enveloping import EnvElement, leibniz, packed_terms
from .scalars import S_MINUS_I, Scalar

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
    from .algebra import M_PAIRS
    return M_PAIRS[gid - M_IDS[0]]


def theta_name(label: int) -> str:
    return "theta_" + deriv_name(label)[2:] if label in X_IDS else \
        "theta" + deriv_name(label)[1:]


class Derivation:
    """A derivation of the enveloping algebra, given by its generator values."""

    def __init__(self, label: int, action: dict[int, EnvElement],
                 spec: LieAlgebraSpec):
        self.label = label
        self.action = action
        self.spec = spec

    def apply(self, a: EnvElement) -> EnvElement:
        """Leibniz extension to arbitrary canonical elements; formal
        symbols are constants."""
        images = {}  # packed for this call, for the letters a holds
        for word in a.terms:
            for g in word:
                if g not in images:
                    image = self.action.get(g)
                    images[g] = () if image is None else packed_terms(image)
        return leibniz(a, images, self.spec)


def derivation_labels(regime: str) -> tuple[int, ...]:
    if regime == "full":
        return FULL_LABELS
    if regime == "tangent":
        return TANGENT_LABELS
    raise ValueError(f"no derivation set for regime {regime!r}")


def _inner_scale(label: int) -> Scalar:
    # d^mu ~ p^mu/i, d^{mu nu} ~ M/i, d^{x_mu} ~ x/i, d^4 ~ Im/(i*ell)
    if label == IM:
        return S_MINUS_I * Scalar.param("ell", -1)
    return S_MINUS_I


def derivation_set(regime: str, spec: LieAlgebraSpec) -> dict[int, Derivation]:
    """The derivation space of the calculus, keyed by label."""
    if spec.regime != regime:
        raise ValueError("spec regime does not match requested derivation set")
    out = {}
    if regime == "full":
        table = spec.table  # the nonzero brackets
        for label in FULL_LABELS:
            scale = _inner_scale(label)
            action = {g: table[label, g].scale(scale)
                      for g in spec.basis if (label, g) in table}
            out[label] = Derivation(label, action, spec)
        return out
    # tangent: the printed five-derivation table, unlisted actions zero
    eps4 = spec.signature.eps4
    for mu in range(4):
        label = P_IDS[mu]
        action = {}
        e = 1 if mu == 0 else -1
        action[X_IDS[mu]] = EnvElement.monomial((IM,), Scalar.of(e))
        for k, (a, b) in enumerate(
                ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))):
            # d^sigma(M^{ab}) = eta^{sigma a} p^b - eta^{sigma b} p^a
            val = EnvElement.zero()
            if a == mu:
                val = val + EnvElement.generator(P_IDS[b]).scale(
                    Scalar.of(1 if mu == 0 else -1))
            if b == mu:
                val = val - EnvElement.generator(P_IDS[a]).scale(
                    Scalar.of(1 if mu == 0 else -1))
            if not val.is_zero:
                action[M_IDS[k]] = val
        out[label] = Derivation(label, action, spec)
    action4 = {}
    for mu in range(4):
        action4[X_IDS[mu]] = EnvElement.monomial(
            (P_IDS[mu], IM), Scalar.param("ell", 1, coeff=-eps4))
    out[IM] = Derivation(IM, action4, spec)
    return out


def derivation_commutator_coeffs(a: int, b: int, regime: str,
                                 spec: LieAlgebraSpec):
    """[d^a, d^b] resolved in the derivation basis: list of (label, Scalar).

    Full regime: ad of the corresponding generator bracket.  Tangent
    regime: the set is Abelian, so the list is empty.
    """
    if regime == "tangent":
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
        # = sum_j t_j * s_a s_b / s_j * d^j
        out.append((gid, t * _scale_ratio(a, b, gid)))
    return out


@lru_cache(maxsize=4096)
def _scale_ratio(a: int, b: int, j: int) -> Scalar:
    """s_a * s_b / s_j for the inner scales s of _inner_scale."""
    return _inner_scale(a) * _inner_scale(b) * _inner_scale(j).inverse()


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


def exterior_derivative(omega: PForm, regime: str, spec: LieAlgebraSpec,
                        derivs: dict[int, Derivation] | None = None) -> PForm:
    """Chevalley-Eilenberg style differential on derivation-indexed forms."""
    if derivs is None:
        derivs = derivation_set(regime, spec)
    labels = derivation_labels(regime)
    p = omega.degree
    out: dict[tuple, EnvElement] = {}
    for tup in itertools.combinations(labels, p + 1):
        total = EnvElement.zero()
        for i in range(p + 1):
            rest = tup[:i] + tup[i + 1:]
            term = derivs[tup[i]].apply(omega.value(rest))
            total = total + (term if i % 2 == 0 else -term)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                rest = tuple(t for k, t in enumerate(tup) if k not in (i, j))
                for lab, coeff in derivation_commutator_coeffs(
                        tup[i], tup[j], regime, spec):
                    val = omega.value((lab,) + rest).scale(coeff)
                    total = total + (-val if (i + j) % 2 else val)
        if not total.is_zero:
            out[tup] = total
    return PForm(p + 1, out)


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


def lie_derivative(omega: PForm, label: int, regime: str,
                   spec: LieAlgebraSpec,
                   derivs: dict[int, Derivation] | None = None) -> PForm:
    """Cartan formula L = d i + i d."""
    if derivs is None:
        derivs = derivation_set(regime, spec)
    d_omega = exterior_derivative(omega, regime, spec, derivs)
    term1 = contraction(d_omega, label)
    if omega.degree == 0:
        return term1
    term2 = exterior_derivative(contraction(omega, label), regime, spec, derivs)
    return term1 + term2


def differential_of_generator(gid: int, regime: str, spec: LieAlgebraSpec,
                              derivs: dict[int, Derivation] | None = None) -> PForm:
    """d(g) as a one-form: components d^a(g) on the theta basis."""
    return exterior_derivative(
        PForm.zero_form(EnvElement.generator(gid)), regime, spec, derivs)


def reference_differential_x(mu: int, sig) -> PForm:
    """The worked closed form of dx^mu in the full regime:

    eta^{mu nu} Im theta_nu - eps4*ell p^mu theta_4
    + (eta^{b mu} x^a - eta^{a mu} x^b) theta_{ab}
    - eps4*ell^2 M^{a mu} theta_{x_a}.
    """
    from .algebra import M_PAIRS, m_id
    eps4 = sig.eps4
    comps = {}
    comps[(P_IDS[mu],)] = EnvElement.generator(IM).scale(
        Scalar.of(eta4(mu, mu)))
    comps[(IM,)] = EnvElement.generator(P_IDS[mu]).scale(
        Scalar.param("ell", 1, coeff=-eps4))
    for k, (a, b) in enumerate(M_PAIRS):
        val = EnvElement.zero()
        if eta4(b, mu):
            val = val + EnvElement.generator(X_IDS[a]).scale(
                Scalar.of(eta4(b, mu)))
        if eta4(a, mu):
            val = val - EnvElement.generator(X_IDS[b]).scale(
                Scalar.of(eta4(a, mu)))
        if not val.is_zero:
            comps[(M_IDS[k],)] = val
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
    from .algebra import M_PAIRS, m_id
    comps = {}
    for nu in range(4):
        if nu == mu:
            continue
        gid, sign = m_id(nu, mu)
        comps[(P_IDS[nu],)] = EnvElement.generator(gid).scale(
            Scalar.param("phi", 1, coeff=-sign))
    comps[(IM,)] = EnvElement.generator(X_IDS[mu]).scale(
        Scalar.param("phi") * Scalar.param("ell", -1))
    for k, (a, b) in enumerate(M_PAIRS):
        val = EnvElement.zero()
        if eta4(b, mu):
            val = val + EnvElement.generator(P_IDS[a]).scale(
                Scalar.of(eta4(b, mu)))
        if eta4(a, mu):
            val = val - EnvElement.generator(P_IDS[b]).scale(
                Scalar.of(eta4(a, mu)))
        if not val.is_zero:
            comps[(M_IDS[k],)] = val
    comps[(X_IDS[mu],)] = EnvElement.generator(IM).scale(
        Scalar.of(-eta4(mu, mu)))
    return PForm(1, comps)
