"""Connections on the cyclic left module, curvature, and projections.

The module is E = U*1, so a module element is just an algebra element and a
connection is fixed by its one-form value on the unit, nabla(1) = A^i theta_i.
The Leibniz rule nabla(a*chi) = a*nabla(chi) + da*chi then gives the
covariant derivative along d^alpha as

    nabla_alpha(a) = a * A^alpha + d^alpha(a).

With that convention the commutator of two covariant derivatives splits as

    [nabla_alpha, nabla_beta](a)
        = a * (d^alpha A^beta - d^beta A^alpha - [A^alpha, A^beta])
          + [d^alpha, d^beta](a)

and for a = x^mu the second term is the constant-curvature part

    PHI_TERM_SIGN * phi * (eta^{sa} eta^{mb} - eta^{sb} eta^{ma}) x_s

with the single recorded constant PHI_TERM_SIGN = -1: the gauge field
strength multiplies the module element on the right and the phi term enters
with the opposite overall sign relative to the usual left-acting convention.

Connection(components, spec) lives on the labels of derivation_set(spec).
gravitational_curvature(sigma, alpha, mu, beta) and expected_phi_term(mu,
alpha, beta) take no signature: eta4 is the same for every signature.
"""

from __future__ import annotations

from .algebra import FORMAL_BASE, LieAlgebraSpec, eta4, x_id
from .diffcalc import Derivation, derivation_labels, derivation_set, \
    derivation_commutator_coeffs
from .enveloping import EnvElement, env_commutator, env_product
from .scalars import Scalar

PHI_TERM_SIGN = -1


class DimensionMismatchError(ValueError):
    pass


class Connection:
    """Connection components A^i over the derivation labels of the spec's
    regime."""

    def __init__(self, components: dict[int, EnvElement],
                 spec: LieAlgebraSpec):
        self._derivs = derivation_set(spec)
        self.components = {lab: components.get(lab, EnvElement.zero())
                           for lab in self._derivs}
        unknown = set(components) - set(self._derivs)
        if unknown:
            raise KeyError(f"component labels outside the regime: {unknown}")
        self.spec = spec

    @classmethod
    def zero(cls, spec: LieAlgebraSpec) -> "Connection":
        return cls({}, spec)

    @classmethod
    def formal(cls, spec: LieAlgebraSpec) -> "Connection":
        """Components as free formal symbols A^i (one per derivation label)."""
        comps = {lab: EnvElement.monomial((FORMAL_BASE + lab,))
                 for lab in derivation_labels(spec.regime)}
        return cls(comps, spec)

    def derivation(self, label: int) -> Derivation:
        return self._derivs[label]


def connection_apply(conn: Connection, a: EnvElement) -> dict[int, EnvElement]:
    """One-form components of nabla(a): a*A^i + d^i(a)."""
    return {lab: covariant_derivative(conn, a, lab) for lab in conn.components}


def covariant_derivative(conn: Connection, a: EnvElement, label: int) -> EnvElement:
    return env_product(a, conn.components[label], conn.spec) \
        + conn.derivation(label).apply(a)


def curvature_commutator(conn: Connection, a: EnvElement,
                         alpha: int, beta: int) -> EnvElement:
    """[nabla_alpha, nabla_beta](a), fully normal ordered."""
    ab = covariant_derivative(conn, covariant_derivative(conn, a, beta), alpha)
    ba = covariant_derivative(conn, covariant_derivative(conn, a, alpha), beta)
    return ab - ba


def field_strength(conn: Connection, alpha: int, beta: int) -> EnvElement:
    """d^alpha A^beta - d^beta A^alpha - [A^alpha, A^beta]."""
    A_a, A_b = conn.components[alpha], conn.components[beta]
    return (conn.derivation(alpha).apply(A_b)
            - conn.derivation(beta).apply(A_a)
            - env_commutator(A_a, A_b, conn.spec))


def curvature_phi_part(a: EnvElement, alpha: int, beta: int,
                       conn: Connection) -> EnvElement:
    """[d^alpha, d^beta](a), the gravity-induced part of the curvature."""
    out = EnvElement.zero()
    for lab, coeff in derivation_commutator_coeffs(alpha, beta, conn.spec):
        out = out + conn.derivation(lab).apply(a).scale(coeff)
    return out


def gravitational_curvature(sigma: int, alpha: int, mu: int,
                            beta: int) -> Scalar:
    """R^{sigma alpha mu beta} = phi*(eta^{sa} eta^{mb} - eta^{sb} eta^{ma})."""
    for idx in (sigma, alpha, mu, beta):
        if not 0 <= idx <= 3:
            raise ValueError("indices must lie in 0..3")
    phi = Scalar.param("phi")
    val = eta4(sigma, alpha) * eta4(mu, beta) - eta4(sigma, beta) * eta4(mu, alpha)
    return phi * Scalar.of(val)


def expected_phi_term(mu: int, alpha: int, beta: int) -> EnvElement:
    """PHI_TERM_SIGN * phi (eta^{sa}eta^{mb} - eta^{sb}eta^{ma}) x_s on x^mu."""
    out = EnvElement.zero()
    for s in range(4):
        val = gravitational_curvature(s, alpha, mu, beta)
        if val.is_zero:
            continue
        # x_s = eta_{ss} x^s for the diagonal metric
        coeff = val * Scalar.of(eta4(s, s) * PHI_TERM_SIGN)
        out = out + EnvElement.generator(x_id(s)).scale(coeff)
    return out


class Projection:
    """Square matrix with entries in the enveloping algebra.

    The module action follows (Pi psi)_j = sum_i psi_i Pi_{ji}: components
    multiply matrix entries from the left and the sum runs over the second
    matrix index.  Idempotence in that composition convention reads
    sum_i Pi_{ik} Pi_{ji} = Pi_{jk}; it is checked on construction unless
    explicitly overridden.
    """

    def __init__(self, entries, spec: LieAlgebraSpec,
                 allow_non_idempotent: bool = False):
        self.entries = [list(row) for row in entries]
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise DimensionMismatchError("projection matrix must be square")
        self.spec = spec
        self.is_idempotent = self._check_idempotent()
        if not self.is_idempotent and not allow_non_idempotent:
            raise ValueError("matrix is not idempotent; pass "
                             "allow_non_idempotent=True to accept it")

    @classmethod
    def identity(cls, n: int, spec: LieAlgebraSpec) -> "Projection":
        return cls([[EnvElement.one() if i == j else EnvElement.zero()
                     for j in range(n)] for i in range(n)], spec)

    @classmethod
    def diagonal(cls, diag, spec: LieAlgebraSpec, **kw) -> "Projection":
        n = len(diag)
        return cls([[diag[i] if i == j else EnvElement.zero()
                     for j in range(n)] for i in range(n)], spec, **kw)

    def _check_idempotent(self) -> bool:
        for j in range(self.n):
            for k in range(self.n):
                acc = EnvElement.zero()
                for i in range(self.n):
                    acc = acc + env_product(self.entries[i][k],
                                            self.entries[j][i], self.spec)
                if not (acc - self.entries[j][k]).is_zero:
                    return False
        return True

    def apply(self, psi) -> list[EnvElement]:
        if len(psi) != self.n:
            raise DimensionMismatchError("module element has wrong length")
        out = []
        for j in range(self.n):
            acc = EnvElement.zero()
            for i in range(self.n):
                acc = acc + env_product(psi[i], self.entries[j][i], self.spec)
            out.append(acc)
        return out


def field_equation_residual(pi: Projection, psi) -> list[EnvElement]:
    """Pi psi - psi, the residual of the projection field equation."""
    image = pi.apply(psi)
    return [image[j] - psi[j] for j in range(pi.n)]
