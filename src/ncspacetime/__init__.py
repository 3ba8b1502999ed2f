"""Exact computer algebra for the stable deformed space-time algebra, its
enveloping algebra and Casimirs, the derivation-based differential calculus
with connections and curvature, gamma-matrix and cell constructions, and
explicit differential-operator representations."""

from .algebra import (LieAlgebraSpec, Signature, build_deformed_algebra,
                      build_so6_algebra, contract_tangent, defining_rep,
                      identify_orthogonal, jacobi_defect)
from .enveloping import (EnvElement, UnsupportedInverseError, casimir,
                         centrality_defect, env_commutator, env_product)
from .scalars import QQi, Scalar

__all__ = [
    "EnvElement", "LieAlgebraSpec", "QQi", "Scalar", "Signature",
    "UnsupportedInverseError", "build_deformed_algebra", "build_so6_algebra",
    "casimir", "centrality_defect", "contract_tangent", "defining_rep",
    "env_commutator", "env_product", "identify_orthogonal", "jacobi_defect",
]

__version__ = "0.1.0"
