"""Computational toolkit for the quantum complex plane.

Scaling-invariant measures on self-similar spectral sets, truncated matrix
models of q-normal operators, the twisted crossed product they generate,
covariant representation with norm estimation and bounded transforms, and the
explicit Bott-type projections over the compactified algebra.
"""

from .errors import (ConfigurationError, DomainError, EvaluationError,
                     QcplaneError, SingularityError)
from .qspace import (Interval, QInvariantMeasure, SpectralSet, atomic_measure,
                     contains, make_spectral_set, measure_of, mu0_from_nu,
                     uniform_measure, verify_q_invariance)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "EvaluationError",
    "Interval",
    "QInvariantMeasure",
    "QcplaneError",
    "SingularityError",
    "SpectralSet",
    "atomic_measure",
    "contains",
    "make_spectral_set",
    "measure_of",
    "mu0_from_nu",
    "uniform_measure",
    "verify_q_invariance",
    "__version__",
]
