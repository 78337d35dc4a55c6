"""Numerical laboratory for time-harmonic diffuse optical tomography.

Forward model on a cube, complex diffusion-tensor algebra, singular
solutions with isolated singularities of arbitrary order, discrete
Dirichlet-to-Neumann operators with fractional boundary Sobolev norms,
and boundary-stability experiments.
"""

__version__ = "0.1.0"

from .errors import (
    OtlabError,
    ConfigError,
    EllipticityError,
    FactorizationError,
    ResidualError,
    QuadratureBudgetError,
    InadmissibleWaveNumberError,
    InadmissibleAmplitudeError,
    MemoryBudgetError,
    SingularityError,
)

__all__ = [
    "__version__",
    "OtlabError",
    "ConfigError",
    "EllipticityError",
    "FactorizationError",
    "ResidualError",
    "QuadratureBudgetError",
    "InadmissibleWaveNumberError",
    "InadmissibleAmplitudeError",
    "MemoryBudgetError",
    "SingularityError",
]
