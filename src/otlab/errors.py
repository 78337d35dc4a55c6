"""Exception hierarchy shared by all modules."""


class OtlabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OtlabError):
    """Invalid run configuration. Carries a JSON-pointer to the offending field."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class EllipticityError(OtlabError):
    """Coefficient field violates the required ellipticity bounds."""


class FactorizationError(OtlabError):
    """Sparse factorization failed (singular pivot or solver breakdown)."""


class ResidualError(OtlabError):
    """A linear solve did not reach the requested algebraic residual."""


class QuadratureBudgetError(OtlabError):
    """Quadrature did not converge within its budget.

    ``achieved`` carries the tolerance estimate reached when the budget
    ran out.
    """

    def __init__(self, message: str, achieved: float):
        self.achieved = achieved
        super().__init__(f"{message} (achieved tolerance ~ {achieved:.3e})")


class InadmissibleWaveNumberError(OtlabError):
    """Wave number outside the admissible intervals for the experiment."""


class InadmissibleAmplitudeError(OtlabError, ValueError):
    """No nonzero perturbation amplitude keeps the medium admissible."""


class MemoryBudgetError(OtlabError):
    """Requested grid exceeds the configured memory cap."""


class SingularityError(OtlabError):
    """Evaluation requested exactly at an excluded singular point."""

