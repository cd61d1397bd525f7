"""Exception hierarchy shared by all teelab modules."""


class TeeLabError(Exception):
    """Base class for all errors raised by teelab."""


class MalformedInput(TeeLabError):
    """Input document is missing fields or has the wrong types."""


class InvalidCategory(TeeLabError):
    """A fusion table violates a category axiom; the message names the first violated identity."""


class NonConvergence(TeeLabError):
    """An iterative solve did not reach tolerance within its iteration cap."""


class ConditionOneViolated(TeeLabError):
    """The averaged fusion matrix has a zero entry, so no strictly positive fixed point is guaranteed."""


class DegenerateDistribution(TeeLabError):
    """A probability distribution has a zero entry where strict positivity is required."""


class UnknownFactor(TeeLabError):
    """A factor id does not belong to the factor space at hand."""


class DimensionCap(TeeLabError):
    """A requested dense object exceeds the configured dimension cap."""


class SpectrumFailure(TeeLabError):
    """The dense eigensolver failed to converge."""


class InvalidOperator(TeeLabError):
    """A matrix fails a density-operator invariant (hermiticity, trace, positivity)."""


class SupportViolation(TeeLabError):
    """A unitary acts on factors outside its allowed region."""


class PremiseViolated(TeeLabError):
    """A premise lemma of the inequality chain failed on the given data.

    Carries the partially filled report so callers can see which dependent
    checks were left unevaluated.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class EpsilonOutOfRange(TeeLabError):
    """A perturbation epsilon exceeds half the minimum fixed-point probability."""


class SiteInThinnedRegion(TeeLabError):
    """A fusion shift was requested on a site retained in the thinned region."""


class InsufficientWidth(TeeLabError):
    """Region A is too narrow for the requested number of thinning levels."""


class RankDeficiency(TeeLabError):
    """A generator matrix that must be full rank is not (internal consistency failure)."""


class InvalidGeometry(TeeLabError):
    """A lattice partition violates an annulus invariant."""


class ConfigError(TeeLabError):
    """A scenario configuration is invalid; the CLI exits with status 2."""

