"""Exception types shared across the package."""


class PolyharmError(Exception):
    """Base class for all package-specific errors."""


class MalformedSpec(PolyharmError):
    """A mapping specification is structurally invalid (bad indices,
    non-finite numbers, p < 1 or J < 1, unparseable file)."""


class MalformedParams(PolyharmError):
    """Builtin parameters do not match the builtin's schema."""


class UnknownName(PolyharmError):
    """No builtin with the requested name."""


class DegenerateMap(PolyharmError):
    """The map degenerates where a quantity needs it not to: the smaller
    directional derivative vanishes at a sampled point, so the dilatation
    quotient is unbounded there; the Jacobian takes both signs, so the map
    folds; the image diameter estimate is zero; or lambda_small(0), the
    normalization of the Landau bounds, is zero."""


class NoConvergence(PolyharmError):
    """Adaptive quadrature would pass its sample cap before every panel
    settled.  The tolerance is never loosened instead.  ``estimates`` holds
    the estimate after each round, the last being the current one:
    accepted panels plus the sums of the panels still open."""

    def __init__(self, message: str = "", estimates=()):
        super().__init__(message)
        self.estimates = tuple(estimates)


class InvalidDiameter(PolyharmError):
    """A diameter is not finite, is negative, or is zero for a Landau bound."""


class InvalidParams(PolyharmError):
    """Numeric arguments outside the documented domain."""


class NotAnalytic(PolyharmError):
    """The operation needs a depth-1 table with no anti-analytic part."""


class NoSignChange(PolyharmError):
    """The root function never becomes negative on the search bracket."""


class OutsideDomain(PolyharmError):
    """A point lies outside the disk the metric is defined on."""
