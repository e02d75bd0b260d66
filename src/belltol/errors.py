"""Exception hierarchy shared by all belltol modules."""


class BelltolError(Exception):
    """Base class for all belltol errors."""


class DomainError(BelltolError, ValueError):
    """A parameter lies outside the documented domain of an operation."""


class ValidationError(BelltolError, ValueError):
    """Matrix, state, measurement or distribution data violates an invariant."""


class DegenerateFunctionalError(DomainError):
    """The functional is constant on the local polytope, so violation ratios
    are undefined."""


class UnsupportedFunctionalError(BelltolError):
    """The functional is outside the class an algorithm can optimize over: the
    seesaw needs exactly two outcomes at every setting."""


class ResourceCapError(BelltolError):
    """A configured size cap (dimension, enumeration, LP) would be exceeded."""


class SolverError(BelltolError):
    """An LP solve failed numerically (a start basis that is singular or not
    dual feasible, a singular basis later, its pivot limit), its solution
    failed a certificate check, a seesaw's objective fell from one sweep to
    the next, or it differs from the value of the assignment the seesaw
    returns; no answer is returned."""
