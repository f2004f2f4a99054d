"""Exception types shared across the package.

Validation errors (bad input data: malformed fans, non-Bergman diagram rows,
inconsistent support functions) are kept separate from resource errors
(dimension caps, boxes too small or too large) so the command line front-end
can map them to distinct exit codes.
"""


class TropehrhartError(Exception):
    """Base class for all package errors."""


class ValidationError(TropehrhartError):
    """Input data violates a structural invariant.

    An error about particular cones takes its message as a template with
    one `{}` per cone, followed by the cones' ray-index sets.  `str()` names
    each cone by its sorted 0-based ray indices, as the library counts
    them; `message(1)` names it by the 1-based ray numbers of input files.
    """

    def __init__(self, message="", *cones):
        self.template = message
        self.cones = tuple(sorted(c) for c in cones)
        super().__init__(self.message(0))

    def message(self, base: int) -> str:
        if not self.cones:
            return self.template
        return self.template.format(*([i + base for i in c] for c in self.cones))


class UnsupportedDimensionError(TropehrhartError):
    """Ambient dimension exceeds the supported cap for this operation."""


class UnboundedPolyhedronError(TropehrhartError):
    """A bounded polyhedron was required."""


class NotInSupportError(TropehrhartError):
    """Query point lies outside the support of the fan."""


class NotPiecewiseLinearError(ValidationError):
    """Ray values do not extend to a linear function on some cone."""


class InvalidSupportFunctionError(ValidationError):
    """Branch multisets of a multi-valued support function disagree on a shared face."""


class BoxTooSmallError(TropehrhartError):
    """A lattice sum box has nonzero values on its margin shell."""


class BoxTooLargeError(TropehrhartError):
    """A lattice sum box exceeds the point cap or the int64 kernel's range."""


class UnsupportedOperandError(TropehrhartError):
    """Operation received a chain piece it cannot handle (e.g. unbounded)."""


class MatroidAxiomError(ValidationError):
    """Proposed basis family violates the exchange axiom."""


class BundleValidationError(ValidationError):
    """Diagram does not define a tropical vector bundle on the given fan."""


class RowNotInBergmanError(BundleValidationError):
    """Carries the 1-based row number and the offending non-flat level set."""

    def __init__(self, row_number, row, level_set):
        self.row_number = row_number
        self.row = row
        self.level_set = level_set
        super().__init__(
            f"diagram row {row_number} is not in the lifted Bergman fan: "
            f"level set {sorted(level_set)} is not a flat"
        )


class NoCommonApartmentError(BundleValidationError):
    def __init__(self, cone_rays):
        self.cone_rays = cone_rays
        super().__init__("rows of cone with rays {} lie in no common apartment", cone_rays)


class InvalidBoundError(TropehrhartError):
    """Twisting function is too small for the bundle's filtrations."""


class InterpolationFailureError(TropehrhartError):
    """Riemann-Roch polynomial failed its top-degree check.

    Its degree-n part must be rank times the volume polynomial of the fan.
    """


class UnsupportedConeError(TropehrhartError):
    """Operation needs a maximal smooth cone."""
