"""Exception hierarchy shared by all perifp modules."""


class PerifpError(Exception):
    """Base class for all library errors."""


class ExprSyntaxError(PerifpError):
    """Raised when an expression string cannot be parsed; carries the byte
    offset of the failure."""

    def __init__(self, position, message):
        self.position = position
        super().__init__(f"at offset {position}: {message}")


class UnknownIdentifier(PerifpError):
    def __init__(self, name):
        super().__init__(f"unknown identifier {name!r}")


class EvalError(PerifpError):
    """Evaluation failure. kind is one of 'div_zero', 'domain', 'missing_var'."""

    def __init__(self, kind, message):
        self.kind = kind
        super().__init__(f"{kind}: {message}")


class DimensionMismatch(PerifpError):
    pass


class SolverFailure(PerifpError):
    pass


class NonFiniteState(PerifpError):
    pass


class EllipticityViolation(PerifpError):
    def __init__(self, t, x, value):
        self.t = t
        self.x = x
        self.value = value
        super().__init__(f"a_eff(t={t!r}, x={x!r}) = {value!r} is not uniformly positive")


class QuadratureOverflow(PerifpError):
    pass


class NotConverged(PerifpError):
    def __init__(self, iterations, residual):
        self.iterations = iterations
        self.residual = residual
        super().__init__(f"not converged after {iterations} iterations (residual {residual:.3e})")


class NonPositiveRadius(PerifpError):
    pass


class SignIndefinite(PerifpError):
    """The principal eigenvector of a period map has entries of both signs."""

    def __init__(self, min_over_max, stiffness_ratio=None):
        message = (f"principal eigenvector changes sign (min/max = {min_over_max:.3e}), "
                   "so it is a spurious grid mode")
        if stiffness_ratio is not None:
            message += f"; stiffness ratio dt*max|L_ii|/2 = {stiffness_ratio:.4g}"
        super().__init__(message)


class SingularSystem(PerifpError):
    pass


class MonotonicityViolation(PerifpError):
    pass


class ConfigError(PerifpError):
    """Configuration problem; path is a JSON-pointer-ish location string."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")
