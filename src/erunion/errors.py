"""Exception types shared across the package."""


class ErUnionError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ErUnionError, ValueError):
    """Invalid argument or malformed input data."""


class InfeasibleError(ErUnionError, ArithmeticError):
    """The requested criterion cannot be met by any union size."""


class CapabilityError(ErUnionError, RuntimeError):
    """Request exceeds a documented size ceiling of this implementation."""
