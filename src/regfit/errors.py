"""Exception types shared across the toolkit.

Two failure categories exist: bad inputs (shapes, ranges, malformed files)
and numerical breakdown (singular systems, failed factorizations). The CLI
maps them to exit codes 1 and 2 respectively.
"""


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra operation breaks down numerically."""


def require_keys(doc, keys, what: str) -> None:
    """Raise a ValidationError naming ``what`` unless ``doc`` is a JSON object
    that holds every key in ``keys``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{what} is missing the key {key!r}")
