"""Exception types shared across the toolkit.

Two failure categories exist: bad inputs (shapes, ranges, malformed files)
and numerical breakdown (singular systems, failed factorizations). The CLI
maps them to exit codes 1 and 2 respectively.

``load_json_file`` reads every JSON input file (model and problem files),
naming the file in each ValidationError. The ``require_keys`` and ``as_*``
helpers check the documents read: they turn a missing key or a value of the
wrong type into a ValidationError that names the key.
"""

import json
import math
import numbers

import numpy as np


class ValidationError(ValueError):
    """Raised when inputs violate a documented precondition."""


class NumericalError(RuntimeError):
    """Raised when a linear-algebra operation breaks down numerically."""


def load_json_file(path, parse):
    """``parse(doc)`` of the JSON document in the file at ``path``; a file
    that cannot be opened or read as UTF-8 JSON, and a ValidationError from
    ``parse``, become a ValidationError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot open {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def require_keys(doc, keys, what: str) -> None:
    """Raise a ValidationError naming ``what`` unless ``doc`` is a JSON object
    that holds every key in ``keys``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise ValidationError(f"{what} is missing the key {key!r}")


def as_number(value, what: str) -> float:
    """``value`` as a float; a ValidationError naming ``what`` unless it is a
    finite number (JSON true and false are not numbers)."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(number):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return number


def as_integer(value, what: str) -> int:
    """``value`` as an int; a ValidationError naming ``what`` unless it is an
    integral number."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_number_array(value, what: str, vector: bool = False) -> np.ndarray:
    """``value`` as an array; a ValidationError naming ``what`` unless it is
    a finite number or equally nested lists of finite numbers (one flat list
    if ``vector``)."""
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        a = None
    if (a is None or a.dtype.kind not in "iuf" or (vector and a.ndim != 1)
            or not np.isfinite(a).all()):
        shape = "a list of" if vector else "a number or equally nested lists of"
        raise ValidationError(f"{what} must be {shape} finite numbers")
    return a
