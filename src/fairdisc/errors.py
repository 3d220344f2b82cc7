"""Shared exception types, the one rule for integer and number inputs, and the one form of a wrong-type refusal."""

import numbers
import os
import sys


class ValidationError(ValueError):
    """Bad domain input: malformed distribution, dimension mismatch, bad config.

    The CLI maps this to exit code 2. Genuine I/O failures (missing files,
    unreadable paths) stay OSError and map to exit code 3.
    """


def is_int(value) -> bool:
    """An integer is a Python int that is not a bool; a numpy integer scalar is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value, lo=None, hi=None):
    """`value` if it is an integer, at least `lo` and at most `hi` when given; else a ValidationError."""
    if not is_int(value):
        raise ValidationError(f"{name} must be an integer, got {_shown(value)}")
    return _in_range(name, value, lo, hi)


def check_real(name: str, value, lo=None, hi=None):
    """As check_int, for a number: a numbers.Real that is neither a bool nor an int past float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            isinstance(value, int) and abs(value) > sys.float_info.max):
        raise ValidationError(f"{name} must be a number, got {_shown(value)}")
    return _in_range(name, value, lo, hi)


def check_type(name: str, value, cls: type):
    """`value` if it is a `cls`; else a ValidationError that names both types."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def check_path(value):
    """`value` if it is a path, a str, bytes or os.PathLike; else a ValidationError. `open` would take an int or a bool
    as a file descriptor, and close it."""
    if not isinstance(value, (str, bytes, os.PathLike)):
        raise ValidationError(f"path must be a str, bytes or os.PathLike, got {type(value).__name__}")
    return value


def _shown(value) -> str:
    """`repr(value)` on one line: in a repr that spans lines, as an array's does, each run of whitespace is a space."""
    return " ".join(text.split()) if "\n" in (text := repr(value)) else text


def _in_range(name: str, value, lo, hi):
    # `not lo <= value` also refuses NaN. A bound `hi` comes with a bound `lo`.
    if hi is not None and not lo <= value <= hi:
        raise ValidationError(f"{name} must be in [{lo}, {hi}], got {value}")
    elif lo is not None and not lo <= value:
        raise ValidationError(f"{name} must be >= {lo}, got {value}")
    return value
