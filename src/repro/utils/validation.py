"""Argument-validation helpers with consistent error messages."""

from __future__ import annotations

from typing import Any, Tuple, Type, Union

from repro.exceptions import ConfigurationError

__all__ = [
    "require_int",
    "require_non_negative",
    "require_positive",
    "require_probability",
    "require_type",
]


def require_type(value: Any, types: Union[Type, Tuple[Type, ...]], name: str) -> Any:
    """Raise ``TypeError`` unless ``value`` is an instance of ``types``."""
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = " or ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


def require_int(value: Any, name: str) -> int:
    """Raise :class:`ConfigurationError` unless ``value`` is an ``int``.

    ``bool`` is rejected even though it subclasses ``int``: a config
    field set to ``True`` is a mistake, not a count.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(
            f"{name} must be an int, got {type(value).__name__} {value!r}"
        )
    return value


def require_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is zero or positive."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def require_probability(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` lies in the closed interval [0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value
