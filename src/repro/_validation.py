"""Shared argument-validation helpers.

These helpers raise early, with messages that name the offending
argument, so that user errors surface at API boundaries instead of deep
inside vectorized NumPy code.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_in",
    "ensure_1d",
    "check_shape_2d",
]


def check_positive(name: str, value: float) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_in(name: str, value: Any, allowed: Iterable[Any]) -> Any:
    """Validate that ``value`` is one of ``allowed`` and return it."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def ensure_1d(name: str, array: Any, dtype: Any = None) -> np.ndarray:
    """Coerce ``array`` to a contiguous 1-D ndarray, validating shape."""
    out = np.ascontiguousarray(array, dtype=dtype)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def check_shape_2d(name: str, shape: Sequence[int]) -> tuple[int, int]:
    """Validate a 2-tuple of positive dimensions and return it."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 2:
        raise ValueError(f"{name} must be a 2-tuple, got {shape!r}")
    if shape[0] <= 0 or shape[1] <= 0:
        raise ValueError(f"{name} dimensions must be positive, got {shape!r}")
    return shape
