"""Input-validation helpers used across the library.

All helpers raise :class:`ValueError` (or :class:`TypeError` for type
mismatches) with messages naming the offending parameter, so call sites can
stay terse while errors remain actionable.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "all_finite",
    "check_finite_array",
    "check_in_range",
    "check_non_negative_int",
    "check_positive",
    "check_positive_int",
    "check_probability",
    "ensure_1d",
    "ensure_2d",
]


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is a finite number strictly greater than zero."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def check_non_negative_int(value: Any, name: str) -> int:
    """Validate that ``value`` is an integer >= 0 and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Validate that ``low <= value <= high`` (or strict if not inclusive)."""
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if inclusive:
        ok = low <= value <= high
    else:
        ok = low < value < high
    if not ok:
        bounds = f"[{low}, {high}]" if inclusive else f"({low}, {high})"
        raise ValueError(f"{name} must lie in {bounds}, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``."""
    return check_in_range(value, name, 0.0, 1.0)


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of a float ndarray is finite (true when empty).

    Counts the finite entries instead of reducing with ``all``, which
    costs several times more on the short arrays of a serving request.
    """
    return np.count_nonzero(np.isfinite(arr)) == arr.size


def check_finite_array(arr: Any, name: str) -> np.ndarray:
    """Convert to a float ndarray and require every entry to be finite."""
    out = np.asarray(arr, dtype=float)
    if not all_finite(out):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def ensure_1d(arr: Any, name: str) -> np.ndarray:
    """Convert to a 1-D float ndarray, rejecting higher-rank input."""
    out = np.asarray(arr, dtype=float)
    if out.ndim == 0:
        out = out.reshape(1)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    return out


def ensure_2d(arr: Any, name: str) -> np.ndarray:
    """Convert to a 2-D float ndarray; 1-D input becomes a single column."""
    out = np.asarray(arr, dtype=float)
    if out.ndim == 1:
        out = out.reshape(-1, 1)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    return out
