"""Small shared helpers used across subpackages.

These utilities are intentionally tiny and dependency-free: value clamping,
normalization, means, correlation and validation helpers that many models
(satisfaction, reputation, trust facets) need.  File durability (fsync,
atomic replacement) lives in :mod:`repro.durable`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.errors import ConfigurationError


def clamp(value: float, low: float = 0.0, high: float = 1.0) -> float:
    """Clamp ``value`` into the closed interval ``[low, high]``."""
    if low > high:
        raise ConfigurationError(f"empty interval [{low}, {high}]")
    return max(low, min(high, value))


def require_unit_interval(value: float, name: str) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it.

    Raises :class:`ConfigurationError` otherwise; used by every public
    constructor that accepts probabilities, rates or normalized scores.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not 0.0 <= float(value) <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return float(value)


def require_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (strictly by default)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if strict and value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return float(value)


def normalize_weights(weights: Sequence[float]) -> list[float]:
    """Scale non-negative weights so that they sum to one.

    An all-zero (or empty) weight vector is rejected because it cannot define
    an aggregation.
    """
    if not weights:
        raise ConfigurationError("weight vector must not be empty")
    if any(w < 0 for w in weights):
        raise ConfigurationError("weights must be non-negative")
    total = float(sum(weights))
    # repro-lint: ignore[R5] exact sentinel: non-negative weights sum to
    # exactly 0.0 only when every weight is exactly zero
    if total == 0.0:
        raise ConfigurationError("weights must not all be zero")
    return [float(w) / total for w in weights]


def normalize_distribution(values: Mapping[object, float]) -> dict[object, float]:
    """Normalize a mapping of non-negative scores into a probability vector.

    If every score is zero the result is the uniform distribution, which is
    the conventional fallback of EigenTrust-style normalizations.
    """
    if not values:
        return {}
    if any(v < 0 for v in values.values()):
        raise ConfigurationError("scores must be non-negative")
    total = float(sum(values.values()))
    # repro-lint: ignore[R5] exact sentinel: non-negative scores sum to
    # exactly 0.0 only when every score is exactly zero
    if total == 0.0:
        uniform = 1.0 / len(values)
        return {key: uniform for key in values}
    return {key: float(v) / total for key, v in values.items()}


def mean(values: Iterable[float], default: float = 0.0) -> float:
    """Arithmetic mean with an explicit default for empty iterables."""
    items = list(values)
    if not items:
        return default
    return float(sum(items)) / len(items)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient, returning 0.0 for degenerate input.

    Used by the coupling experiments (Figure 1) to quantify the sign of the
    relationships the paper draws as arrows.
    """
    if len(xs) != len(ys):
        raise ConfigurationError("series must have the same length")
    n = len(xs)
    if n < 2:
        return 0.0
    mx = mean(xs)
    my = mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys, strict=True))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    # repro-lint: ignore[R5] exact sentinel: a sum of squares is exactly
    # 0.0 only for a constant series, where correlation is undefined
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / (vx ** 0.5 * vy ** 0.5)

