"""Rule pack: importing this package registers every rule."""

from __future__ import annotations

from repro.analysis.rules import (  # noqa: F401
    api_boundary,
    cache_discipline,
    determinism,
    error_discipline,
    float_equality,
    ordering,
    typing_discipline,
)
