"""Acceleration switches for the end-to-end pipeline.

The execution layers added for pipeline acceleration — incremental
reputation refresh, shared networks — are *pure* with respect to published
results: enabling or disabling either must never change a record byte.
That contract is what makes a single global switchboard safe, and the
switchboard is what makes the contract testable: benchmarks and property
tests flip the flags and assert byte-identical output, and
``benchmarks/bench_end_to_end.py`` measures the cold (all off) versus
accelerated (defaults) pipeline with the same binary.

Flags
-----
``incremental_refresh``
    Mechanisms fold only newly appended feedback into their score state
    instead of rescanning the whole :class:`FeedbackStore` per refresh:
    Beta/average their per-subject masses, EigenTrust/PowerTrust the
    pair ledger of :class:`~repro.reputation.gathering.LocalTrustBuilder`
    (which builds local trust from it at every population size).  Off,
    local trust is rebuilt by rescanning the whole report log — the cold
    reference the incremental paths must match byte for byte.  Default on.
``setup_cache``
    Generated social networks are cached by specification
    (:func:`~repro.socialnet.generators.cached_social_network`) and shared
    across (scenario × mechanism) cells and sweep tasks; each run still
    draws its own directory and builds its own campaign.  Off, every run
    generates a fresh network.  Default on.
``disable_all``
    The master kill switch: every flag reads off, and
    :func:`~repro.scenarios.runner.shared_simulations` blocks share
    nothing, so every run simulates.

The environment variable ``REPRO_ACCEL`` seeds the initial state (it is read
once at import, so forked sweep workers inherit whatever the parent set):
a comma-separated list of ``off`` (master kill switch), ``on``,
``incremental``, ``no-incremental``, ``setup-cache`` or ``no-setup-cache``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from collections.abc import Iterator

from repro.errors import ConfigurationError

#: Recognized ``REPRO_ACCEL`` tokens mapped to flag updates.
_ENV_TOKENS = {
    "on": {},
    "off": {"disable_all": True},
    "incremental": {"incremental_refresh": True},
    "no-incremental": {"incremental_refresh": False},
    "setup-cache": {"setup_cache": True},
    "no-setup-cache": {"setup_cache": False},
}


@dataclass(frozen=True)
class AccelFlags:
    """The switchboard state; treat instances as immutable snapshots."""

    incremental_refresh: bool = True
    setup_cache: bool = True
    #: Master kill switch: when set, every accessor reports everything off
    #: regardless of the individual flags (the cold-pipeline benchmark mode).
    disable_all: bool = False

    def effective(self) -> AccelFlags:
        """The flags as consumers should read them (kill switch applied)."""
        if not self.disable_all:
            return self
        return AccelFlags(
            incremental_refresh=False,
            setup_cache=False,
            disable_all=True,
        )


def _from_env(value: str) -> AccelFlags:
    """Parse ``REPRO_ACCEL``."""
    flags = AccelFlags()
    for raw_token in value.split(","):
        token = raw_token.strip().lower()
        if not token:
            continue
        try:
            updates = _ENV_TOKENS[token]
        except KeyError:
            raise ConfigurationError(
                f"unknown REPRO_ACCEL token {token!r}; expected one of {sorted(_ENV_TOKENS)}"
            ) from None
        flags = replace(flags, **updates)
    return flags


_STATE: AccelFlags = _from_env(os.environ.get("REPRO_ACCEL", ""))


def flags() -> AccelFlags:
    """The current effective acceleration flags."""
    return _STATE.effective()


@contextmanager
def override(**updates: bool) -> Iterator[AccelFlags]:
    """Temporarily override flags; restores the previous state on exit."""
    global _STATE
    previous = _STATE
    _STATE = replace(_STATE, **updates)
    try:
        yield flags()
    finally:
        _STATE = previous


__all__ = ["AccelFlags", "flags", "override"]
