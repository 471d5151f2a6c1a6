"""Opt-in per-phase wall-clock accounting for the experiment pipeline.

The experiments CLI exposes ``--profile``, which wraps each experiment run
in :func:`profiled` and prints the accumulated phase table afterwards.  The
instrumented layers — scenario setup, the simulation engine, metric
evaluation — report into the active :class:`PhaseTimer` through
:func:`phase`; when no timer is active (the default) the instrumentation
short-circuits on a single ``None`` check, so the hot paths pay nothing.

Phases are free-form names; the pipeline uses four: ``setup`` (graph,
campaign and mechanism construction), ``simulate`` (the engine round loop),
``refresh`` (reputation score recomputation, reported separately because it
is the classic hot path and is *included* in ``simulate``'s wall time), and
``metrics`` (trace condensation and summaries).

Beside the clocks, the timer keeps exact *work counters* (:func:`add_work`):
the reports each incremental fold site consumed (``folded.<site>``, added
once per fold call), the social networks generated
(``networks_generated``), and the power iteration's steps
(``power_iteration.steps``) and the calls its iteration cap rather than its
tolerance ended (``power_iteration.capped``), both added once per call.
Unlike wall time they are deterministic, so a benchmark gates them exactly:
a fold that restarts from the first report, a run that regenerates a shared
network, or a refresh that iterates past its convergence point shows as a
larger count.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from collections.abc import Iterator

#: Phases whose wall time is contained in another phase; the report renders
#: them indented and excludes them from the total.
_NESTED_PHASES = {"refresh": "simulate"}

_ACTIVE: PhaseTimer | None = None


class PhaseTimer:
    """Accumulates wall-clock seconds and hit counts per named phase."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: Exact work counters, see :func:`add_work`.
        self.work: dict[str, int] = {}

    def add(self, name: str, seconds: float, *, count: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + count

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def rows(self) -> list[tuple[str, float, int]]:
        """(phase, seconds, count) rows, outer phases first."""
        ordered = sorted(
            self.seconds,
            key=lambda name: (name in _NESTED_PHASES, -self.seconds[name]),
        )
        return [(name, self.seconds[name], self.counts[name]) for name in ordered]

    def report(self) -> str:
        """Render the phase table (nested phases indented under their parent)."""
        if not self.seconds:
            return "no profiled phases recorded"
        total = sum(
            seconds for name, seconds in self.seconds.items() if name not in _NESTED_PHASES
        )
        rows = [
            (
                f"  {name} (within {_NESTED_PHASES[name]})"
                if name in _NESTED_PHASES
                else name,
                seconds,
                count,
            )
            for name, seconds, count in self.rows()
        ]
        width = max(len("phase"), len("total"), *(len(label) for label, _, _ in rows))
        lines = [f"{'phase':<{width}s} {'seconds':>9s} {'share':>7s} {'calls':>7s}"]
        for label, seconds, count in rows:
            share = seconds / total if total > 0 else 0.0
            lines.append(f"{label:<{width}s} {seconds:9.3f} {share:6.1%} {count:7d}")
        lines.append(f"{'total':<{width}s} {total:9.3f}")
        lines.extend(f"{name}: {self.work[name]}" for name in sorted(self.work))
        return "\n".join(lines)


def active() -> PhaseTimer | None:
    """The timer experiments are currently reporting into, if any."""
    return _ACTIVE


def clock() -> float:
    """Monotonic wall-clock reading for measurement metadata.

    The single sanctioned clock access point: instrumented modules call this
    instead of :func:`time.perf_counter` so the determinism lint (R1) can
    guarantee no wall-clock value reaches a published record — timings flow
    only into profiling tables and benchmark summaries.
    """
    return time.perf_counter()


def add_work(name: str, amount: int) -> None:
    """Count ``amount`` units of work into the active timer; no-op when
    profiling is off.  Callers add once per operation (a fold call), never
    once per item, so the hot loops stay untouched."""
    if _ACTIVE is not None:
        _ACTIVE.work[name] = _ACTIVE.work.get(name, 0) + amount


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time a block into the active timer; near-free when profiling is off."""
    if _ACTIVE is None:
        yield
        return
    with _ACTIVE.phase(name):
        yield


@contextmanager
def profiled() -> Iterator[PhaseTimer]:
    """Activate a fresh :class:`PhaseTimer` for the enclosed block."""
    global _ACTIVE
    previous = _ACTIVE
    timer = PhaseTimer()
    _ACTIVE = timer
    try:
        yield timer
    finally:
        _ACTIVE = previous


__all__ = ["PhaseTimer", "active", "add_work", "clock", "phase", "profiled"]
