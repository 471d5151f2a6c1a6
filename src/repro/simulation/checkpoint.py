"""Checkpoint/resume for the interaction simulator.

A checkpoint is the *complete* state of a paused run — peers and their
rebound identities, the reputation mechanism with its feedback store and
epoch, every materialized RNG stream mid-sequence, churn and campaign
cursors, the published score snapshot, and the collected transaction and
feedback logs — captured at a round boundary.  Restoring it and running the
remaining rounds produces byte-identical records to a run that was never
interrupted; the contract tests in ``tests/chaos`` enforce this per
mechanism.

File format (version 1): one JSON header line, then a pickle payload::

    {"format": "repro-checkpoint", "version": 1, "kind": ...,
     "round_index": ..., "payload_bytes": N, "payload_sha256": "..."}\\n
    <N bytes of pickle>

The header is self-describing and cheap to read without unpickling; the
SHA-256 digest detects truncation and bit rot before any pickle byte is
trusted.  Writes are atomic (temp file + ``os.replace``) so a crash during
checkpointing leaves the previous checkpoint intact, and durable (the
directory is fsynced after the rename) so a power loss cannot roll a
completed checkpoint back.  Versioning policy:
``version`` bumps whenever the payload's shape changes incompatibly; readers
reject unknown versions outright rather than guessing (a checkpoint is a
short-lived restart artifact, not an archival format).

Hooks (campaign drivers, trace collectors) hold closures and are not
pickled.  Instead a hook may implement the checkpoint protocol —
``checkpoint_state() -> state`` and
``restore_checkpoint_state(state, simulator) -> None`` — and the resume path
reconstructs the hooks from configuration before rehydrating their state.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro import faults
from repro._util import fsync_directory
from repro.errors import CheckpointError
from repro.simulation.engine import (
    DisclosureObserver,
    EventDrivenSimulator,
    InteractionSimulator,
    RoundHook,
)
from repro.simulation.rng import RandomStreams

if TYPE_CHECKING:
    from repro.simulation.metrics import MetricsCollector

CHECKPOINT_MAGIC = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Protocol 4 is supported by every Python this repo targets; pinning it
#: keeps checkpoint bytes stable across interpreter minor versions.
_PICKLE_PROTOCOL = 4


@dataclass
class SimulatorState:
    """Picklable snapshot of a paused :class:`InteractionSimulator`.

    ``config`` carries the churn model *with its cursor* (stateful churn
    advances inside the config object), so restore must not reset it.
    ``hook_states`` holds one entry per hook, in hook order — the hook's
    ``checkpoint_state()`` result, or ``None`` for stateless hooks.
    """

    config: Any
    graph: Any
    directory: Any
    reputation: Any
    stream_states: dict[str, object]
    transactions: list[Any]
    feedbacks: list[Any]
    disclosed: list[Any]
    transaction_counter: int
    round_scores: dict[str, float]
    metrics: MetricsCollector
    next_round: int
    clock: float
    hook_states: list[object]


def capture_state(simulator: InteractionSimulator) -> SimulatorState:
    """Snapshot a simulator paused at a round boundary.

    The snapshot shares references with the live simulator — callers
    serialize it immediately (:func:`save_simulator_checkpoint`) rather than
    holding it across further rounds.
    """
    hook_states: list[object] = []
    for hook in simulator._hooks:
        state_of = getattr(hook, "checkpoint_state", None)
        hook_states.append(None if state_of is None else state_of())
    return SimulatorState(
        config=simulator.config,
        graph=simulator.graph,
        directory=simulator.directory,
        reputation=simulator.reputation,
        stream_states=simulator.streams.snapshot(),
        transactions=simulator._transactions,
        feedbacks=simulator._feedbacks,
        disclosed=simulator._disclosed,
        transaction_counter=simulator._transaction_counter,
        round_scores=simulator._round_scores,
        metrics=simulator.metrics,
        next_round=simulator.completed_rounds,
        clock=simulator._engine.now,
        hook_states=hook_states,
    )


def restore_simulator(
    state: SimulatorState,
    *,
    hooks: Sequence[RoundHook] = (),
    disclosure_observer: DisclosureObserver | None = None,
) -> InteractionSimulator:
    """Rebuild a simulator from a snapshot, ready to run the remaining rounds.

    ``hooks`` must mirror the checkpointed run's hooks positionally: each is
    rehydrated from the matching ``hook_states`` entry via its
    ``restore_checkpoint_state``.  The caller reconstructs the hook objects
    themselves (they are configuration, not state).
    """
    if len(hooks) != len(state.hook_states):
        raise CheckpointError(
            f"checkpoint carries state for {len(state.hook_states)} hooks, "
            f"but {len(hooks)} were supplied"
        )
    simulator = InteractionSimulator.__new__(InteractionSimulator)
    simulator.graph = state.graph
    simulator.config = state.config
    simulator.reputation = state.reputation
    simulator._disclosure_observer = disclosure_observer
    simulator._hooks = tuple(hooks)
    streams = RandomStreams(state.config.seed)
    streams.restore(state.stream_states)
    simulator._streams = streams
    simulator._rng_selection = streams.stream("selection")
    simulator._rng_transactions = streams.stream("transactions")
    simulator._rng_feedback = streams.stream("feedback")
    simulator._directory_plan = None
    simulator.directory = state.directory
    simulator.metrics = state.metrics
    simulator._transactions = state.transactions
    simulator._feedbacks = state.feedbacks
    simulator._disclosed = state.disclosed
    simulator._transaction_counter = state.transaction_counter
    simulator._engine = EventDrivenSimulator()
    simulator._engine.restore_clock(state.clock)
    simulator._next_round = state.next_round
    # The churn cursor lives inside config.churn and was pickled in place —
    # restoring must NOT reset it (unlike __init__, which starts a new run).
    simulator._round_scores = state.round_scores
    # Pure caches: rebuilt lazily with value-identical contents.
    simulator._disclosure_cache = {}
    simulator._neighbor_peers_cache = {}
    for hook, hook_state in zip(hooks, state.hook_states, strict=True):
        if hook_state is None:
            continue
        restore = getattr(hook, "restore_checkpoint_state", None)
        if restore is None:
            raise CheckpointError(
                f"checkpoint carries state for hook {type(hook).__name__}, "
                "which does not implement restore_checkpoint_state"
            )
        restore(hook_state, simulator)
    return simulator


# -- file format -----------------------------------------------------------


def write_checkpoint(path: str, kind: str, payload: object, *, round_index: int) -> None:
    """Atomically persist a payload as a versioned, checksummed checkpoint.

    The SHA-256 digest is always computed over the *intact* pickle; the
    ``checkpoint.save`` fault site can crash the process before anything is
    written (durability testing) or flip a payload bit after digesting
    (corruption-detection testing).
    """
    blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    action = faults.fire("checkpoint.save", kind=kind, round_index=round_index)
    digest = hashlib.sha256(blob).hexdigest()
    if action == "corrupt":
        blob = faults.corrupt_bytes(blob)
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "kind": kind,
        "round_index": round_index,
        "payload_bytes": len(blob),
        "payload_sha256": digest,
    }
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_directory(path)


def read_checkpoint(
    path: str, *, expected_kind: str | None = None
) -> tuple[dict[str, object], object]:
    """Load and verify a checkpoint; returns ``(header, payload)``.

    Every failure mode — missing file, foreign format, unsupported version,
    wrong kind, truncation, digest mismatch, unpicklable payload — raises
    :class:`CheckpointError` with a message naming the file and the defect.
    """
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            blob = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"{path}: malformed checkpoint header") from error
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint file")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if expected_kind is not None and header.get("kind") != expected_kind:
        raise CheckpointError(
            f"{path}: checkpoint kind {header.get('kind')!r} "
            f"(expected {expected_kind!r})"
        )
    expected_bytes = header.get("payload_bytes")
    if not isinstance(expected_bytes, int) or len(blob) != expected_bytes:
        raise CheckpointError(
            f"{path}: truncated checkpoint payload "
            f"({len(blob)} bytes, header promises {expected_bytes!r})"
        )
    digest = hashlib.sha256(blob).hexdigest()
    if digest != header.get("payload_sha256"):
        raise CheckpointError(f"{path}: checkpoint payload failed its SHA-256 check")
    try:
        payload = pickle.loads(blob)
    except Exception as error:
        # The digest matched, so this is a format bug, not rot — still a
        # CheckpointError so callers have a single failure type to handle.
        raise CheckpointError(f"{path}: cannot unpickle checkpoint payload") from error
    return header, payload


def save_simulator_checkpoint(path: str, simulator: InteractionSimulator) -> None:
    """Snapshot a simulator (paused at a round boundary) to ``path``."""
    state = capture_state(simulator)
    write_checkpoint(path, "simulator", state, round_index=state.next_round)


def load_simulator_checkpoint(path: str) -> SimulatorState:
    """Read back a :func:`save_simulator_checkpoint` file."""
    _, payload = read_checkpoint(path, expected_kind="simulator")
    if not isinstance(payload, SimulatorState):
        raise CheckpointError(f"{path}: payload is not a simulator state")
    return payload
