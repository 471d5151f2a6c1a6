"""The checkpoint file format: a versioned, checksummed pickle.

This module is only the file format.  Scenario runs write a paused
``InteractionSimulator``, which pickles itself, and the serving layer writes
a whole service session; neither payload is known here, so the module loads
no simulation code and a serving process that snapshots never loads the
engine.

File format (version 1): one JSON header line, then a pickle payload::

    {"format": "repro-checkpoint", "version": 1, "kind": ...,
     "round_index": ..., "payload_bytes": N, "payload_sha256": "..."}\\n
    <N bytes of pickle>

The header is self-describing and cheap to read without unpickling; the
SHA-256 digest detects truncation and bit rot before any pickle byte is
trusted.  Writes go through :func:`repro.durable.replace_file`: atomic, so
a crash during checkpointing leaves the previous checkpoint intact, and
durable, so a power loss cannot roll a completed checkpoint back.

Versioning policy: ``version`` bumps when the header or the framing changes,
and readers reject unknown versions outright rather than guessing (a
checkpoint is a short-lived restart artifact, not an archival format).  A
payload whose pickled classes are gone or reshaped keeps its version: the
file still verifies, because its digest is intact, but reading it raises
:class:`~repro.errors.CheckpointError` ("cannot unpickle checkpoint
payload").  A scenario checkpoint written before simulators pickled
themselves fails that way, as does one whose simulator still holds its
transactions as object lists; the committed version-1 service snapshots
still restore.
"""

from __future__ import annotations

import hashlib
import pickle

from repro import durable, faults
from repro.errors import CheckpointError

CHECKPOINT_MAGIC = "repro-checkpoint"
CHECKPOINT_VERSION = 1

#: Protocol 4 is supported by every Python this repo targets; pinning it
#: keeps checkpoint bytes stable across interpreter minor versions.
_PICKLE_PROTOCOL = 4


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
    durable.replace_file(path, [durable.encode(header) + b"\n", blob])


def verify_checkpoint(
    path: str, *, expected_kind: str | None = None
) -> tuple[dict[str, object], bytes]:
    """Check a checkpoint against its own header; returns ``(header, blob)``.

    Everything :func:`read_checkpoint` checks except unpickling, so
    ``verify-records`` can audit a checkpoint without trusting its payload.
    Every failure mode — missing file, foreign format, unsupported version,
    wrong kind, truncation, digest mismatch — raises :class:`CheckpointError`
    with a message naming the file and the defect.
    """
    try:
        with open(path, "rb") as handle:
            header_line = handle.readline()
            blob = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    header = durable.parse_line(header_line)
    if header is None:
        raise CheckpointError(f"{path}: malformed checkpoint header")
    if header.get("format") != CHECKPOINT_MAGIC:
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
    return header, blob


def read_checkpoint(
    path: str, *, expected_kind: str | None = None
) -> tuple[dict[str, object], object]:
    """Load and verify a checkpoint; returns ``(header, payload)``.

    Raises :class:`CheckpointError` for every defect
    :func:`verify_checkpoint` finds, and for an unpicklable payload.
    """
    header, blob = verify_checkpoint(path, expected_kind=expected_kind)
    try:
        payload = pickle.loads(blob)
    except Exception as error:
        # The digest matched, so this is not rot: the payload names classes
        # this build no longer has in that shape.  Still a CheckpointError,
        # so callers have a single failure type to handle.
        raise CheckpointError(f"{path}: cannot unpickle checkpoint payload") from error
    return header, payload
