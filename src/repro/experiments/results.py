"""Structured experiment results: the machine-readable sibling of reporting.

Every registered experiment historically produced only a rendered text
report.  Sweep campaigns (and CI, and any downstream analysis) need the
numbers themselves, so this module defines :class:`ExperimentRecord` — one
executed parameter point flattened to JSON scalars — plus deterministic
JSON/CSV serialization for collections of records.

Determinism is a contract, not an accident: the acceptance check for the
sweep engine is that the same campaign seed and grid produce *byte-identical*
output files whether the campaign ran on one worker or many.  Records
therefore carry no wall-clock timestamps or host information, dictionaries
are serialized with sorted keys, and floats round-trip through ``repr`` (the
default for :mod:`json`), which is exact for IEEE doubles.

Record files and their sidecars are written through
:func:`repro.durable.replace_file`, so a crash mid-write leaves the
previous artifact intact.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro import durable
from repro.errors import IntegrityError

#: Bumped whenever the serialized record layout changes shape.
RECORD_SCHEMA_VERSION = 1

#: JSON scalar types a record may carry as a param or metric value.
SCALAR_TYPES = (bool, int, float, str, type(None))


class RecordValueError(TypeError):
    """A param or metric value is not a JSON scalar."""


def _require_scalars(mapping: dict[str, object], kind: str) -> dict[str, object]:
    for key, value in mapping.items():
        if not isinstance(value, SCALAR_TYPES):
            raise RecordValueError(
                f"{kind} {key!r} has non-scalar value {value!r} "
                f"({type(value).__name__}); records carry JSON scalars only"
            )
        if isinstance(value, float) and not math.isfinite(value):
            # NaN/Infinity have no strict-JSON representation; rejecting them
            # here keeps every serialized record RFC-8259 parseable.
            raise RecordValueError(
                f"{kind} {key!r} has non-finite value {value!r}; "
                "records carry strict-JSON scalars only"
            )
    return dict(mapping)


@dataclass(frozen=True)
class ExperimentRecord:
    """One executed parameter point of one experiment, flattened to scalars.

    ``params`` holds the swept keyword arguments exactly as passed to the
    experiment's ``run()``; ``metrics`` holds the experiment's
    ``summarize()`` output (flat name → scalar).  ``seed`` is the derived
    per-task seed (``None`` for experiments whose ``run()`` takes no seed).
    """

    experiment: str
    task_index: int
    params: dict[str, object]
    seed: int | None
    status: str  # "ok" or "error"
    metrics: dict[str, object] = field(default_factory=dict)
    error: str | None = None
    #: Structured failure detail for error records: exception class, message,
    #: formatted traceback and how many retries preceded the final failure.
    #: ``None`` for ok records (and for pre-failure-audit error records).
    failure: dict[str, object] | None = None

    def __post_init__(self) -> None:
        if self.status not in ("ok", "error"):
            raise ValueError(f"status must be 'ok' or 'error', got {self.status!r}")
        if self.failure is not None and self.status != "error":
            raise ValueError("failure detail is only valid on error records")
        # Store validated copies so later mutation of the caller's dicts
        # cannot reach into the frozen record.
        object.__setattr__(self, "params", _require_scalars(self.params, "param"))
        object.__setattr__(self, "metrics", _require_scalars(self.metrics, "metric"))
        if self.failure is not None:
            object.__setattr__(self, "failure", _require_scalars(self.failure, "failure"))

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict[str, object]:
        """A plain-dict view in canonical field order.

        ``failure`` appears only when present, so ok records (and files
        written before the failure audit existed) keep their exact bytes.
        """
        payload: dict[str, object] = {
            "experiment": self.experiment,
            "task_index": self.task_index,
            "params": dict(self.params),
            "seed": self.seed,
            "status": self.status,
            "metrics": dict(self.metrics),
            "error": self.error,
        }
        if self.failure is not None:
            payload["failure"] = dict(self.failure)
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> ExperimentRecord:
        failure = payload.get("failure")
        return cls(
            experiment=payload["experiment"],
            task_index=payload["task_index"],
            params=dict(payload.get("params", {})),
            seed=payload.get("seed"),
            status=payload.get("status", "ok"),
            metrics=dict(payload.get("metrics", {})),
            error=payload.get("error"),
            failure=None if failure is None else dict(failure),
        )


def records_to_json(
    records: Sequence[ExperimentRecord],
    *,
    campaign: dict[str, object] | None = None,
) -> str:
    """Serialize records (plus optional campaign metadata) deterministically.

    ``campaign`` must itself be deterministic under re-execution — the sweep
    engine keeps worker counts and timings out of it on purpose.
    """
    payload = {
        "schema_version": RECORD_SCHEMA_VERSION,
        "campaign": dict(campaign or {}),
        "records": [record.to_dict() for record in sorted(records, key=lambda r: r.task_index)],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def records_from_json(text: str) -> list[ExperimentRecord]:
    """Parse records back out of :func:`records_to_json` output."""
    payload = json.loads(text)
    return [ExperimentRecord.from_dict(entry) for entry in payload.get("records", [])]


def file_sha256(path: str) -> str:
    """SHA-256 hex digest of a file's bytes (streamed, any size)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def checksum_sidecar_path(path: str) -> str:
    """Where a record artifact's integrity sidecar lives."""
    return f"{path}.sha256"


def write_checksum_sidecar(path: str) -> str:
    """Record a file's SHA-256 next to it, in ``sha256sum``-compatible form.

    Returns the sidecar path.  The sidecar is what :func:`verify_file_checksum`
    (and the ``verify-records`` CLI) checks artifacts against, and standard
    tooling can too: ``cd <dir> && sha256sum -c <name>.sha256``.
    """
    sidecar = checksum_sidecar_path(path)
    line = f"{file_sha256(path)}  {os.path.basename(path)}\n"
    durable.replace_file(sidecar, [line.encode("utf-8")])
    return sidecar


def verify_file_checksum(path: str) -> str:
    """Check a file against its sidecar; returns the verified digest.

    Raises :class:`~repro.errors.IntegrityError` when the sidecar is missing
    or malformed, or when the file's bytes no longer hash to the recorded
    digest (truncation, bit rot, partial write).
    """
    sidecar = checksum_sidecar_path(path)
    try:
        with open(sidecar, "r", encoding="utf-8") as handle:
            content = handle.read()
    except OSError as error:
        raise IntegrityError(f"{path}: missing checksum sidecar {sidecar}") from error
    recorded = content.split(None, 1)[0] if content.strip() else ""
    if len(recorded) != 64 or any(c not in "0123456789abcdef" for c in recorded):
        raise IntegrityError(f"{sidecar}: malformed checksum sidecar")
    actual = file_sha256(path)
    if actual != recorded:
        raise IntegrityError(
            f"{path}: SHA-256 mismatch (file {actual}, sidecar records {recorded})"
        )
    return actual


def write_records_json(
    path: str,
    records: Sequence[ExperimentRecord],
    *,
    campaign: dict[str, object] | None = None,
    checksum: bool = False,
) -> None:
    durable.replace_file(path, [records_to_json(records, campaign=campaign).encode("utf-8")])
    if checksum:
        write_checksum_sidecar(path)


def records_to_csv(records: Sequence[ExperimentRecord]) -> str:
    """Render records as CSV with ``param_*`` and ``metric_*`` columns.

    The column set is the union over all records (sorted for determinism),
    so heterogeneous sweeps stay loadable in one frame.
    """
    ordered = sorted(records, key=lambda record: record.task_index)
    param_keys = sorted({key for record in ordered for key in record.params})
    metric_keys = sorted({key for record in ordered for key in record.metrics})
    fieldnames = [
        "experiment",
        "task_index",
        "seed",
        "status",
        "error",
        *(f"param_{key}" for key in param_keys),
        *(f"metric_{key}" for key in metric_keys),
    ]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for record in ordered:
        row: dict[str, object] = {
            "experiment": record.experiment,
            "task_index": record.task_index,
            "seed": "" if record.seed is None else record.seed,
            "status": record.status,
            "error": record.error or "",
        }
        for key in param_keys:
            row[f"param_{key}"] = record.params.get(key, "")
        for key in metric_keys:
            row[f"metric_{key}"] = record.metrics.get(key, "")
        writer.writerow(row)
    return buffer.getvalue()


def write_records_csv(
    path: str, records: Sequence[ExperimentRecord], *, checksum: bool = False
) -> None:
    durable.replace_file(path, [records_to_csv(records).encode("utf-8")])
    if checksum:
        write_checksum_sidecar(path)
