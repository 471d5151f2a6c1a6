"""Durable files: the framing the sweep journal and the serve WAL share, and
the atomic replacement that WAL compaction, checkpoints and record files
share.

A durable log (:mod:`repro.experiments.journal`, :mod:`repro.serving.wal`)
holds one sorted-keys JSON object per line::

    {"<identity>_sha256": "...", "format": "<name>", "version": 1}
    {..., "sha256": "..."}

The header names the format, its version and the SHA-256 of what the log
belongs to (a sweep campaign, a service config); every later line carries
the SHA-256 of its own content, as each format's line schema defines it.

A line counts once its newline is on disk: the bytes after the last
newline are a torn tail, never committed.  So a file without one complete
line holds nothing and starts afresh, and :meth:`LogFile.reopen` cuts a
torn tail off, fsynced, before an append could glue a line onto it.  What
a damaged *complete* line means is each format's own damage policy.

Every fsync goes through ``os.fsync``, looked up at call time, so a tracer
can count them.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import IO

from repro.errors import ConfigurationError, IntegrityError


def encode(payload: Mapping[str, object]) -> bytes:
    """Sorted-keys JSON: the canonical bytes of every line and digest."""
    return json.dumps(dict(payload), sort_keys=True).encode("utf-8")


def digest(payload: Mapping[str, object]) -> str:
    """SHA-256 of a payload's sorted-keys JSON."""
    return hashlib.sha256(encode(payload)).hexdigest()


def parse_line(line: bytes) -> dict[str, object] | None:
    """One line's JSON object; ``None`` for anything that is not one."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def read_header(path: str) -> dict[str, object] | None:
    """The JSON object on a file's first line, if it holds one, for
    ``verify-records`` to dispatch on its ``format``; the verifier then
    applies the newline rule.  Raises :class:`OSError`."""
    with open(path, "rb") as handle:
        return parse_line(handle.readline())


@dataclass(frozen=True)
class LogFormat:
    """What a log's header must say, and how errors name the log."""

    name: str  # the header's ``format``
    version: int
    identity_key: str  # e.g. ``"campaign_sha256"``
    noun: str  # e.g. ``"sweep journal"``
    mismatch: str  # why a header pinning another identity is refused

    def header(self, identity: str) -> bytes:
        """The encoded header line, newline included."""
        fields = {"format": self.name, "version": self.version, self.identity_key: identity}
        return encode(fields) + b"\n"

    def check_header(self, path: str, line: bytes, identity: str | None) -> None:
        """Validate a header line; ``identity=None`` skips the identity match."""
        header = parse_line(line)
        if (
            header is None
            or header.get("format") != self.name
            or not isinstance(header.get(self.identity_key), str)
        ):
            raise IntegrityError(f"{path}: not a {self.noun} (malformed header)")
        if header.get("version") != self.version:
            raise IntegrityError(
                f"{path}: unsupported {self.noun} version {header.get('version')!r}"
            )
        if identity is not None and header[self.identity_key] != identity:
            raise ConfigurationError(f"{path}: {self.noun} {self.mismatch}")


@dataclass(frozen=True)
class LogFile:
    """A log as read back: its header, its complete lines (newlines
    stripped) and its torn tail."""

    path: str
    header: bytes  # newline included; the one to write when ``fresh``
    lines: list[bytes]
    torn: bytes
    fresh: bool = False

    @classmethod
    def read(cls, path: str, fmt: LogFormat) -> LogFile:
        """Read a log to verify it: :class:`~repro.errors.IntegrityError`
        unless it is readable and starts with a complete, valid header."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise IntegrityError(f"cannot read {fmt.noun} {path}: {error}") from error
        return cls._split(path, raw, fmt, None)

    @classmethod
    def open(cls, path: str, fmt: LogFormat, identity: str) -> LogFile:
        """Read a log to append to it, checking its header pins ``identity``.

        A missing file, or one without a complete line, reads as ``fresh``.
        """
        raw = b""
        if os.path.exists(path):
            with open(path, "rb") as handle:
                raw = handle.read()
        if b"\n" not in raw:
            return cls(path, fmt.header(identity), [], b"", fresh=True)
        return cls._split(path, raw, fmt, identity)

    @classmethod
    def _split(cls, path: str, raw: bytes, fmt: LogFormat, identity: str | None) -> LogFile:
        lines = raw.split(b"\n")
        torn = lines.pop()
        fmt.check_header(path, lines[0] if lines else b"", identity)
        return cls(path, lines[0] + b"\n", lines[1:], torn)

    def reopen(self, *, keep: int | None = None, fsync: bool = True) -> IO[bytes]:
        """Open the log for appending.

        A fresh log gets its header.  Otherwise the file is cut after the
        header and the first ``keep`` lines (default: all), which always
        drops the torn tail, and the cut is fsynced before any append.
        """
        if self.fresh:
            handle = open(self.path, "wb")
            append(handle, self.header, fsync=fsync)
            return handle
        kept = self.lines[:keep]
        if len(kept) < len(self.lines) or self.torn:
            with open(self.path, "r+b") as repair:
                repair.truncate(len(self.header) + sum(len(line) + 1 for line in kept))
                os.fsync(repair.fileno())
        return open(self.path, "ab")


def append(handle: IO[bytes], line: bytes, *, fsync: bool = True) -> None:
    """Write one encoded line (newline included); ``fsync`` makes it durable."""
    handle.write(line)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())


def replace_file(path: str, chunks: Iterable[bytes]) -> None:
    """Atomically and durably replace ``path`` with ``chunks``.

    Temp file, fsync, ``os.replace``, then a directory fsync: a crash
    leaves the old file or the new one, and a power loss cannot roll the
    rename back.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
