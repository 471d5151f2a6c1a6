"""The HTTP/1.1 message-head reader both ends of the v1 API frame with.

A head is a start line, then header lines up to a blank line.  The server
(:mod:`repro.serving.http`) reads a request's header lines here after the
stdlib has read its request line, and
:class:`~repro.serving.client.ResilientClient` reads a response's status
line and header lines here.  The stdlib's email-package parse, which
``http.server`` and ``http.client`` run on every head, is not used.

The reader keeps the stdlib's limits and its reading of well-formed heads:

* a line holds at most :data:`MAX_LINE_BYTES` bytes, its ending included;
* a head holds at most :data:`MAX_HEAD_LINES` lines after the start line,
  the blank line that ends it included (so 99 header fields);
* bytes are read as latin-1; a name matches case-insensitively, and the
  first of a repeated name wins, as ``email.message.Message.get`` gives;
* a value loses its leading spaces and tabs and its line ending, and keeps
  trailing whitespace.

Where the email parser guesses, the reader refuses (RFC 7230 §3.2.4): a
header line that is obs-folded (starts with a space or tab), has no colon,
or has whitespace in its name raises :class:`HeadError` with status 400.
A head that breaks a limit raises it with status 431.
"""

from __future__ import annotations

from typing import BinaryIO, overload

#: Bytes in one head line, its line ending included (``http.client._MAXLINE``).
MAX_LINE_BYTES = 65536

#: Lines in a head after its start line, the closing blank line included
#: (``http.client._MAXHEADERS``).
MAX_HEAD_LINES = 100


class HeadError(ValueError):
    """A message head that cannot be read.

    ``status`` is the answer a server gives it (400 or 431), ``reason`` the
    status line's reason phrase and ``detail`` the longer explanation.
    """

    def __init__(self, status: int, reason: str, detail: str) -> None:
        super().__init__(f"{reason}: {detail}")
        self.status = status
        self.reason = reason
        self.detail = detail


class Headers:
    """The header fields of one head, by case-insensitive name."""

    __slots__ = ("_fields",)

    def __init__(self, fields: dict[str, str]) -> None:
        #: Lower-cased name -> the value of its first occurrence.
        self._fields = fields

    @overload
    def get(self, name: str) -> str | None: ...

    @overload
    def get(self, name: str, default: str) -> str: ...

    def get(self, name: str, default: str | None = None) -> str | None:
        """The value of the first field called ``name``, else ``default``."""
        return self._fields.get(name.lower(), default)

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._fields


def read_line(rfile: BinaryIO) -> bytes:
    """One head line, with its line ending; ``b""`` at end of stream."""
    line = rfile.readline(MAX_LINE_BYTES + 1)
    if len(line) > MAX_LINE_BYTES:
        raise HeadError(
            431, "Line too long", f"got more than {MAX_LINE_BYTES} bytes when reading header line"
        )
    return line


def read_fields(rfile: BinaryIO) -> Headers:
    """The header lines after a start line, up to the blank line that ends them.

    End of stream also ends the head, as it does for the stdlib.
    """
    fields: dict[str, str] = {}
    for _ in range(MAX_HEAD_LINES):
        line = read_line(rfile)
        if line == b"\r\n" or line == b"\n" or not line:
            return Headers(fields)
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or " " in name or "\t" in name:
            raise HeadError(
                400,
                "Bad header line",
                f"{line!r} is obs-folded, has no colon or has whitespace in its name",
            )
        key = name.lower()
        if key not in fields:
            fields[key] = value.lstrip(" \t").rstrip("\r\n")
    raise HeadError(431, "Too many headers", f"got more than {MAX_HEAD_LINES} headers")
