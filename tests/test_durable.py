"""Durable files: the shared log framing, the newline rule, atomic replacement."""

import os

import pytest

from repro import durable
from repro.errors import ConfigurationError, IntegrityError
from repro.experiments.journal import SweepJournal
from repro.experiments.results import ExperimentRecord
from repro.serving.wal import WriteAheadLog
from repro.simulation.transaction import Feedback, FeedbackBatch

FORMAT = durable.LogFormat(
    name="repro-test-log",
    version=1,
    identity_key="thing_sha256",
    noun="test log",
    mismatch="belongs to another thing",
)


class TestFraming:
    def test_encode_sorts_keys(self):
        assert durable.encode({"b": 1, "a": [2]}) == b'{"a": [2], "b": 1}'
        assert durable.digest({"b": 1, "a": 2}) == durable.digest({"a": 2, "b": 1})

    @pytest.mark.parametrize("line", [b"", b"[1, 2]", b"\xff\xfe", b'{"a": 1'])
    def test_parse_line_rejects_anything_but_an_object(self, line):
        assert durable.parse_line(line) is None

    def test_header_round_trips_through_the_check(self, tmp_path):
        line = FORMAT.header("abc")
        assert line == b'{"format": "repro-test-log", "thing_sha256": "abc", "version": 1}\n'
        FORMAT.check_header("p", line, "abc")
        FORMAT.check_header("p", line, None)
        with pytest.raises(ConfigurationError, match="p: test log belongs to another thing"):
            FORMAT.check_header("p", line, "xyz")

    @pytest.mark.parametrize(
        "line",
        [
            b"not json",
            b'{"format": "other", "thing_sha256": "abc", "version": 1}',
            b'{"format": "repro-test-log", "version": 1}',
            b'{"format": "repro-test-log", "thing_sha256": 7, "version": 1}',
        ],
    )
    def test_malformed_headers(self, line):
        with pytest.raises(IntegrityError, match="not a test log \\(malformed header\\)"):
            FORMAT.check_header("p", line, None)

    def test_other_version_is_refused(self):
        line = b'{"format": "repro-test-log", "thing_sha256": "abc", "version": 2}'
        with pytest.raises(IntegrityError, match="unsupported test log version 2"):
            FORMAT.check_header("p", line, None)

    def test_read_header(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(FORMAT.header("abc") + b"rest")
        assert durable.read_header(str(path))["format"] == "repro-test-log"
        path.write_bytes(b"\x00\x01\n" + FORMAT.header("abc"))
        assert durable.read_header(str(path)) is None


class TestNewlineRule:
    def test_bytes_after_the_last_newline_are_torn(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(FORMAT.header("abc") + b"one\n\ntwo\nthr")
        log = durable.LogFile.read(str(path), FORMAT)
        assert (log.lines, log.torn, log.fresh) == ([b"one", b"", b"two"], b"thr", False)

    @pytest.mark.parametrize("raw", [None, b"", b'{"format": "repro-te'])
    def test_no_complete_line_starts_afresh(self, tmp_path, raw):
        path = tmp_path / "log"
        if raw is not None:
            path.write_bytes(raw)
        log = durable.LogFile.open(str(path), FORMAT, "abc")
        assert (log.lines, log.torn, log.fresh) == ([], b"", True)
        log.reopen().close()
        assert path.read_bytes() == FORMAT.header("abc")

    def test_verify_needs_a_complete_header(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(FORMAT.header("abc")[:-1])
        with pytest.raises(IntegrityError, match="malformed header"):
            durable.LogFile.read(str(path), FORMAT)
        with pytest.raises(IntegrityError, match="cannot read test log"):
            durable.LogFile.read(str(tmp_path / "absent"), FORMAT)

    def test_reopen_cuts_the_torn_tail_before_appending(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(FORMAT.header("abc") + b"one\ntw")
        handle = durable.LogFile.open(str(path), FORMAT, "abc").reopen()
        durable.append(handle, b"two\n")
        handle.close()
        assert path.read_bytes() == FORMAT.header("abc") + b"one\ntwo\n"

    def test_reopen_keeps_only_the_first_lines_asked_for(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(FORMAT.header("abc") + b"one\nbad\nworse\nto")
        durable.LogFile.open(str(path), FORMAT, "abc").reopen(keep=1).close()
        assert path.read_bytes() == FORMAT.header("abc") + b"one\n"

    def test_an_intact_log_is_not_rewritten(self, tmp_path, monkeypatch):
        path = tmp_path / "log"
        path.write_bytes(FORMAT.header("abc") + b"one\n")
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        durable.LogFile.open(str(path), FORMAT, "abc").reopen().close()
        assert synced == []
        assert path.read_bytes() == FORMAT.header("abc") + b"one\n"


class TestFsyncs:
    """One fsync per append and per header, two per replacement, each
    through ``os.fsync`` looked up at call time (tracers swap it)."""

    def _count(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def counting(fd):
            calls.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting)
        return calls

    def test_one_per_append(self, tmp_path, monkeypatch):
        wal, _, _ = WriteAheadLog.open(str(tmp_path / "serve.wal"), config_sha256="c")
        journal, _, _ = SweepJournal.open(str(tmp_path / "sweep.jnl"), {"seed": 1})
        calls = self._count(monkeypatch)
        wal.append(
            FeedbackBatch.of(
                [Feedback(transaction_id=0, time=0, subject="a", rating=1.0, rater="r")]
            ),
            seq=0,
        )
        assert len(calls) == 1
        record = ExperimentRecord(
            experiment="figure1", task_index=0, params={}, seed=None, status="ok"
        )
        journal.append(record)
        assert len(calls) == 2
        wal.close()
        journal.close()

    def test_header_write_and_replacement(self, tmp_path, monkeypatch):
        calls = self._count(monkeypatch)
        wal, _, _ = WriteAheadLog.open(str(tmp_path / "serve.wal"), config_sha256="c")
        assert len(calls) == 1
        wal.compact(0)
        assert len(calls) == 3  # the temp file, then its directory
        wal.close()


class TestReplaceFile:
    def test_replaces_whole_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "state"
        path.write_bytes(b"old contents")
        durable.replace_file(str(path), [b"new ", b"contents"])
        assert path.read_bytes() == b"new contents"
        assert os.listdir(tmp_path) == ["state"]
