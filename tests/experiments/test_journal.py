"""The durable sweep journal: resume semantics and damage tolerance."""

import json

import pytest

from repro.errors import ConfigurationError, IntegrityError
from repro.experiments.journal import SweepJournal, campaign_digest, verify_journal
from repro.experiments.results import records_to_json
from repro.experiments.sweep import SweepSpec, run_sweep

SPEC = dict(
    experiment="figure1",
    grids={"n_users": [12, 16], "rounds": [6, 8]},
)


def make_spec(seed=7):
    return SweepSpec(**SPEC, seed=seed)


def _json(result):
    return records_to_json(result.records, campaign=result.spec.campaign_metadata())


def _journal_lines(path):
    return path.read_bytes().split(b"\n")


class TestJournaledSweep:
    def test_journaled_sweep_matches_cold_sweep(self, tmp_path):
        cold = _json(run_sweep(make_spec()))
        journaled = run_sweep(make_spec(), journal=str(tmp_path / "sweep.jnl"))
        assert _json(journaled) == cold
        assert journaled.n_resumed == 0

    def test_rerun_resumes_every_task(self, tmp_path):
        journal = str(tmp_path / "sweep.jnl")
        first = run_sweep(make_spec(), journal=journal)
        executed = []
        second = run_sweep(make_spec(), journal=journal, on_record=executed.append)
        assert executed == []  # nothing left to run
        assert second.n_resumed == 4
        assert _json(second) == _json(first)

    def test_partial_journal_resumes_only_missing_tasks(self, tmp_path):
        cold = _json(run_sweep(make_spec()))
        journal_path = tmp_path / "sweep.jnl"
        run_sweep(make_spec(), journal=str(journal_path))
        # Keep the header plus the first two record lines — as if the
        # process died after completing tasks 0 and 1.
        lines = _journal_lines(journal_path)
        journal_path.write_bytes(b"\n".join(lines[:3]) + b"\n")

        executed = []
        result = run_sweep(make_spec(), journal=str(journal_path), on_record=executed.append)
        assert sorted(record.task_index for record in executed) == [2, 3]
        assert result.n_resumed == 2
        assert _json(result) == cold

    def test_corrupt_line_re_executes_only_that_task(self, tmp_path):
        cold = _json(run_sweep(make_spec()))
        journal_path = tmp_path / "sweep.jnl"
        run_sweep(make_spec(), journal=str(journal_path))
        lines = _journal_lines(journal_path)
        damaged = bytearray(lines[2])
        damaged[len(damaged) // 2] ^= 0x01
        lines[2] = bytes(damaged)
        journal_path.write_bytes(b"\n".join(lines))

        executed = []
        result = run_sweep(make_spec(), journal=str(journal_path), on_record=executed.append)
        # With jobs=1 the journal lines are in task order, so line 2 held
        # task 1 — the only task the damage should force back out.
        assert [record.task_index for record in executed] == [1]
        assert result.n_resumed == 3
        assert _json(result) == cold

    def test_truncated_tail_line_is_survivable(self, tmp_path):
        cold = _json(run_sweep(make_spec()))
        journal_path = tmp_path / "sweep.jnl"
        run_sweep(make_spec(), journal=str(journal_path))
        # Chop the file mid-way through the last record line: the classic
        # crash-during-append shape.
        raw = journal_path.read_bytes()
        journal_path.write_bytes(raw[: len(raw) - 40])

        result = run_sweep(make_spec(), journal=str(journal_path))
        assert result.n_resumed == 3
        assert _json(result) == cold

    def test_different_campaign_is_rejected(self, tmp_path):
        journal = str(tmp_path / "sweep.jnl")
        run_sweep(make_spec(seed=7), journal=journal)
        with pytest.raises(ConfigurationError, match="different campaign"):
            run_sweep(make_spec(seed=8), journal=journal)

    def test_malformed_header_is_rejected(self, tmp_path):
        journal_path = tmp_path / "sweep.jnl"
        journal_path.write_bytes(b"this is not a journal\n")
        with pytest.raises(IntegrityError, match="malformed header"):
            run_sweep(make_spec(), journal=str(journal_path))

    @pytest.mark.parametrize(
        "torn", [b"", b'{"campaign_sha256": "ab'], ids=["empty", "partial-line"]
    )
    def test_torn_header_is_recreated(self, tmp_path, torn):
        # A crash before the header's newline hit the disk: the header is
        # fsynced before any record, so the file holds nothing to resume.
        journal_path = tmp_path / "sweep.jnl"
        journal_path.write_bytes(torn)
        cold = _json(run_sweep(make_spec()))
        resumed = run_sweep(make_spec(), journal=str(journal_path))
        assert resumed.n_resumed == 0
        assert _json(resumed) == cold
        assert verify_journal(str(journal_path)) == (len(resumed.records), 0)


class TestJournalPrimitives:
    def test_open_creates_header_with_campaign_digest(self, tmp_path):
        path = tmp_path / "fresh.jnl"
        campaign = {"experiment": "figure1", "seed": 1}
        journal, completed, n_invalid = SweepJournal.open(str(path), campaign)
        journal.close()
        assert completed == {}
        assert n_invalid == 0
        header = json.loads(_journal_lines(path)[0])
        assert header["campaign_sha256"] == campaign_digest(campaign)

    def test_verify_journal_counts_damage(self, tmp_path):
        journal_path = tmp_path / "sweep.jnl"
        run_sweep(make_spec(), journal=str(journal_path))
        assert verify_journal(str(journal_path)) == (4, 0)
        lines = _journal_lines(journal_path)
        damaged = bytearray(lines[3])
        damaged[len(damaged) // 2] ^= 0x01
        lines[3] = bytes(damaged)
        journal_path.write_bytes(b"\n".join(lines))
        assert verify_journal(str(journal_path)) == (3, 1)

    def test_verify_journal_rejects_non_journal(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"\x00\x01\x02\n")
        with pytest.raises(IntegrityError):
            verify_journal(str(path))
