"""The write-ahead evidence log: format, damage policy, compaction."""

import json
import warnings

import pytest

import repro.faults as faults
from repro import durable
from repro.errors import ConfigurationError, IntegrityError
from repro.serving.service import ReputationService, ServiceConfig
from repro.serving.wal import (
    TornTailWarning,
    WriteAheadLog,
    config_digest,
    verify_wal,
)
from repro.simulation.transaction import Feedback, FeedbackBatch

CONFIG = config_digest({"mechanism": "beta", "refresh_every": 4})
OTHER_CONFIG = config_digest({"mechanism": "average", "refresh_every": 4})


def event(index, subject="alice", rating=1.0):
    return Feedback(
        transaction_id=index,
        time=index,
        subject=subject,
        rating=rating,
        rater="client",
    )


def wire(feedback):
    """One event as the WAL writes it: a dict of its six fields."""
    return {
        "rater": feedback.rater,
        "rating": feedback.rating,
        "subject": feedback.subject,
        "time": feedback.time,
        "transaction_id": feedback.transaction_id,
        "truthful": feedback.truthful,
    }


def batches(*sizes):
    """Contiguous batches of the given sizes, starting at seq 0."""
    seq = 0
    out = []
    for size in sizes:
        out.append((seq, [event(seq + i) for i in range(size)]))
        seq += size
    return out


def fresh_wal(path, *sizes, keys=None):
    wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
    assert entries == [] and truncated == 0
    for index, (seq, events) in enumerate(batches(*sizes)):
        key = None if keys is None else keys[index]
        wal.append(FeedbackBatch.of(events), seq=seq, key=key)
    return wal


class TestLineBytes:
    @pytest.mark.parametrize(
        "key", [None, "c1-0", 'say "hi"', "back\\slash", "naïve-ключ-☃", "tab\tnew\nline"]
    )
    def test_line_is_the_sorted_keys_encoding_with_its_digest(self, tmp_path, key):
        """One encode spliced with its digest gives the bytes of encoding
        the body, hashing it and encoding it again with ``sha256``."""
        events = [
            Feedback(transaction_id=7, time=3, subject='q"uote', rating=0.25, rater="b\\s"),
            Feedback(
                transaction_id=8, time=4, subject="zoë-日本", rating=1.0, rater=None, truthful=False
            ),
        ]
        path = tmp_path / "serve.wal"
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG, fsync=False)
        with wal:
            wal.append(FeedbackBatch.of(events), seq=5, key=key)
        body = {"events": [wire(feedback) for feedback in events], "key": key, "n": 2, "seq": 5}
        expected = durable.encode({**body, "sha256": durable.digest(body)}) + b"\n"
        assert path.read_bytes().split(b"\n", 1)[1] == expected
        reopened, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        reopened.close()
        assert truncated == 0
        assert [(entry.seq, entry.key, len(entry.events)) for entry in entries] == [(5, key, 2)]
        assert [entries[0].events.feedback(row) for row in range(2)] == events


class TestWireFormat:
    def test_feedback_roundtrip(self, tmp_path):
        original = Feedback(
            transaction_id=7, time=3, subject="bob", rating=0.25, rater="c", truthful=False
        )
        path = tmp_path / "serve.wal"
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG, fsync=False)
        with wal:
            wal.append(FeedbackBatch.of([original]), seq=0)
        reopened, entries, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        reopened.close()
        assert entries[0].events.feedback(0) == original

    def test_missing_field_is_integrity_error(self, tmp_path):
        """An event without a field, or whose rating is not a number in
        [0, 1], is damage even under a valid digest: below an acked batch,
        it fails the log."""
        path = tmp_path / "serve.wal"
        fresh_wal(path, 1, 1, 1).close()
        intact = path.read_bytes()
        damages = [
            lambda event: event.pop("subject"),
            lambda event: event.update(rating=None),
            lambda event: event.update(rating=False),
            lambda event: event.update(rating=True),
            lambda event: event.update(rating="1.0"),
            lambda event: event.update(rating=1.5),
        ]
        for damage in damages:
            lines = intact[:-1].split(b"\n")
            body = json.loads(lines[2])
            del body["sha256"]
            damage(body["events"][0])
            lines[2] = durable.encode({**body, "sha256": durable.digest(body)})
            path.write_bytes(b"\n".join(lines) + b"\n")
            with pytest.raises(IntegrityError, match="damaged interior line"):
                verify_wal(str(path))

    def test_int_rating_replays_as_float(self, tmp_path):
        """A digest-valid event with an int rating (``0`` or ``1``) is intact
        and replays as the float, as the store holds it."""
        path = tmp_path / "serve.wal"
        fresh_wal(path, 1).close()
        lines = path.read_bytes()[:-1].split(b"\n")
        body = json.loads(lines[1])
        del body["sha256"]
        body["events"][0]["rating"] = 1
        lines[1] = durable.encode({**body, "sha256": durable.digest(body)})
        path.write_bytes(b"\n".join(lines) + b"\n")
        reopened, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        reopened.close()
        assert truncated == 0
        assert entries[0].events.ratings == [1.0]
        assert type(entries[0].events.ratings[0]) is float

    def test_config_digest_is_order_insensitive(self):
        a = config_digest({"mechanism": "beta", "refresh_every": 4})
        b = config_digest({"refresh_every": 4, "mechanism": "beta"})
        assert a == b
        assert a != OTHER_CONFIG


class TestRoundTrip:
    def test_append_then_reopen_replays_in_order(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 3, 1, keys=["a", None, "c"])
        assert wal.entry_count == 3
        assert wal.event_count == 6
        wal.close()

        reopened, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 0
        assert [(entry.seq, entry.key, len(entry.events)) for entry in entries] == [
            (0, "a", 2),
            (2, None, 3),
            (5, "c", 1),
        ]
        assert entries[0].events.feedback(0) == event(0)
        assert entries[-1].end == 6
        assert reopened.entry_count == 3
        reopened.close()

    def test_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "new.wal"
        wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert (entries, truncated) == ([], 0)
        header = json.loads(path.read_bytes().split(b"\n")[0])
        assert header == {
            "config_sha256": CONFIG,
            "format": "repro-serve-wal",
            "version": 1,
        }
        wal.close()

    def test_torn_header_is_recreated(self, tmp_path):
        path = tmp_path / "torn-header.wal"
        path.write_bytes(b'{"config_sha256": "abc')  # crash mid-header, no newline
        wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert (entries, truncated) == ([], 0)
        assert verify_wal(str(path)) == (0, 0)
        wal.close()

    def test_config_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2).close()
        with pytest.raises(ConfigurationError, match="differently-configured"):
            WriteAheadLog.open(str(path), config_sha256=OTHER_CONFIG)


class TestDamagePolicy:
    def test_torn_tail_truncated_with_structured_warning(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 2).close()
        intact = path.read_bytes()
        torn = intact[:-1].rsplit(b"\n", 1)[0] + b"\n" + b'{"events": [], "ke'
        path.write_bytes(torn)

        with pytest.warns(TornTailWarning) as caught:
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 1
        assert [entry.seq for entry in entries] == [0]
        detail = json.loads(str(caught[0].message))
        assert detail["kept_entries"] == 1
        assert detail["truncated_lines"] == 1
        assert detail["path"] == str(path)
        assert detail["truncated_bytes"] > 0
        # The file itself was repaired: a second open is clean.
        wal.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 0
        assert len(entries) == 1
        wal.close()

    def test_bit_flipped_tail_line_is_truncated(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 2).close()
        raw = path.read_bytes()
        # Flip one digest byte inside the last line: checksum must catch it.
        lines = raw[:-1].split(b"\n")
        lines[-1] = lines[-1].replace(b'"sha256": "', b'"sha256": "X', 1)
        path.write_bytes(b"\n".join(lines) + b"\n")

        with pytest.warns(TornTailWarning):
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 1
        assert len(entries) == 1
        wal.close()

    def test_interior_damage_hard_fails(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 2, 2).close()
        raw = path.read_bytes()
        lines = raw[:-1].split(b"\n")
        lines[2] = b"garbage"  # second batch, under an acked third
        path.write_bytes(b"\n".join(lines) + b"\n")

        with pytest.raises(IntegrityError, match="damaged interior line"):
            WriteAheadLog.open(str(path), config_sha256=CONFIG)
        with pytest.raises(IntegrityError, match="damaged interior line"):
            verify_wal(str(path))

    def test_sequence_gap_hard_fails(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        wal.append(FeedbackBatch.of([event(0)]), seq=0)
        wal.append(FeedbackBatch.of([event(5)]), seq=5)  # a batch went missing
        wal.close()
        with pytest.raises(IntegrityError, match="sequence gap"):
            verify_wal(str(path))

    def test_verify_wal_never_modifies(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2).close()
        damaged = path.read_bytes() + b'{"torn'
        path.write_bytes(damaged)
        assert verify_wal(str(path)) == (1, 1)
        assert path.read_bytes() == damaged

    def test_corrupt_fault_produces_recoverable_torn_tail(self, tmp_path):
        path = tmp_path / "serve.wal"
        plan = faults.FaultPlan(
            rules=(faults.FaultRule(site="wal.append", action="corrupt", match=(("seq", 2),)),)
        )
        wal, _, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        with faults.active(plan):
            wal.append(FeedbackBatch.of([event(0), event(1)]), seq=0)
            wal.append(FeedbackBatch.of([event(2)]), seq=2)  # this line lands corrupted
        wal.close()

        assert verify_wal(str(path)) == (1, 1)
        with pytest.warns(TornTailWarning):
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        assert truncated == 1
        assert [entry.seq for entry in entries] == [0]
        wal.close()


class TestCompaction:
    def test_covered_batches_dropped_atomically(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 2, 2)
        assert wal.compact(4) == 2
        assert wal.entry_count == 1
        assert wal.event_count == 2
        # Appends keep working on the rewritten handle.
        wal.append(FeedbackBatch.of([event(6)]), seq=6)
        wal.close()
        reopened, entries, _ = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        reopened.close()
        assert [entry.seq for entry in entries] == [4, 6]

    def test_straddling_batch_is_kept(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 2)
        # upto_seq=3 covers only half the second batch: it must survive.
        assert wal.compact(3) == 1
        assert wal.entry_count == 1
        wal.close()

    def test_compact_keeps_unvouched_lines_verbatim(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2)
        wal.close()
        torn = b'{"not": "a batch"'
        with open(path, "ab") as handle:
            handle.write(torn + b"\n")
        # Reattach without open()'s repair: compact straight off a raw handle.
        reopened = WriteAheadLog(
            str(path), open(path, "ab"), config_sha256=CONFIG, entries=1, events=2
        )
        assert reopened.compact(2) == 1
        reopened.close()
        assert torn in path.read_bytes()

    def test_compact_zero_is_noop(self, tmp_path):
        path = tmp_path / "serve.wal"
        wal = fresh_wal(path, 2, 2)
        before = path.read_bytes()
        assert wal.compact(0) == 0
        wal.close()
        assert path.read_bytes() == before


class TestNewlineRule:
    """A batch counts only once its newline is on disk."""

    def test_batch_one_byte_short_of_its_newline_is_tail(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2, 1).close()
        path.write_bytes(path.read_bytes()[:-1])
        assert verify_wal(str(path)) == (1, 1)
        with pytest.warns(TornTailWarning):
            wal, entries, truncated = WriteAheadLog.open(str(path), config_sha256=CONFIG)
        wal.close()
        assert ([entry.seq for entry in entries], truncated) == ([0], 1)
        assert verify_wal(str(path)) == (1, 0)

    def test_batch_acked_after_a_torn_one_survives_recovery(self, tmp_path):
        path = str(tmp_path / "serve.wal")
        config = ServiceConfig(mechanism="beta", refresh_every=4)
        service = ReputationService.recover(wal_path=path, config=config)
        service.ingest_many([event(0), event(1)], idempotency_key="k0")
        service.ingest_many([event(2)], idempotency_key="k1")
        service.close()
        with open(path, "rb+") as handle:  # the last batch was never acked
            handle.truncate(handle.seek(0, 2) - 1)

        with pytest.warns(TornTailWarning):
            service = ReputationService.recover(wal_path=path, config=config)
        assert service.health()["ingested"] == 2
        acked = service.ingest_many([event(2), event(3)], idempotency_key="k2")
        service.close()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            recovered = ReputationService.recover(wal_path=path, config=config)
        assert recovered.health()["ingested"] == acked.ingested == 4
        assert verify_wal(path) == (2, 0)
        recovered.close()


class TestAttach:
    def test_a_second_wal_is_refused_and_left_unopened(self, tmp_path):
        service = ReputationService.recover(wal_path=str(tmp_path / "serve.wal"), wal_fsync=False)
        try:
            with pytest.raises(ConfigurationError, match="already attached"):
                service.attach_wal(str(tmp_path / "other.wal"))
        finally:
            service.close()
        assert not (tmp_path / "other.wal").exists()


class TestHeaderCheck:
    def test_unsupported_version_is_refused_by_open_and_verify(self, tmp_path):
        path = tmp_path / "serve.wal"
        fresh_wal(path, 2).close()
        path.write_bytes(path.read_bytes().replace(b'"version": 1', b'"version": 2', 1))
        with pytest.raises(IntegrityError, match="unsupported .*WAL version 2"):
            WriteAheadLog.open(str(path), config_sha256=CONFIG)
        with pytest.raises(IntegrityError, match="unsupported .*WAL version 2"):
            verify_wal(str(path))
