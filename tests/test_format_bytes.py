"""Version-1 bytes of the sweep journal, the serve WAL and a checkpoint.

Journals already on disk must keep resuming, and WAL readers outside the
package parse these lines, so for fixed inputs each file must come out
byte for byte as version 1 has always written it.
"""

from repro.experiments.journal import SweepJournal
from repro.experiments.results import ExperimentRecord
from repro.serving.wal import WriteAheadLog, config_digest
from repro.simulation.checkpoint import read_checkpoint, write_checkpoint
from repro.simulation.transaction import Feedback, FeedbackBatch

#: A journal of one record, as version 1 writes it.
JOURNAL_V1 = (
    b'{"campaign_sha256": "fa4866def8589cc54a2ba2b885ff3e8a64715feb74d9c63df3482a18b86598cf",'
    b' "format": "repro-sweep-journal", "version": 1}\n'
    b'{"record": {"error": null, "experiment": "figure1", "metrics": {"score": 0.5},'
    b' "params": {"n_users": 12}, "seed": 3, "status": "ok", "task_index": 0},'
    b' "sha256": "93910e14e828d2f8c66f7a1bbc90ba875aed7360a470890594a3088d12ff42e4",'
    b' "task_index": 0}\n'
)

#: A WAL of a 2-event keyed batch and a 1-event unkeyed one, as version 1
#: writes it.
WAL_V1 = (
    b'{"config_sha256": "f14acb5b313d38f92fafe3f00987aa84de756eb4dcceada25770535fb1ae2322",'
    b' "format": "repro-serve-wal", "version": 1}\n'
    b'{"events": [{"rater": "c1", "rating": 1.0, "subject": "alice", "time": 0,'
    b' "transaction_id": 0, "truthful": true}, {"rater": null, "rating": 0.25,'
    b' "subject": "bob", "time": 0, "transaction_id": 1, "truthful": false}],'
    b' "key": "c1-0", "n": 2, "seq": 0,'
    b' "sha256": "04952cda7532cb295ff06da94fb8a125c06dddc59e282d27b02b2c4e97f2990a"}\n'
    b'{"events": [{"rater": "c2", "rating": 0.0, "subject": "alice", "time": 1,'
    b' "transaction_id": 2, "truthful": true}], "key": null, "n": 1, "seq": 2,'
    b' "sha256": "14e5bf35715aaaeca4d3a04aa8a63065510180a1e0bffec76f70a4b94dc2e8fd"}\n'
)

#: ``write_checkpoint(path, "probe", [1], round_index=2)``, as version 1
#: writes it: a sorted-keys JSON header line, then the pickle.
CHECKPOINT_V1 = (
    b'{"format": "repro-checkpoint", "kind": "probe", "payload_bytes": 17,'
    b' "payload_sha256": "4161bccd029bec6dfae5cc2e6620fc7864b70ff481c3a1117f9926854a9b1974",'
    b' "round_index": 2, "version": 1}\n'
    b"\x80\x04\x95\x06\x00\x00\x00\x00\x00\x00\x00]\x94K\x01a."
)


def write_journal(path):
    journal, _, _ = SweepJournal.open(str(path), {"experiment": "figure1", "seed": 1})
    journal.append(
        ExperimentRecord(
            experiment="figure1",
            task_index=0,
            params={"n_users": 12},
            seed=3,
            status="ok",
            metrics={"score": 0.5},
        )
    )
    journal.close()


def write_wal(path):
    config = config_digest({"mechanism": "beta", "refresh_every": 4})
    wal, _, _ = WriteAheadLog.open(str(path), config_sha256=config)
    wal.append(
        FeedbackBatch.of(
            [
                Feedback(transaction_id=0, time=0, subject="alice", rating=1.0, rater="c1"),
                Feedback(
                    transaction_id=1, time=0, subject="bob", rating=0.25, rater=None, truthful=False
                ),
            ]
        ),
        seq=0,
        key="c1-0",
    )
    wal.append(
        FeedbackBatch.of(
            [Feedback(transaction_id=2, time=1, subject="alice", rating=0.0, rater="c2")]
        ),
        seq=2,
    )
    wal.close()


class TestVersionOneBytes:
    def test_journal_bytes(self, tmp_path):
        path = tmp_path / "sweep.jnl"
        write_journal(path)
        assert path.read_bytes() == JOURNAL_V1

    def test_wal_bytes(self, tmp_path):
        path = tmp_path / "serve.wal"
        write_wal(path)
        assert path.read_bytes() == WAL_V1

    def test_version_one_files_reopen_intact(self, tmp_path):
        journal_path = tmp_path / "sweep.jnl"
        journal_path.write_bytes(JOURNAL_V1)
        journal, completed, n_invalid = SweepJournal.open(
            str(journal_path), {"experiment": "figure1", "seed": 1}
        )
        journal.close()
        assert (sorted(completed), n_invalid) == ([0], 0)
        wal_path = tmp_path / "serve.wal"
        wal_path.write_bytes(WAL_V1)
        wal, entries, truncated = WriteAheadLog.open(
            str(wal_path), config_sha256=config_digest({"mechanism": "beta", "refresh_every": 4})
        )
        wal.close()
        assert ([entry.end for entry in entries], truncated) == ([2, 3], 0)
        assert journal_path.read_bytes() == JOURNAL_V1
        assert wal_path.read_bytes() == WAL_V1

    def test_checkpoint_bytes(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(str(path), "probe", [1], round_index=2)
        assert path.read_bytes() == CHECKPOINT_V1
        assert read_checkpoint(str(path), expected_kind="probe")[1] == [1]
