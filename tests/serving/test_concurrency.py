"""Thread-safety of the service session: no torn reads, ordered acks."""

import json
import sys
import threading
import time

from repro.serving.service import ReputationService, ServiceConfig
from repro.serving.wal import WriteAheadLog, config_digest, verify_wal


def make_service(tmp_path, **overrides):
    config = ServiceConfig(refresh_every=8, **overrides)
    wal, _, _ = WriteAheadLog.open(
        str(tmp_path / "serve.wal"),
        config_sha256=config_digest(config.wal_identity()),
        fsync=False,
    )
    return ReputationService(config, wal=wal)


def event(index, subject):
    return {"subject": subject, "rating": 0.75, "time": index, "transaction_id": index}


def run_threads(targets):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)


N_WRITERS = 4
BATCHES_PER_WRITER = 25
BATCH = 3


class TestThreadedIngest:
    def test_every_batch_lands_and_wal_matches_ack_order(self, tmp_path):
        service = make_service(tmp_path)
        receipts = [[] for _ in range(N_WRITERS)]

        def writer(index):
            for batch_no in range(BATCHES_PER_WRITER):
                key = f"w{index}-{batch_no}"
                base = (index * BATCHES_PER_WRITER + batch_no) * BATCH
                events = [event(base + i, f"peer-{index}") for i in range(BATCH)]
                receipts[index].append(
                    (key, service.ingest_many(events, idempotency_key=key))
                )

        run_threads([lambda i=i: writer(i) for i in range(N_WRITERS)])

        total = N_WRITERS * BATCHES_PER_WRITER * BATCH
        assert service.health()["ingested"] == total
        service.close()

        # The WAL holds every acked batch, contiguous, in ack order.
        wal_path = str(tmp_path / "serve.wal")
        assert verify_wal(wal_path) == (N_WRITERS * BATCHES_PER_WRITER, 0)
        reopened, entries, truncated = WriteAheadLog.open(
            wal_path,
            config_sha256=config_digest(service.config.wal_identity()),
        )
        reopened.close()
        assert truncated == 0
        assert [entry.seq for entry in entries] == list(range(0, total, BATCH))
        # Ack ordering == WAL ordering: the seq each client was acked with
        # is the seq its batch sits at in the log.
        wal_seq_by_key = {entry.key: entry.seq for entry in entries}
        for per_writer in receipts:
            for key, receipt in per_writer:
                assert receipt.duplicate is False
                assert wal_seq_by_key[key] == receipt.seq

    def test_concurrent_same_key_ingests_once(self, tmp_path):
        service = make_service(tmp_path)
        events = [event(i, "alice") for i in range(BATCH)]
        results = []

        def contender():
            results.append(service.ingest_many(events, idempotency_key="shared"))

        run_threads([contender for _ in range(8)])
        assert service.health()["ingested"] == BATCH
        originals = [receipt for receipt in results if not receipt.duplicate]
        assert len(originals) == 1
        assert all(receipt.accepted == BATCH for receipt in results)
        service.close()


class TestReadersUnderLoad:
    def test_watermarks_monotone_and_counters_never_torn(self, tmp_path):
        service = make_service(tmp_path)
        stop = threading.Event()
        torn = []
        watermarks_seen = [[] for _ in range(2)]

        def writer(index):
            for batch_no in range(BATCHES_PER_WRITER):
                base = (index * BATCHES_PER_WRITER + batch_no) * BATCH
                service.ingest_many(
                    [event(base + i, f"peer-{index}") for i in range(BATCH)]
                )
            stop.set()

        def reader(index):
            while not stop.is_set():
                health = service.health()
                if health["pending"] != health["ingested"] - health["watermark"]:
                    torn.append(health)
                view = service.scores()
                if set(view.ranking()) != set(view):
                    torn.append(dict(view))
                watermarks_seen[index].append(health["watermark"])

        run_threads(
            [lambda: writer(0), lambda: writer(1)]
            + [lambda i=i: reader(i) for i in range(2)]
        )
        assert torn == []
        for seen in watermarks_seen:
            assert seen == sorted(seen)
        service.close()

    def test_evidence_read_mid_ingest_is_a_prefix_of_the_log(self):
        # evidence() builds its reports outside the session lock, from rows
        # it counted under it: ingest must never change those rows.
        service = ReputationService(refresh_every=8)
        stop = threading.Event()
        first_read = threading.Event()
        reads = []

        def writer():
            for base in range(0, 1200, BATCH):
                service.ingest_many([event(base + i, f"peer-{base % 7}") for i in range(BATCH)])
                if base == 0:
                    # At least one read must return before the ingest ends.
                    first_read.wait(timeout=60)
            stop.set()

        def reader():
            while not stop.is_set():
                reads.append(service.evidence())
                first_read.set()

        run_threads([writer, reader])
        final = service.evidence()
        assert len(final) == 1200 and reads
        assert all(read == final[: len(read)] for read in reads)

    def test_full_bodies_carry_the_scores_published_at_their_watermark(self):
        """Full ``/v1/scores`` reads race an ingest across refresh
        boundaries: each body's members must be the ones published at its
        own watermark, never a previous publication's."""
        events = [
            {
                "subject": f"peer-{i % 11}",
                "rating": (i * 7 % 10) / 9,
                "rater": f"peer-{i * 3 % 13}",
                "time": i,
                "transaction_id": i,
            }
            for i in range(600)
        ]
        batches = [events[start : start + BATCH] for start in range(0, len(events), BATCH)]
        control = ReputationService(refresh_every=8)
        published = {0: ({}, [])}
        for batch in batches:
            control.ingest_many(batch)
            view = control.scores()
            published[view.watermark] = (dict(view), view.ranking())
        assert len(published) == 1 + len(events) // 8

        service = ReputationService(refresh_every=8)
        bodies = [service.scores_json()]  # the first publication's members are filled
        stop = threading.Event()

        def writer():
            # After each batch, let a read in before the next one.
            for batch in batches:
                service.ingest_many(batch)
                seen = len(bodies)
                deadline = time.monotonic() + 5.0
                while len(bodies) == seen and time.monotonic() < deadline:
                    time.sleep(0)
            stop.set()

        def reader():
            while not stop.is_set():
                bodies.append(service.scores_json())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside scores_json too
        try:
            run_threads([writer, reader, reader])
        finally:
            sys.setswitchinterval(interval)
        bodies.append(service.scores_json())
        watermarks = set()
        for raw in bodies:
            body = json.loads(raw)
            assert json.dumps(body, sort_keys=True).encode("utf-8") == raw
            assert body["pending"] >= 0
            assert body["watermark"] + body["pending"] <= len(events)
            assert (body["scores"], body["ranking"]) == published[body["watermark"]]
            watermarks.add(body["watermark"])
        assert len(watermarks) > 10


class TestSnapshotUnderLoad:
    def test_snapshot_mid_traffic_recovers_identically(self, tmp_path):
        service = make_service(tmp_path)
        snapshots = []

        def writer(index):
            for batch_no in range(BATCHES_PER_WRITER):
                base = (index * BATCHES_PER_WRITER + batch_no) * BATCH
                service.ingest_many(
                    [event(base + i, f"peer-{index}") for i in range(BATCH)]
                )

        def snapshotter():
            for round_no in range(5):
                path = tmp_path / f"mid-{round_no}.ckpt"
                service.snapshot(str(path))
                snapshots.append(path)

        run_threads([lambda i=i: writer(i) for i in range(N_WRITERS)] + [snapshotter])
        service.refresh()
        live_scores = dict(service.scores())
        live_ingested = service.health()["ingested"]
        service.close()

        # Latest snapshot + WAL replay reproduces the live session exactly.
        recovered = ReputationService.recover(
            wal_path=str(tmp_path / "serve.wal"),
            snapshot_path=str(snapshots[-1]),
            wal_fsync=False,
        )
        assert recovered.health()["ingested"] == live_ingested
        recovered.refresh()
        assert dict(recovered.scores()) == live_scores
        recovered.close()
