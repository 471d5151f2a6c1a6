"""Checkpoint/resume: RNG snapshots, the file format, and simulator restore."""

import os
import pickle
import stat

import pytest

from repro.errors import CheckpointError
from repro.simulation.checkpoint import (
    CHECKPOINT_MAGIC,
    capture_state,
    load_simulator_checkpoint,
    read_checkpoint,
    restore_simulator,
    save_simulator_checkpoint,
    write_checkpoint,
)
from repro.simulation.engine import InteractionSimulator, SimulationConfig
from repro.simulation.rng import RandomStreams
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network


def make_simulator(rounds=10, seed=3, n_users=16):
    graph = generate_social_network(
        SocialNetworkSpec(n_users=n_users, malicious_fraction=0.25, seed=seed)
    )
    return InteractionSimulator(graph, SimulationConfig(rounds=rounds, seed=seed))


class TestRandomStreamsSnapshot:
    def test_snapshot_restore_round_trip(self):
        streams = RandomStreams(42)
        streams.stream("churn").random()
        streams.stream("behavior").random()
        snapshot = streams.snapshot()
        expected = [streams.stream("churn").random() for _ in range(5)]

        fresh = RandomStreams(42)
        fresh.restore(snapshot)
        assert [fresh.stream("churn").random() for _ in range(5)] == expected

    def test_restore_discards_streams_missing_from_snapshot(self):
        streams = RandomStreams(7)
        snapshot = streams.snapshot()  # no streams materialized yet
        streams.stream("extra").random()
        streams.restore(snapshot)
        # After restore, "extra" re-derives from the master seed as if it
        # had never been drawn from.
        assert streams.stream("extra").random() == RandomStreams(7).stream("extra").random()

    def test_new_streams_derive_identically_after_restore(self):
        streams = RandomStreams(11)
        streams.stream("old").random()
        fresh = RandomStreams(11)
        fresh.restore(streams.snapshot())
        assert fresh.stream("new").random() == RandomStreams(11).stream("new").random()

    def test_snapshot_survives_pickling(self):
        """Regression: stream states must round-trip through pickle, since
        checkpoints persist them that way."""
        streams = RandomStreams(13)
        for _ in range(17):
            streams.stream("feedback").random()
        snapshot = pickle.loads(pickle.dumps(streams.snapshot()))
        expected = streams.stream("feedback").random()
        fresh = RandomStreams(13)
        fresh.restore(snapshot)
        assert fresh.stream("feedback").random() == expected

    def test_snapshot_does_not_advance_streams(self):
        streams = RandomStreams(5)
        streams.stream("x").random()
        twin = RandomStreams(5)
        twin.stream("x").random()
        streams.snapshot()
        assert streams.stream("x").random() == twin.stream("x").random()


class TestCheckpointFileFormat:
    def test_round_trip_preserves_payload_and_header(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        payload = {"numbers": [1, 2, 3], "label": "probe"}
        write_checkpoint(path, "probe", payload, round_index=4)
        header, restored = read_checkpoint(path, expected_kind="probe")
        assert restored == payload
        assert header["format"] == CHECKPOINT_MAGIC
        assert header["round_index"] == 4

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_foreign_file_raises(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(b'{"format": "something-else"}\n1234')
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            read_checkpoint(str(path))

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "garbled.ckpt"
        path.write_bytes(b"\x80\x04not json\n")
        with pytest.raises(CheckpointError, match="malformed"):
            read_checkpoint(str(path))

    def test_unknown_version_raises(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "probe", [1], round_index=0)
        raw = open(path, "rb").read()
        bumped = raw.replace(b'"version": 1', b'"version": 99', 1)
        open(path, "wb").write(bumped)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(str(path))

    def test_wrong_kind_raises(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "scenario", [1], round_index=0)
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path, expected_kind="simulator")

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "probe", list(range(100)), round_index=0)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "probe", list(range(100)), round_index=0)
        raw = bytearray(open(path, "rb").read())
        raw[-10] ^= 0x01
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="SHA-256"):
            read_checkpoint(path)

    def test_crash_during_write_leaves_previous_checkpoint(self, tmp_path):
        """Atomicity: the visible file never holds a half-written state."""
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "probe", "first", round_index=1)
        # Simulate a crash mid-write: a stale temp file must not clobber
        # the committed checkpoint.
        (tmp_path / "state.ckpt.tmp").write_bytes(b"partial garbage")
        _, payload = read_checkpoint(path, expected_kind="probe")
        assert payload == "first"

    def test_rename_is_fsynced_into_the_directory(self, tmp_path, monkeypatch):
        """Durability: the directory entry is fsynced after the rename, so
        a power loss cannot undo a checkpoint (or serving snapshot) that a
        later WAL compaction already relied on."""
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            synced.append((stat.S_ISDIR(info.st_mode), info.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_checkpoint(str(tmp_path / "state.ckpt"), "probe", "first", round_index=1)
        assert synced[-1] == (True, os.stat(tmp_path).st_ino)


class TestSimulatorCheckpoint:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        baseline = make_simulator().run()

        simulator = make_simulator()
        simulator.run_until(5)
        path = str(tmp_path / "mid.ckpt")
        save_simulator_checkpoint(path, simulator)

        resumed = restore_simulator(load_simulator_checkpoint(path))
        resumed.run_until(10)
        result = resumed.result()
        assert result.transactions == baseline.transactions
        assert result.feedbacks == baseline.feedbacks
        assert result.disclosed_feedbacks == baseline.disclosed_feedbacks
        assert result.ground_truth_honesty == baseline.ground_truth_honesty

    def test_capture_does_not_perturb_the_run(self):
        baseline = make_simulator().run()
        simulator = make_simulator()
        for checkpoint_round in (2, 4, 6, 8):
            simulator.run_until(checkpoint_round)
            capture_state(simulator)
        simulator.run_until(10)
        assert simulator.result().transactions == baseline.transactions

    def test_restore_rejects_hook_count_mismatch(self, tmp_path):
        simulator = make_simulator()
        simulator.run_until(3)
        state = capture_state(simulator)
        with pytest.raises(CheckpointError, match="hooks"):
            restore_simulator(state, hooks=(lambda sim, r: None,))

    def test_load_rejects_non_simulator_payload(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "simulator", {"not": "a state"}, round_index=0)
        with pytest.raises(CheckpointError, match="not a simulator state"):
            load_simulator_checkpoint(path)
