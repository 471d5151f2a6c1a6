"""Checkpoint/resume: the file format, and the simulator that pickles itself."""

import os
import pickle
import stat
from pathlib import Path

import pytest

from repro.errors import CheckpointError
from repro.scenarios.runner import (
    ScenarioCheckpoint,
    ScenarioRunConfig,
    resume_scenario,
    run_scenario,
)
from repro.simulation.checkpoint import CHECKPOINT_MAGIC, read_checkpoint, write_checkpoint
from repro.simulation.engine import _NOT_PICKLED, InteractionSimulator, SimulationConfig
from repro.simulation.rng import RandomStreams
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network


def make_simulator(rounds=10, seed=3, n_users=16):
    graph = generate_social_network(
        SocialNetworkSpec(n_users=n_users, malicious_fraction=0.25, seed=seed)
    )
    return InteractionSimulator(graph, SimulationConfig(rounds=rounds, seed=seed))


def test_pickled_streams_continue_every_stream():
    streams = RandomStreams(42)
    for name, draws in (("churn", 3), ("feedback", 17), ("selection", 1)):
        for _ in range(draws):
            streams.stream(name).random()
    restored = pickle.loads(pickle.dumps(streams))
    for name in ("churn", "feedback", "selection", "never-drawn"):
        assert [restored.stream(name).random() for _ in range(5)] == [
            streams.stream(name).random() for _ in range(5)
        ]


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
        raw = Path(path).read_bytes()
        bumped = raw.replace(b'"version": 1', b'"version": 99', 1)
        Path(path).write_bytes(bumped)
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
        raw = Path(path).read_bytes()
        Path(path).write_bytes(raw[:-7])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, "probe", list(range(100)), round_index=0)
        raw = bytearray(Path(path).read_bytes())
        raw[-10] ^= 0x01
        Path(path).write_bytes(bytes(raw))
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


def save_and_load(simulator, tmp_path):
    path = str(tmp_path / "mid.ckpt")
    write_checkpoint(path, "simulator", simulator, round_index=simulator.completed_rounds)
    _, restored = read_checkpoint(path, expected_kind="simulator")
    return restored


class TestSimulatorCheckpoint:
    def test_resumed_run_matches_uninterrupted(self, tmp_path):
        baseline = make_simulator().run()

        simulator = make_simulator()
        simulator.run_until(5)
        resumed = save_and_load(simulator, tmp_path)
        resumed.reattach()
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
            pickle.dumps(simulator)
        simulator.run_until(10)
        assert simulator.result().transactions == baseline.transactions

    def test_restored_simulator_has_a_fresh_ones_attributes(self, tmp_path):
        simulator = make_simulator()
        simulator.run_until(3)
        resumed = save_and_load(simulator, tmp_path)
        resumed.reattach()
        assert set(vars(resumed)) == set(vars(make_simulator()))
        # The hoisted handles are the streams themselves, not copies.
        assert resumed._rng_selection is resumed.streams.stream("selection")
        assert resumed._rng_transactions is resumed.streams.stream("transactions")
        assert resumed._rng_feedback is resumed.streams.stream("feedback")

    def test_restore_rejects_hook_count_mismatch(self):
        simulator = make_simulator()
        simulator.run_until(3)
        resumed = pickle.loads(pickle.dumps(simulator))
        with pytest.raises(CheckpointError, match="hooks"):
            resumed.reattach((lambda sim, r: None,))

    def test_unpickled_simulator_refuses_to_run_before_reattach(self):
        simulator = make_simulator()
        simulator.run_until(3)
        resumed = pickle.loads(pickle.dumps(simulator))
        with pytest.raises(CheckpointError, match="reattached"):
            resumed.run_until(10)
        with pytest.raises(CheckpointError, match="reattached"):
            resumed.run()
        resumed.reattach()
        assert resumed.run_until(10) == 10


def blank_simulator():
    return InteractionSimulator.__new__(InteractionSimulator)


class PicklesAsSimulator:
    """Pickles as an :class:`InteractionSimulator` whose state is ``state``."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return (blank_simulator, (), self.state)


class TestCheckpointLayout:
    def test_checkpoint_with_object_lists_is_refused_on_load(self, tmp_path):
        """A scenario checkpoint from before the columnar log carries the
        transactions and feedback as three object lists and a counter; it
        fails as it is read, not later in the run."""
        path = str(tmp_path / "run.ckpt")
        config = ScenarioRunConfig(
            scenario="collusion-ring", mechanism="beta", n_users=16, rounds=6, seed=3
        )
        direct = run_scenario(config)
        run_scenario(config, checkpoint_every=3, checkpoint_path=path)
        _, checkpoint = read_checkpoint(path, expected_kind="scenario")
        state = {
            name: value
            for name, value in vars(checkpoint.simulator).items()
            if name not in _NOT_PICKLED
        }

        def write(simulator_state):
            payload = ScenarioCheckpoint(
                config=config, simulator=PicklesAsSimulator(simulator_state)
            )
            write_checkpoint(path, "scenario", payload, round_index=config.rounds)

        # Control: the state as it is resumes.
        write(state)
        assert resume_scenario(path).simulation.feedbacks == direct.simulation.feedbacks

        done = checkpoint.simulator.result()
        old_layout = dict(state)
        del old_layout["_log"]
        old_layout.update(
            _transactions=done.transactions,
            _feedbacks=done.feedbacks,
            _disclosed=done.disclosed_feedbacks,
            _transaction_counter=len(done.transactions),
        )
        with pytest.raises(CheckpointError, match="predates the columnar transaction log"):
            pickle.loads(pickle.dumps(PicklesAsSimulator(old_layout)))
        write(old_layout)
        with pytest.raises(CheckpointError, match="cannot unpickle checkpoint payload"):
            resume_scenario(path)
