"""``repro serve``'s flags: the config a boot builds, what a restore refuses,
and the usage error an invalid value gets."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serving.cli import build_serve_parser, build_service, config_from_flags
from repro.serving.service import ReputationService, ServiceConfig

SRC = Path(__file__).resolve().parents[2] / "src"


def _boot(*argv):
    """The service an invocation with ``argv`` builds (the caller closes it)."""
    args = build_serve_parser().parse_args(list(argv))
    return build_service(args, config_from_flags(args))


def _config_of(*argv):
    service = _boot(*argv)
    service.close()
    return service.config


#: The config a bare ``repro serve`` built while the parser held its own
#: copy of each default.
PARSER_DEFAULTS = ServiceConfig(
    mechanism="beta",
    refresh_every=64,
    default_score=0.5,
    max_pending_requests=64,
    client_rate=None,
    client_burst=8,
    dedup_window=1024,
    retry_after=0.1,
)


class TestFreshBoot:
    def test_no_flags_build_the_defaults(self):
        assert _config_of() == PARSER_DEFAULTS == ServiceConfig()

    @pytest.mark.parametrize(
        "flag, value, field, expected",
        [
            ("--mechanism", "trustme", "mechanism", "trustme"),
            ("--refresh-every", "8", "refresh_every", 8),
            ("--default-score", "0.25", "default_score", 0.25),
            ("--max-pending", "3", "max_pending_requests", 3),
            ("--client-rate", "2.5", "client_rate", 2.5),
            ("--client-burst", "4", "client_burst", 4),
            ("--dedup-window", "16", "dedup_window", 16),
            ("--retry-after", "0.5", "retry_after", 0.5),
        ],
    )
    def test_each_flag_sets_its_field(self, flag, value, field, expected):
        config = _config_of(flag, value)
        assert config == ServiceConfig(**{field: expected})

    def test_with_a_wal(self, tmp_path):
        wal = str(tmp_path / "serve.wal")
        config = _config_of("--wal", wal, "--no-wal-fsync", "--refresh-every", "8")
        assert config == ServiceConfig(refresh_every=8)


#: The checkpoint's score settings, none of them a default.
CHECKPOINTED = ServiceConfig(mechanism="trustme", refresh_every=8, default_score=0.25)

#: Per score flag: the checkpoint's value, one that contradicts it, and the
#: refusal naming both.
SCORE_FLAGS = {
    "--mechanism": (
        "trustme",
        "beta",
        "--mechanism 'beta' conflicts with the checkpoint's 'trustme'",
    ),
    "--refresh-every": ("8", "64", "--refresh-every 64 conflicts with the checkpoint's 8"),
    "--default-score": ("0.25", "0.5", "--default-score 0.5 conflicts with the checkpoint's 0.25"),
}


#: The events the checkpoint holds.
CHECKPOINTED_EVENTS = [{"subject": f"s{i % 3}", "rating": i / 10} for i in range(10)]


@pytest.fixture()
def checkpoint(tmp_path):
    service = ReputationService(CHECKPOINTED)
    service.ingest_many(CHECKPOINTED_EVENTS)
    path = tmp_path / "session.ckpt"
    service.snapshot(str(path))
    return str(path)


@pytest.fixture(params=["restore", "restore+wal"])
def restore_argv(request, checkpoint, tmp_path):
    argv = ["--restore", checkpoint]
    if request.param == "restore+wal":
        argv += ["--wal", str(tmp_path / "serve.wal"), "--no-wal-fsync"]
    return argv


class TestRestore:
    def test_flags_omitted_restore_the_checkpoint(self, restore_argv):
        service = _boot(*restore_argv)
        try:
            assert service.config == CHECKPOINTED
            assert service.health()["ingested"] == 10
        finally:
            service.close()

    @pytest.mark.parametrize("flag", sorted(SCORE_FLAGS))
    def test_a_flag_equal_to_the_checkpoint_is_accepted(self, restore_argv, flag):
        assert _config_of(*restore_argv, flag, SCORE_FLAGS[flag][0]) == CHECKPOINTED

    @pytest.mark.parametrize("flag", sorted(SCORE_FLAGS))
    def test_a_flag_that_differs_is_refused(self, restore_argv, flag):
        _, given, refusal = SCORE_FLAGS[flag]
        with pytest.raises(SystemExit) as refused:
            _boot(*restore_argv, flag, given)
        assert str(refused.value) == refusal + "; drop the flag when restoring"

    def test_every_differing_flag_is_named(self, restore_argv):
        argv = [*restore_argv, "--mechanism", "beta", "--refresh-every", "64"]
        with pytest.raises(SystemExit, match="--mechanism 'beta'.*--refresh-every 64"):
            _boot(*argv)

    def test_a_refused_restore_leaves_the_wal_as_it_was(self, checkpoint, tmp_path):
        absent = tmp_path / "absent.wal"
        with pytest.raises(SystemExit):
            _boot("--restore", checkpoint, "--wal", str(absent), "--refresh-every", "64")
        assert not absent.exists()
        # A log holding the checkpoint's batch and one past it: recovering
        # would replay the second and compact the first away.
        wal = tmp_path / "serve.wal"
        service = ReputationService.recover(wal_path=str(wal), config=CHECKPOINTED, wal_fsync=False)
        service.ingest_many(CHECKPOINTED_EVENTS)
        service.ingest_many([{"subject": "s1", "rating": 0.5}] * 3)
        service.close()
        logged = wal.read_bytes()
        with pytest.raises(SystemExit):
            _boot("--restore", checkpoint, "--wal", str(wal), "--mechanism", "beta")
        assert wal.read_bytes() == logged

    def test_an_eigentrust_checkpoint_refuses_the_beta_flag(self, tmp_path):
        service = ReputationService(ServiceConfig(mechanism="eigentrust", refresh_every=4))
        service.ingest_many([{"subject": "a", "rating": 0.9, "rater": "b"}])
        path = str(tmp_path / "eigentrust.ckpt")
        service.snapshot(path)
        with pytest.raises(SystemExit, match="'beta' conflicts with the checkpoint's 'eigentrust'"):
            _boot("--restore", path, "--mechanism", "beta")

    def test_transport_flags_keep_the_checkpoint_config(self, restore_argv):
        config = _config_of(*restore_argv, "--max-pending", "3", "--retry-after", "2")
        assert config == CHECKPOINTED


#: Per invalid flag value: the message ``ServiceConfig`` refuses it with.
INVALID_FLAGS = {
    ("--refresh-every", "0"): "refresh_every must be at least 1",
    ("--mechanism", "nope"): "unknown mechanism 'nope'",
    ("--dedup-window", "-1"): "dedup_window must be non-negative",
    ("--max-pending", "0"): "max_pending_requests must be at least 1",
}


@pytest.mark.parametrize("flag, value", sorted(INVALID_FLAGS))
def test_an_invalid_flag_is_a_usage_error_before_any_file_opens(tmp_path, flag, value):
    wal = tmp_path / "serve.wal"
    refused = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--wal", str(wal), flag, value],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert refused.returncode == 2
    assert refused.stderr.startswith("usage: repro serve")
    assert INVALID_FLAGS[flag, value] in refused.stderr
    assert "Traceback" not in refused.stderr
    assert refused.stdout == ""
    assert not wal.exists()
