"""Unit tests for the acceleration switchboard."""

import dataclasses

import pytest

from repro.core import accel
from repro.errors import ConfigurationError


class TestFlags:
    def test_defaults(self):
        flags = accel.AccelFlags()
        assert flags.incremental_refresh
        assert flags.setup_cache
        assert not flags.disable_all

    def test_flags_are_two_layers_and_the_master_switch(self):
        names = [field.name for field in dataclasses.fields(accel.AccelFlags)]
        assert names == ["incremental_refresh", "setup_cache", "disable_all"]

    def test_override_restores_previous_state(self):
        before = accel.flags()
        with accel.override(incremental_refresh=False, setup_cache=False) as inside:
            assert not inside.incremental_refresh
            assert not inside.setup_cache
        assert accel.flags() == before

    def test_override_restores_on_error(self):
        before = accel.flags()
        with pytest.raises(RuntimeError), accel.override(setup_cache=False):
            raise RuntimeError("boom")
        assert accel.flags() == before

    def test_disable_all_wins_over_individual_flags(self):
        with accel.override(setup_cache=True, disable_all=True) as flags:
            assert not flags.incremental_refresh
            assert not flags.setup_cache

    def test_nested_overrides(self):
        with accel.override(incremental_refresh=False):
            with accel.override(setup_cache=False) as inner:
                assert not inner.incremental_refresh
                assert not inner.setup_cache
            assert not accel.flags().incremental_refresh
            assert accel.flags().setup_cache


class TestEnvParsing:
    def test_tokens(self):
        flags = accel._from_env("no-incremental,setup-cache")
        assert not flags.incremental_refresh
        assert flags.setup_cache
        assert not accel._from_env("no-setup-cache").setup_cache

    def test_off_token_sets_master_switch(self):
        flags = accel._from_env("off")
        assert flags.disable_all
        assert not flags.effective().incremental_refresh

    def test_empty_and_whitespace_tokens_ignored(self):
        assert accel._from_env(" , ,on,") == accel.AccelFlags()

    def test_unknown_token_rejected(self):
        with pytest.raises(ConfigurationError):
            accel._from_env("warp-speed")

    @pytest.mark.parametrize("token", ["run-cache", "no-run-cache"])
    def test_removed_run_cache_tokens_are_unknown(self, token):
        with pytest.raises(ConfigurationError, match="unknown REPRO_ACCEL token"):
            accel._from_env(token)
