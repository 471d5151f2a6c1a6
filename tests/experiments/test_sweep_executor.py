"""The persistent-worker sweep executor: reuse, chunking, streaming, caching."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.results import records_to_json
from repro.experiments.sweep import SweepExecutor, SweepSpec, run_sweep

ANALYTIC_SPEC = dict(
    experiment="figure2-left",
    grids={"threshold": [0.3, 0.5, 0.7], "mechanism": ["eigentrust", "beta"]},
)

ROBUSTNESS_SPEC = dict(
    experiment="robustness",
    grids={
        "scenario": ["collusion-ring"],
        "detect_threshold": [0.05, 0.1, 0.2],
        "seed": [0],
        "n_users": [16],
        "rounds": [8],
    },
)


def _json(result):
    return records_to_json(result.records, campaign=result.spec.campaign_metadata())


class TestSweepExecutor:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(0)
        with pytest.raises(ConfigurationError):
            SweepExecutor(2, chunksize=0)

    def test_persistent_executor_reused_across_sweeps(self):
        spec_a = SweepSpec(**ANALYTIC_SPEC, seed=7)
        spec_b = SweepSpec(**ANALYTIC_SPEC, seed=8)
        with SweepExecutor(2) as executor:
            first = run_sweep(spec_a, executor=executor)
            pool = executor._pool
            assert pool is not None
            second = run_sweep(spec_b, executor=executor)
            assert executor._pool is pool  # same worker pool served both
        assert first.n_ok == second.n_ok == 6
        assert executor._pool is None  # context exit shut the pool down

    def test_records_identical_across_jobs_and_chunking(self):
        spec = SweepSpec(**ANALYTIC_SPEC, seed=7)
        serial = _json(run_sweep(spec, jobs=1))
        parallel = _json(run_sweep(spec, jobs=2))
        chunked = _json(run_sweep(spec, jobs=2, chunksize=1))
        lumped = _json(run_sweep(spec, jobs=2, chunksize=6))
        assert serial == parallel == chunked == lumped

    def test_streaming_emits_every_record_in_task_order(self):
        spec = SweepSpec(**ANALYTIC_SPEC, seed=3)
        streamed = []
        result = run_sweep(spec, jobs=2, chunksize=2, on_record=streamed.append)
        assert [record.task_index for record in streamed] == [0, 1, 2, 3, 4, 5]
        assert streamed == result.records

    def test_inline_streaming_matches_parallel_streaming(self):
        spec = SweepSpec(**ANALYTIC_SPEC, seed=3)
        inline, parallel = [], []
        run_sweep(spec, jobs=1, on_record=inline.append)
        run_sweep(spec, jobs=2, on_record=parallel.append)
        assert inline == parallel


class TestRunCacheInSweeps:
    def test_threshold_sweep_records_match_across_jobs(self):
        """Tasks differing only in detect_threshold share their group's
        simulations, inline and in a worker — and the records must not
        show it."""
        spec = SweepSpec(**ROBUSTNESS_SPEC, seed=5)
        serial = _json(run_sweep(spec, jobs=1))
        parallel = _json(run_sweep(spec, jobs=2))
        assert serial == parallel
        payload = json.loads(serial)
        assert len(payload["records"]) == 3
        thresholds = {
            record["params"]["detect_threshold"] for record in payload["records"]
        }
        assert thresholds == {0.05, 0.1, 0.2}
        # Different thresholds genuinely flow into the metrics: the records
        # are not all identical copies of one evaluation.
        detects = [
            record["metrics"]["collusion-ring.eigentrust.time_to_detect"]
            for record in payload["records"]
        ]
        assert len(detects) == 3
