"""The benchmark regression gates must fail when they should.

A gate that cannot go red protects nothing.  Each ``check_against_baseline``
is driven with its committed baseline, a degraded copy of it, and a copy
whose recorded workload definition has drifted.
"""

import copy
import json
from pathlib import Path

from benchmarks import bench_core_kernels, bench_end_to_end, bench_serve

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def _load(name):
    return json.loads((BASELINES / name).read_text(encoding="utf-8"))


class TestCoreKernelGate:
    baseline = _load("BENCH_core_baseline.json")

    def check(self, report):
        return bench_core_kernels.check_against_baseline(
            report, self.baseline, max_slowdown=bench_core_kernels.MAX_SLOWDOWN
        )

    def test_baseline_records_the_current_definition(self):
        assert self.baseline["definition"] == bench_core_kernels.workload_definition()

    def test_baseline_passes_against_itself(self):
        assert self.check(copy.deepcopy(self.baseline)) == []

    def test_kernel_falling_back_to_a_loop_fails(self):
        report = copy.deepcopy(self.baseline)
        for entry in report["kernels"]:
            if (entry["kernel"], entry["n"]) == ("eigentrust_refresh", 500):
                entry["seconds"] *= 10  # the low end of a loop fallback's cost
        problems = self.check(report)
        assert len(problems) == 1
        assert problems[0].startswith("eigentrust_refresh@500")

    def test_drifted_workload_definition_fails(self):
        report = copy.deepcopy(self.baseline)
        report["definition"]["reports_per_peer"] += 1
        problems = self.check(report)
        assert len(problems) == 1
        assert "definition" in problems[0]


class TestEndToEndGate:
    baseline = _load("BENCH_e2e_baseline.json")

    def check(self, report):
        return bench_end_to_end.check_against_baseline(report, self.baseline, tolerance=0.35)

    def _workload(self, report, name):
        return next(entry for entry in report["workloads"] if entry["workload"] == name)

    def test_baseline_records_the_current_definition(self):
        assert self.baseline["definition"] == bench_end_to_end.workload_definition()

    def test_baseline_passes_against_itself(self):
        assert self.check(copy.deepcopy(self.baseline)) == []

    def test_lost_acceleration_fails(self):
        report = copy.deepcopy(self.baseline)
        self._workload(report, "robustness_threshold_matrix")["speedup"] = 1.14
        problems = self.check(report)
        assert any("below the" in problem for problem in problems)
        assert any("regressed" in problem for problem in problems)

    def test_cold_accelerated_disagreement_fails(self):
        report = copy.deepcopy(self.baseline)
        self._workload(report, "figure1")["agreement_ok"] = False
        report["agreement_ok"] = False
        assert self.check(report) == [
            "figure1: cold and accelerated outputs differ (acceleration changed results)"
        ]

    def test_drifted_workload_definition_fails(self):
        report = copy.deepcopy(self.baseline)
        report["definition"]["quick"]["robustness_matrix"]["scenarios"].append("marketplace")
        problems = self.check(report)
        assert len(problems) == 1
        assert "definition" in problems[0]


class TestServeGate:
    baseline = _load("BENCH_serve_baseline.json")

    def check(self, report):
        return bench_serve.check_against_baseline(report, self.baseline, tolerance=0.5)

    def _drill(self, report, name):
        return next(entry for entry in report["drills"] if entry["drill"] == name)

    def test_baseline_records_the_current_definition(self):
        assert self.baseline["definition"] == bench_serve.workload_definition()

    def test_baseline_passes_against_itself(self):
        assert self.check(copy.deepcopy(self.baseline)) == []

    def test_non_identical_restart_fails(self):
        report = copy.deepcopy(self.baseline)
        self._drill(report, "restart")["restart_identical"] = False
        problems = self.check(report)
        assert len(problems) == 1
        assert problems[0].startswith("restart:")

    def test_lost_acked_crash_events_fail(self):
        report = copy.deepcopy(self.baseline)
        crash = self._drill(report, "crash")
        crash["recovered_ingested"] = crash["acked_before_kill"] - 16
        crash["acked_survived"] = False
        problems = self.check(report)
        assert len(problems) == 1
        assert "acked data lost" in problems[0]

    def test_throughput_under_the_floor_fails(self):
        report = copy.deepcopy(self.baseline)
        self._drill(report, "throughput")["ingest_events_per_sec"] = 100.0
        problems = self.check(report)
        assert any("below the" in problem for problem in problems)
        assert any("regressed" in problem for problem in problems)

    def test_drifted_workload_definition_fails(self):
        report = copy.deepcopy(self.baseline)
        report["definition"]["overload"]["max_pending"] += 1
        problems = self.check(report)
        assert len(problems) == 1
        assert "definition" in problems[0]
