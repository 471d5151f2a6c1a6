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
        return bench_end_to_end.check_against_baseline(report, self.baseline)

    def _counters(self, report, name):
        entry = next(entry for entry in report["workloads"] if entry["workload"] == name)
        return entry["counters"]

    def test_baseline_records_the_current_definition(self):
        assert self.baseline["definition"] == bench_end_to_end.workload_definition()
        full = _load("BENCH_e2e_full_baseline.json")
        assert full["definition"] == bench_end_to_end.workload_definition()
        assert (self.baseline["quick"], full["quick"]) == (True, False)

    def test_baseline_passes_against_itself(self):
        assert self.check(copy.deepcopy(self.baseline)) == []

    def test_lost_acceleration_fails(self):
        # A Beta fold that restarts from the first report on every refresh
        # reads the whole store each time.
        report = copy.deepcopy(self.baseline)
        counters = self._counters(report, "refresh_layer_beta")
        counters["folded.beta"] *= 30
        problems = self.check(report)
        assert len(problems) == 1
        assert problems[0].startswith("refresh_layer_beta: folded.beta")

    def test_sweep_that_simulates_every_cell_fails(self):
        # Three thresholds per scenario: sharing nothing simulates 3x.
        report = copy.deepcopy(self.baseline)
        counters = self._counters(report, "reference_sweep")
        counters["simulations"] *= len(bench_end_to_end.DETECT_THRESHOLDS)
        problems = self.check(report)
        assert len(problems) == 1
        assert problems[0].startswith("reference_sweep: simulations")

    def test_network_generated_per_run_fails(self):
        report = copy.deepcopy(self.baseline)
        counters = self._counters(report, "robustness_threshold_matrix")
        counters["networks_generated"] = counters["simulations"]
        problems = self.check(report)
        assert len(problems) == 1
        assert problems[0].startswith("robustness_threshold_matrix: networks_generated")

    def test_one_power_iteration_step_more_fails(self):
        # The kernel must stop at the first iterate under the tolerance; a
        # refresh that runs one step past it is a regression.
        report = copy.deepcopy(self.baseline)
        counters = self._counters(report, "refresh_layer_eigentrust")
        steps = counters["power_iteration.steps"]
        counters["power_iteration.steps"] = steps + 1
        assert self.check(report) == [
            "refresh_layer_eigentrust: power_iteration.steps "
            f"{steps + 1} exceeds its baseline {steps}"
        ]

    def test_one_power_iteration_step_fewer_fails(self):
        # Stopping a step early returns a different iterate: the counters are
        # exact, so the gate holds them equal, not merely under a ceiling.
        report = copy.deepcopy(self.baseline)
        counters = self._counters(report, "refresh_layer_eigentrust")
        steps = counters["power_iteration.steps"]
        counters["power_iteration.steps"] = steps - 1
        assert self.check(report) == [
            "refresh_layer_eigentrust: power_iteration.steps "
            f"{steps - 1} is below its baseline {steps}"
        ]

    def test_fold_site_that_stops_reporting_fails(self):
        report = copy.deepcopy(self.baseline)
        counters = self._counters(report, "refresh_layer_beta")
        folded = counters.pop("folded.beta")
        assert self.check(report) == [
            f"refresh_layer_beta: folded.beta is missing from the report (baseline {folded})"
        ]

    def test_new_fold_site_fails(self):
        report = copy.deepcopy(self.baseline)
        self._counters(report, "refresh_layer_eigentrust")["folded.beta"] = 1
        assert self.check(report) == [
            "refresh_layer_eigentrust: folded.beta 1 exceeds its baseline 0"
        ]

    def test_report_of_another_size_fails(self):
        problems = self.check(_load("BENCH_e2e_full_baseline.json"))
        assert len(problems) == 1
        assert "different sizes" in problems[0]

    def test_drifted_workload_definition_fails(self):
        report = copy.deepcopy(self.baseline)
        report["definition"]["quick"]["threshold_matrix"]["scenarios"].append("marketplace")
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
