"""Benchmark the end-to-end pipeline: exact work counters per workload.

Run as a script to produce ``BENCH_e2e.json`` (the CI artifact the e2e
regression gate checks)::

    PYTHONPATH=src python benchmarks/bench_end_to_end.py --quick --out BENCH_e2e.json

Where ``bench_core_kernels.py`` times point kernels, this benchmark runs
whole workloads — the figure-1 experiment, the robustness
scenario×mechanism matrix across the standard detection-threshold grid, a
reference sweep campaign (inline), and the refresh layer of one long
simulation per mechanism — each once, in this process, inside
:func:`repro.api.profiled`.  It records the timer's exact work counters:

* ``simulations`` — engine runs (the ``simulate`` phase count); shared
  simulations keep it at one per (scenario, mechanism) cell however many
  thresholds a workload evaluates;
* ``networks_generated`` — social networks built; the network cache keeps
  it at one per specification;
* ``folded.<site>`` — reports each incremental fold consumed (Beta, simple
  average, the local-trust pair ledger and its dense raw matrix); a fold
  that restarted from the first report on every refresh would read the
  whole store each time instead of the reports just appended;
* ``power_iteration.steps`` and ``power_iteration.capped`` — EigenTrust
  and PowerTrust iteration steps, and the calls the iteration cap rather
  than the tolerance ended; a kernel that stops late, or a refresh
  recomputed that should have been served from its cache, counts more.

Counters are deterministic, so the gate has no noise to allow for.
``--check-baseline PATH`` exits non-zero when the report's workload
definition or size mode differs from the baseline's (a gate compares like
with like, so a change to a workload regenerates the baseline in the same
change), when a workload is missing, or unless every counter is equal to
its committed value: a counter above or below it, or missing on either
side, is a finding, so a power iteration that stops a step early fails
like one that runs a step late.  Wall seconds are reported and never
gated; absolute speed is gated by ``bench_core_kernels.py`` and by the
repository benchmark.  ``benchmarks/baselines/BENCH_e2e_baseline.json``
is the ``--quick`` baseline CI checks; ``BENCH_e2e_full_baseline.json`` is
the full-size one the nightly workflow checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable

from repro.api import (
    ScenarioRunConfig,
    SweepSpec,
    clear_network_cache,
    profiled,
    robustness,
    run_experiment_structured,
    run_scenario,
    run_sweep,
    shared_simulations,
)

SCHEMA_VERSION = 3


# -- workloads -------------------------------------------------------------------


def figure1_kwargs(quick: bool) -> dict[str, object]:
    if quick:
        return dict(n_users=25, rounds=10)
    return dict(n_users=40, rounds=20)


def figure1_workload(quick: bool) -> Callable[[], object]:
    kwargs = figure1_kwargs(quick)
    return lambda: run_experiment_structured("figure1", **kwargs)


#: The robustness matrix rows: the seven scenarios the catalog held when
#: these workloads were first measured.  Pinned so catalog growth cannot
#: silently resize the matrix.
MATRIX_SCENARIOS = (
    "baseline",
    "collusion-ring",
    "whitewash-wave",
    "traitor-oscillation",
    "slander",
    "sybil-burst",
    "collusion-under-churn",
)


def matrix_kwargs(quick: bool) -> dict[str, object]:
    sizing = dict(n_users=24, rounds=30) if quick else dict(n_users=40, rounds=120)
    return dict(scenarios=list(MATRIX_SCENARIOS), seed=0, **sizing)


#: The standard detection-threshold sensitivity grid: robustness
#: conclusions should not hinge on the (arbitrary) detection threshold, so
#: the matrix is evaluated at each value.  Only the metric layer differs
#: between passes — exactly the redundancy shared simulations eliminate.
DETECT_THRESHOLDS = (0.05, 0.1, 0.2)


def threshold_matrix_workload(quick: bool) -> Callable[[], object]:
    kwargs = matrix_kwargs(quick)

    def run() -> object:
        with shared_simulations():
            return [
                robustness.summarize(robustness.run(detect_threshold=threshold, **kwargs))
                for threshold in DETECT_THRESHOLDS
            ]

    return run


def sweep_spec(quick: bool) -> SweepSpec:
    grids = {
        "scenario": ["collusion-ring", "whitewash-wave", "slander"],
        "detect_threshold": list(DETECT_THRESHOLDS),
        "seed": [0],
        "n_users": [20 if quick else 40],
        "rounds": [10 if quick else 60],
    }
    return SweepSpec(experiment="robustness", grids=grids, seed=7)


def reference_sweep_workload(quick: bool) -> Callable[[], object]:
    spec = sweep_spec(quick)
    return lambda: run_sweep(spec, jobs=1)


def refresh_layer_config(quick: bool, mechanism: str) -> dict[str, object]:
    return dict(
        scenario="collusion-ring",
        mechanism=mechanism,
        n_users=30 if quick else 50,
        rounds=120 if quick else 400,
        seed=0,
    )


#: Mechanisms whose refresh layer is measured, in report order: one
#: evidence fold (Beta) and one pair-ledger fold (EigenTrust).
REFRESH_LAYER_MECHANISMS = ("beta", "eigentrust")


def refresh_layer_workload(quick: bool, mechanism: str) -> Callable[[], object]:
    config = refresh_layer_config(quick, mechanism)
    return lambda: run_scenario(ScenarioRunConfig(**config))


def workloads(quick: bool) -> list[tuple[str, Callable[[], object]]]:
    """``(name, operation)`` per workload, in report order."""
    return [
        ("figure1", figure1_workload(quick)),
        ("robustness_threshold_matrix", threshold_matrix_workload(quick)),
        ("reference_sweep", reference_sweep_workload(quick)),
        *(
            (f"refresh_layer_{mechanism}", refresh_layer_workload(quick, mechanism))
            for mechanism in REFRESH_LAYER_MECHANISMS
        ),
    ]


def workload_definition() -> dict[str, object]:
    """Everything that shapes what the benchmark measures, for both modes.

    Recorded in every report; the gate refuses to compare a report against
    a baseline whose definition differs.
    """
    return {
        mode: {
            "figure1": figure1_kwargs(quick),
            "threshold_matrix": matrix_kwargs(quick),
            "thresholds": list(DETECT_THRESHOLDS),
            "reference_sweep": sweep_spec(quick).grids,
            "refresh_layer": [
                refresh_layer_config(quick, mechanism) for mechanism in REFRESH_LAYER_MECHANISMS
            ],
        }
        for mode, quick in (("full", False), ("quick", True))
    }


# -- report / gate ---------------------------------------------------------------


def measure(name: str, operation: Callable[[], object]) -> dict[str, object]:
    """Run one workload once on a cold network cache; its counters and wall
    seconds."""
    clear_network_cache()
    start = time.perf_counter()
    with profiled() as timer:
        operation()
    seconds = time.perf_counter() - start
    counters = {"simulations": timer.counts.get("simulate", 0), **timer.work}
    return {
        "workload": name,
        "seconds": seconds,
        "counters": dict(sorted(counters.items())),
    }


def run_benchmarks(*, quick: bool) -> dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_end_to_end.py",
        "definition": workload_definition(),
        "quick": quick,
        "workloads": [measure(name, operation) for name, operation in workloads(quick)],
    }


def check_against_baseline(report: dict[str, object], baseline: dict[str, object]) -> list[str]:
    """Regression findings (empty when the gate passes)."""
    if report.get("definition") != baseline.get("definition"):
        return [
            "workload definition differs from the baseline's; regenerate "
            "the baseline in the same change"
        ]
    if bool(report.get("quick")) != bool(baseline.get("quick")):
        return [
            "the report and the baseline are of different sizes; check a --quick "
            "report against the quick baseline and a full one against the full one"
        ]
    problems: list[str] = []
    current = {entry["workload"]: entry for entry in report["workloads"]}
    for base_entry in baseline["workloads"]:
        name = base_entry["workload"]
        entry = current.get(name)
        if entry is None:
            problems.append(f"{name}: workload missing from the report")
            continue
        expected = base_entry["counters"]
        counters = entry["counters"]
        for counter in sorted(expected.keys() | counters.keys()):
            if counter not in counters:
                problems.append(
                    f"{name}: {counter} is missing from the report "
                    f"(baseline {expected[counter]})"
                )
                continue
            value = counters[counter]
            base = expected.get(counter, 0)
            if value > base:
                problems.append(f"{name}: {counter} {value} exceeds its baseline {base}")
            elif value < base:
                problems.append(f"{name}: {counter} {value} is below its baseline {base}")
            elif counter not in expected:
                problems.append(f"{name}: {counter} {value} is missing from the baseline")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--quick", action="store_true", help="smaller sizes for smoke testing")
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="fail unless every work counter is equal to this committed baseline's",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    for entry in report["workloads"]:
        counters = "  ".join(f"{name}={value}" for name, value in entry["counters"].items())
        print(f"{entry['workload']:28s} {entry['seconds']:7.2f}s   {counters}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if args.check_baseline:
        with open(args.check_baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("benchmark gate passed (every work counter equal to its baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
