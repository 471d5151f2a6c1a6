"""Benchmark the array-backed compute core: absolute time per kernel.

Run as a script to produce ``BENCH_core.json`` (the CI artifact the kernel
regression gate checks)::

    PYTHONPATH=src python benchmarks/bench_core_kernels.py --out BENCH_core.json

Every kernel is timed best-of-``--repeats`` on synthetic evidence with the
incremental refresh layer off, so the numbers are the cold kernels
themselves (``bench_end_to_end.py`` measures the incremental layer).
Correctness is not measured here: the property tests hold every kernel to
its pure-Python reference in ``tests/oracles``.

``--check-baseline PATH`` compares the measured seconds against the committed
baseline (``benchmarks/baselines/BENCH_core_baseline.json``) and exits
non-zero when

* the report's workload definition differs from the baseline's — a gate
  compares like with like, so a change to a workload regenerates the
  baseline in the same change; or
* a gated kernel takes more than ``--max-slowdown`` (default 3x) times its
  baseline seconds.

The 3x bound sits above the up-to-2x speed drift of the shared hosts the
gate runs on (see ``perfbench/README.md``) and below the 5-23x a gated
kernel loses when it falls back to a per-peer Python loop.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from collections.abc import Callable

from repro.api import (
    BetaReputation,
    CouplingDynamics,
    CouplingState,
    EigenTrust,
    Feedback,
    InteractionSimulator,
    PowerTrust,
    ReputationSystem,
    SimpleAverageReputation,
    SimulationConfig,
    SocialNetworkSpec,
    accel,
    generate_social_network,
)

SCHEMA_VERSION = 2

#: Identified reports per peer in the synthetic evidence.
REPORTS_PER_PEER = 20

#: Default gate bound: a kernel fails when it is this many times slower
#: than its baseline.
MAX_SLOWDOWN = 3.0

#: Kernels excluded from the gate: simulation_rounds is an end-to-end run
#: (graph generation, GC and allocator noise included), informational only.
UNGATED_KERNELS = frozenset({"simulation_rounds"})

#: Reputation kernels: a fresh mechanism per measurement.
MECHANISMS: dict[str, Callable[[], ReputationSystem]] = {
    "eigentrust_refresh": lambda: EigenTrust(pretrusted=[f"peer-{i:05d}" for i in range(3)]),
    "powertrust_refresh": PowerTrust,
    "beta_refresh": lambda: BetaReputation(forgetting=0.98),
    "average_refresh": SimpleAverageReputation,
}


def kernel_plan(quick: bool) -> list[dict[str, object]]:
    """The measured ``(kernel, size)`` points, in report order."""
    sizes = (100, 500) if quick else (100, 500, 2000)
    large = 500 if quick else 2000
    return [
        *({"kernel": "eigentrust_refresh", "n": n} for n in sizes),
        {"kernel": "powertrust_refresh", "n": 500},
        {"kernel": "beta_refresh", "n": large},
        {"kernel": "average_refresh", "n": large},
        {"kernel": "coupling_equilibria", "n": 64 if quick else 256},
        {"kernel": "simulation_rounds", "n": 60 if quick else 150, "rounds": 3 if quick else 5},
    ]


def workload_definition() -> dict[str, object]:
    """Everything that shapes what the benchmark measures, for both modes.

    Recorded in every report; the gate refuses to compare a report against
    a baseline whose definition differs.
    """
    return {
        "reports_per_peer": REPORTS_PER_PEER,
        "full": kernel_plan(False),
        "quick": kernel_plan(True),
    }


def synthetic_feedback(n_peers: int, *, seed: int = 0) -> list[Feedback]:
    """Identified feedback over ``n_peers`` peers, power-law-ish targets."""
    rng = random.Random(seed)
    peers = [f"peer-{i:05d}" for i in range(n_peers)]
    reports: list[Feedback] = []
    transaction_id = 0
    for rater in peers:
        for _ in range(REPORTS_PER_PEER):
            # Preferential attachment keeps the trust matrix realistic: a
            # few popular providers soak up most of the assessments.
            subject = peers[min(int(rng.random() ** 2 * n_peers), n_peers - 1)]
            if subject == rater:
                subject = peers[(peers.index(rater) + 1) % n_peers]
            transaction_id += 1
            reports.append(
                Feedback(
                    transaction_id=transaction_id,
                    time=rng.randrange(50),
                    subject=subject,
                    rating=1.0 if rng.random() < 0.7 else 0.0,
                    rater=rater,
                )
            )
    return reports


def _time_best(operation: Callable[[], object], *, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        operation()
        best = min(best, time.perf_counter() - start)
    return best


def bench_mechanism(kernel: str, n_peers: int, *, repeats: int) -> float:
    """Time ``compute_scores`` (the refresh kernel) over ``n_peers`` peers."""
    system = MECHANISMS[kernel]()
    for report in synthetic_feedback(n_peers, seed=n_peers):
        system.record_feedback(report)
    return _time_best(system.compute_scores, repeats=repeats)


def bench_coupling(batch: int, *, repeats: int) -> float:
    """Time a batch of coupling equilibria."""
    rng = random.Random(17)
    initials = [
        CouplingState(
            trust=rng.random(),
            satisfaction=rng.random(),
            reputation_efficiency=rng.random(),
            disclosure=rng.random(),
            honest_contribution=rng.random(),
            privacy_satisfaction=rng.random(),
        )
        for _ in range(batch)
    ]
    dynamics = CouplingDynamics()
    return _time_best(lambda: dynamics.equilibria(initials), repeats=repeats)


def bench_simulation(n_users: int, rounds: int) -> float:
    """Time full simulation rounds (batched loop + refresh), best of 3: a
    single end-to-end run is far too noisy (GC, allocator, contention)."""

    def run() -> None:
        graph = generate_social_network(
            SocialNetworkSpec(n_users=n_users, malicious_fraction=0.25, seed=23)
        )
        InteractionSimulator(
            graph, SimulationConfig(rounds=rounds, seed=23), reputation=EigenTrust()
        ).run()

    return _time_best(run, repeats=3)


def measure(point: dict[str, object], *, repeats: int) -> float:
    kernel = str(point["kernel"])
    n = int(point["n"])  # type: ignore[call-overload]
    if kernel == "coupling_equilibria":
        return bench_coupling(n, repeats=repeats)
    if kernel == "simulation_rounds":
        return bench_simulation(n, int(point["rounds"]))  # type: ignore[call-overload]
    return bench_mechanism(kernel, n, repeats=repeats)


def run_benchmarks(*, repeats: int, quick: bool = False) -> dict[str, object]:
    """Measure every kernel of the plan with the incremental layer off."""
    kernels = []
    with accel.override(incremental_refresh=False):
        for point in kernel_plan(quick):
            kernels.append({**point, "seconds": measure(point, repeats=repeats)})
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/bench_core_kernels.py",
        "definition": workload_definition(),
        "quick": quick,
        "repeats": repeats,
        "kernels": kernels,
    }


def check_against_baseline(
    report: dict[str, object], baseline: dict[str, object], *, max_slowdown: float
) -> list[str]:
    """Regression findings (empty when the gate passes)."""
    if report.get("definition") != baseline.get("definition"):
        return [
            "workload definition differs from the baseline's; regenerate "
            "the baseline in the same change"
        ]
    problems: list[str] = []
    base_seconds = {(k["kernel"], k["n"]): float(k["seconds"]) for k in baseline["kernels"]}
    for entry in report["kernels"]:
        key = (entry["kernel"], entry["n"])
        if entry["kernel"] in UNGATED_KERNELS or key not in base_seconds:
            # A quick report shares only some sizes with a full baseline.
            continue
        allowed = max_slowdown * base_seconds[key]
        if float(entry["seconds"]) > allowed:
            problems.append(
                f"{key[0]}@{key[1]}: {entry['seconds'] * 1e3:.2f} ms exceeds "
                f"{max_slowdown:g}x its baseline {base_seconds[key] * 1e3:.2f} ms"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--repeats", type=int, default=5, help="timing repeats (best-of)")
    parser.add_argument("--quick", action="store_true", help="smaller sizes for smoke testing")
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        help="fail when a kernel regressed against this committed baseline",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=MAX_SLOWDOWN,
        help="allowed factor over the baseline seconds (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(repeats=args.repeats, quick=args.quick)
    for kernel in report["kernels"]:
        label = f"{kernel['kernel']}@{kernel['n']}"
        print(f"{label:28s} {kernel['seconds'] * 1e3:9.2f} ms")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if args.check_baseline:
        with open(args.check_baseline, encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = check_against_baseline(report, baseline, max_slowdown=args.max_slowdown)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("benchmark gate passed (no regression against baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
