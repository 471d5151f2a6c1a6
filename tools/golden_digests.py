#!/usr/bin/env python
"""Regenerate the committed golden digest corpus, ``tests/golden/digests.json``.

Every byte-identity contract the project checks in CI compares two live runs
of the same checkout.  This corpus is the absolute reference: the full
SHA-256 of

* ``template/<name>/<mechanism>`` — each shipped template at the small tier,
  once per mechanism of ``robustness.DEFAULT_MECHANISMS``, as the record
  ``template_record_json`` writes;
* ``experiment/<name>`` — each registered experiment's quick structured
  output, serialized as sorted-key JSON;
* ``service/<mechanism>`` — the final ``/v1/scores`` body of a live service
  fed a pinned collusion-ring trace, as the request handler builds it.
  Computing it also checks that the same service snapshotted and restored
  halfway publishes the same body;
* ``sparse/<scenario>/<mechanism>`` — scenario runs at 140 peers, where
  EigenTrust and PowerTrust build local trust on the sparse branch: the
  record and the final published scores;
* ``network/<preset>`` and ``network/erdos_renyi`` — the generated social
  graph of each network preset and of one Erdős–Rényi specification: its
  user order, each user's neighbour list with tie strengths, and every
  user's attributes.  The other cells build only Barabási–Albert graphs,
  so these are the only ones that pin the other three topologies.

``tests/test_golden_digests.py`` recomputes the corpus and names every key
that drifted.  A digest may change only in a change whose CHANGES.md line
names each changed key and says why.

Usage::

    PYTHONPATH=src python tools/golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from collections.abc import Callable, Iterator
from pathlib import Path

from repro.experiments import robustness
from repro.experiments.runner import EXPERIMENTS, run_experiment_structured
from repro.scenarios.runner import ScenarioRunConfig, run_scenario
from repro.scenarios.schema.compile import compile_template
from repro.scenarios.schema.library import (
    discover_templates,
    load_template,
    scenario_record_json,
    template_record_json,
)
from repro.serving.http import _scores_response_body
from repro.serving.loadgen import build_trace
from repro.serving.service import ReputationService
from repro.socialnet.generators import SocialNetworkSpec, generate_social_network
from repro.socialnet.graph import SocialGraph
from repro.socialnet.presets import NETWORK_PRESETS, preset_spec

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "tests" / "golden" / "digests.json"

#: The size tier the template cells run at.
TEMPLATE_TIER = "small"

#: Mechanisms a service cell is computed for.
SERVICE_MECHANISMS = ("average", "beta", "eigentrust", "powertrust", "trustme")

#: The trace every service cell ingests, and the batch size it arrives in.
SERVICE_TRACE = dict(scenario="collusion-ring", n_users=30, rounds=30, seed=0)
SERVICE_BATCH = 8

#: Scenario runs large enough for the sparse local-trust branch.
SPARSE_SCENARIOS = ("collusion-ring", "whitewash-wave")
SPARSE_MECHANISMS = ("eigentrust", "powertrust")
SPARSE_SIZE = dict(n_users=140, rounds=40, seed=0)

#: The seed every network preset cell is generated with, and the one
#: Erdős–Rényi specification (no preset uses that topology).
NETWORK_SEED = 0
ERDOS_RENYI_SPEC = SocialNetworkSpec(n_users=50, topology="erdos_renyi", mean_degree=5.0, seed=3)


def _sha256(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def template_cells() -> Iterator[tuple[str, Callable[[], str]]]:
    for path in discover_templates():
        template = load_template(path)
        for mechanism in robustness.DEFAULT_MECHANISMS:
            compiled = compile_template(template, TEMPLATE_TIER, mechanism=mechanism)
            yield (
                f"template/{template.name}/{mechanism}",
                lambda compiled=compiled: template_record_json(compiled),
            )


def experiment_cells() -> Iterator[tuple[str, Callable[[], str]]]:
    for name in sorted(EXPERIMENTS):
        yield (
            f"experiment/{name}",
            lambda name=name: json.dumps(
                run_experiment_structured(name, quick=True), sort_keys=True
            ),
        )


def _feed(service: ReputationService, events: list[dict[str, object]]) -> None:
    for start in range(0, len(events), SERVICE_BATCH):
        service.ingest_many(events[start : start + SERVICE_BATCH])


def _scores_body(service: ReputationService) -> bytes:
    """What ``GET /v1/scores`` sends once every event is published, built
    by the request handler's own body path."""
    service.refresh()
    return _scores_response_body(service, None)


def service_body(mechanism: str, events: list[dict[str, object]]) -> bytes:
    """The final scores body of a service fed ``events``; raises when a
    session snapshotted and restored halfway publishes a different one."""
    half = len(events) // 2
    direct = ReputationService(mechanism=mechanism)
    _feed(direct, events)
    body = _scores_body(direct)
    first = ReputationService(mechanism=mechanism)
    _feed(first, events[:half])
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "service.ckpt")
        first.snapshot(path)
        restored = ReputationService.restore(path)
    _feed(restored, events[half:])
    if _scores_body(restored) != body:
        raise AssertionError(f"service/{mechanism}: restored session published other scores")
    return body


def service_cells() -> Iterator[tuple[str, Callable[[], bytes]]]:
    events: list[dict[str, object]] = []
    for mechanism in SERVICE_MECHANISMS:

        def cell(mechanism: str = mechanism) -> bytes:
            if not events:
                events.extend(build_trace(**SERVICE_TRACE))
            return service_body(mechanism, events)

        yield f"service/{mechanism}", cell


def sparse_cells() -> Iterator[tuple[str, Callable[[], str]]]:
    for scenario in SPARSE_SCENARIOS:
        for mechanism in SPARSE_MECHANISMS:
            config = ScenarioRunConfig(scenario=scenario, mechanism=mechanism, **SPARSE_SIZE)

            def cell(config: ScenarioRunConfig = config) -> str:
                result = run_scenario(config)
                scores = json.dumps(result.final_scores, sort_keys=True)
                return scenario_record_json(result) + "\n" + scores

            yield f"sparse/{scenario}/{mechanism}", cell


def network_json(graph: SocialGraph) -> str:
    """A graph as JSON, in its own orders: users in insertion order, each
    with its attributes and its neighbours (with tie strengths) in
    adjacency order."""
    users = [
        {
            "id": user.user_id,
            "honesty": user.honesty,
            "competence": user.competence,
            "activity": user.activity,
            "privacy_concern": user.privacy_concern,
            "community": user.community,
            "profile": [
                [attribute.name, attribute.value, int(attribute.sensitivity)]
                for attribute in user.profile
            ],
            "neighbors": [
                [neighbor, graph.tie_strength(user.user_id, neighbor)]
                for neighbor in graph.neighbors(user.user_id)
            ],
        }
        for user in graph.users()
    ]
    return json.dumps(users)


def network_cells() -> Iterator[tuple[str, Callable[[], str]]]:
    specs = {name: preset_spec(name, seed=NETWORK_SEED) for name in sorted(NETWORK_PRESETS)}
    specs["erdos_renyi"] = ERDOS_RENYI_SPEC
    for name, spec in specs.items():
        yield (
            f"network/{name}",
            lambda spec=spec: network_json(generate_social_network(spec)),
        )


def compute_digests() -> dict[str, str]:
    """Every corpus key mapped to its SHA-256, computed afresh."""
    digests: dict[str, str] = {}
    families = (
        template_cells(),
        experiment_cells(),
        service_cells(),
        sparse_cells(),
        network_cells(),
    )
    for cells in families:
        for key, compute in cells:
            digests[key] = _sha256(compute())
    return dict(sorted(digests.items()))


def load_digests(path: Path = DIGESTS_PATH) -> dict[str, str]:
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def drifted_keys(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Keys whose digest changed, appeared or disappeared, sorted."""
    keys = expected.keys() | actual.keys()
    return sorted(key for key in keys if expected.get(key) != actual.get(key))


def main() -> int:
    digests = compute_digests()
    payload = {"generated_by": "tools/golden_digests.py", "digests": digests}
    DIGESTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    DIGESTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
