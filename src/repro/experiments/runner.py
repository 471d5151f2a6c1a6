"""The experiment registry: one entry per DESIGN.md experiment id.

Every experiment module exposes ``run(**kwargs) -> result``,
``report(result) -> str`` and ``summarize(result) -> dict`` (a flat mapping
of JSON scalars); the registry maps human-facing names to those triples so
the CLI (``python -m repro.experiments``), the sweep engine
(:mod:`repro.experiments.sweep`) and EXPERIMENTS.md can refer to experiments
uniformly.  ``run_experiment`` keeps the historical text-report API;
``run_experiment_structured`` is the machine-readable path the sweep engine
is built on.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from collections.abc import Callable

from repro.experiments import (
    ablations,
    claims,
    figure1,
    figure2_left,
    figure2_right,
    privacy_eval,
    reputation_eval,
    robustness,
    satisfaction_eval,
)


class RunResult(dict[str, object]):
    """Flat summary metrics of one experiment run, typed for the facade.

    A ``dict`` subclass: the *old* public shape of
    :func:`run_experiment_structured` — a bare ``metric name -> scalar``
    mapping — is a strict subset of this object, so every legacy consumer
    (sweep engine, CI artifacts, ``json.dumps``) keeps working bytewise.
    New code gets the run's identity as attributes instead of threading it
    out of band: which experiment ran, the keyword parameters actually
    passed, and the seed (``None`` for the analytic experiments).
    ``metrics()`` is the explicit deprecation alias for the legacy
    plain-dict shape.
    """

    #: Name of the registered experiment that produced these metrics.
    experiment: str
    #: Keyword arguments the experiment's ``run()`` actually received.
    params: dict[str, object]
    #: The seed forwarded to ``run()``, or ``None`` when it takes none.
    seed: int | None

    def __init__(
        self,
        metrics: dict[str, object] | None = None,
        *,
        experiment: str = "",
        params: dict[str, object] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(metrics if metrics is not None else {})
        self.experiment = experiment
        self.params = dict(params) if params is not None else {}
        self.seed = seed

    def metrics(self) -> dict[str, object]:
        """The legacy bare-dict shape (plain copy, no attributes)."""
        return dict(self)


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment."""

    name: str
    experiment_ids: tuple
    description: str
    run: Callable[..., object]
    report: Callable[[object], str]
    #: Adapter flattening the ``run()`` result to a dict of JSON scalars —
    #: the structured twin of ``report`` used by sweeps and CI artifacts.
    summarize: Callable[[object], dict[str, object]]
    #: Keyword arguments that make the experiment finish quickly (used by the
    #: ``--quick`` CLI flag and by integration tests).
    quick_kwargs: dict[str, object]

    def accepted_parameters(self) -> dict[str, inspect.Parameter]:
        """The keyword parameters this experiment's ``run()`` accepts."""
        return dict(inspect.signature(self.run).parameters)

    def accepts(self, name: str) -> bool:
        return name in self.accepted_parameters()


EXPERIMENTS: dict[str, ExperimentEntry] = {
    "figure1": ExperimentEntry(
        name="figure1",
        experiment_ids=("E-F1",),
        description="Figure 1: couplings among satisfaction, reputation, privacy and trust",
        run=figure1.run,
        report=figure1.report,
        summarize=figure1.summarize,
        quick_kwargs={"sharing_levels": [0.3, 0.7], "n_users": 25, "rounds": 10},
    ),
    "figure2-left": ExperimentEntry(
        name="figure2-left",
        experiment_ids=("E-F2L",),
        description="Figure 2 (left): the Area-A good-tradeoff region",
        run=figure2_left.run,
        report=figure2_left.report,
        summarize=figure2_left.summarize,
        quick_kwargs={"sharing_levels": [0.0, 0.25, 0.5, 0.75, 1.0]},
    ),
    "figure2-right": ExperimentEntry(
        name="figure2-right",
        experiment_ids=("E-F2R",),
        description="Figure 2 (right): privacy/reputation/satisfaction vs shared information",
        run=figure2_right.run,
        report=figure2_right.report,
        summarize=figure2_right.summarize,
        quick_kwargs={"simulate": False},
    ),
    "claims": ExperimentEntry(
        name="claims",
        experiment_ids=("E-C1", "E-C2", "E-C3", "E-C4", "E-C5"),
        description="The five qualitative couplings of Section 3",
        run=claims.run,
        report=claims.report,
        summarize=claims.summarize,
        quick_kwargs={"n_users": 25, "rounds": 10},
    ),
    "reputation": ExperimentEntry(
        name="reputation",
        experiment_ids=("E-R1",),
        description="Reputation mechanisms vs adversary mixes",
        run=reputation_eval.run,
        report=reputation_eval.report,
        summarize=reputation_eval.summarize,
        quick_kwargs={
            "mechanisms": ("none", "average", "eigentrust"),
            "malicious_fractions": (0.3,),
            "n_users": 30,
            "rounds": 12,
        },
    ),
    "privacy": ExperimentEntry(
        name="privacy",
        experiment_ids=("E-P1",),
        description="PriServ-style enforcement and OECD compliance",
        run=privacy_eval.run,
        report=privacy_eval.report,
        summarize=privacy_eval.summarize,
        quick_kwargs={"n_users": 25, "n_requests": 150},
    ),
    "satisfaction": ExperimentEntry(
        name="satisfaction",
        experiment_ids=("E-S1",),
        description="Allocation strategies vs long-run satisfaction",
        run=satisfaction_eval.run,
        report=satisfaction_eval.report,
        summarize=satisfaction_eval.summarize,
        quick_kwargs={"n_providers": 8, "n_consumers": 15, "rounds": 15},
    ),
    "robustness": ExperimentEntry(
        name="robustness",
        experiment_ids=("E-X1",),
        description="Attack-scenario catalog vs reputation mechanisms (robustness matrix)",
        run=robustness.run,
        report=robustness.report,
        summarize=robustness.summarize,
        quick_kwargs={
            "scenarios": ("collusion-ring", "whitewash-wave"),
            "mechanisms": ("average", "eigentrust"),
            "n_users": 24,
            "rounds": 12,
        },
    ),
    "ablations": ExperimentEntry(
        name="ablations",
        experiment_ids=("E-A1", "E-A2"),
        description="Aggregator and anonymous-feedback ablations",
        run=ablations.run,
        report=ablations.report,
        summarize=ablations.summarize,
        quick_kwargs={"n_users": 25, "rounds": 10},
    ),
}


def get_experiment(name: str) -> ExperimentEntry:
    """Look up a registered experiment or raise a helpful ``ValueError``."""
    try:
        return EXPERIMENTS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}") from None


def _merged_kwargs(
    entry: ExperimentEntry, *, quick: bool, overrides: dict[str, object]
) -> dict[str, object]:
    kwargs = dict(entry.quick_kwargs) if quick else {}
    kwargs.update(overrides)
    return kwargs


def run_experiment(name: str, *, quick: bool = False, **overrides: object) -> str:
    """Run one registered experiment and return its text report."""
    entry = get_experiment(name)
    result = entry.run(**_merged_kwargs(entry, quick=quick, overrides=overrides))
    return entry.report(result)


def run_experiment_structured(
    name: str,
    *,
    quick: bool = False,
    seed: int | None = None,
    **overrides: object,
) -> RunResult:
    """Run one experiment and return its flat ``summarize()`` metrics.

    ``seed`` is forwarded to ``run()`` only when the experiment accepts a
    seed parameter (the analytic experiments do not), so sweep drivers can
    pass derived seeds unconditionally.

    Returns a :class:`RunResult` — a ``dict`` subclass carrying the metric
    mapping (the historical bare-dict return shape) plus the run's identity
    as attributes.
    """
    entry = get_experiment(name)
    kwargs = _merged_kwargs(entry, quick=quick, overrides=overrides)
    if seed is not None and entry.accepts("seed"):
        kwargs.setdefault("seed", seed)
    result = entry.run(**kwargs)
    return RunResult(
        entry.summarize(result),
        experiment=name,
        params=kwargs,
        seed=kwargs.get("seed") if isinstance(kwargs.get("seed"), int) else None,
    )
