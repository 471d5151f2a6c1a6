"""Parallel sweep campaigns over the registered experiments.

The paper's object of study is a *coupling surface* — how privacy, trust,
reputation and satisfaction respond to the system settings — and a surface
is mapped by sweeping parameters, not by running one point at a time.  This
module turns any registered experiment into a campaign:

* a :class:`SweepSpec` names the experiment and the parameter space —
  explicit value grids (cartesian product), uniform random samples, or a
  Latin-hypercube design over continuous ranges;
* :func:`expand_tasks` materializes the space into :class:`SweepTask`s, each
  with a per-task seed derived (via SHA-256) from the campaign seed, the
  task's parameters and its index — so every task is reproducible in
  isolation and independent of worker scheduling;
* :func:`schedule` orders the tasks for execution: tasks that share a
  simulation (they differ only in the experiment's evaluation-only
  parameters, such as a detection threshold) run back to back, each group
  inside one :func:`~repro.scenarios.runner.shared_simulations` block, so
  the group simulates once;
* :func:`run_sweep` executes the tasks in that order — inline for
  ``jobs=1``, through a :class:`SweepExecutor` otherwise — and collects
  :class:`~repro.experiments.results.ExperimentRecord`s in task order.

The executor keeps a pool of **persistent worker processes** that survive
across sweeps (pass one ``SweepExecutor`` to several :func:`run_sweep`
calls to amortize interpreter/import startup), submits the schedule in
**chunks** of whole simulation groups (fewer IPC round-trips; a chunk
boundary never splits a group, so each group simulates once in one worker),
and supports **streaming record writes**: records are journaled as they
complete and handed to ``on_record`` in task order while later tasks are
still running.

Determinism contract: the records (and hence the serialized JSON) depend
only on the spec — never on the worker count, the chunk size, the schedule
or the completion order.  A shared simulation is the one each of its tasks
would run alone, so sharing returns exactly what re-simulating would.
Timing lives on :class:`SweepResult` for benchmarks but is excluded from
the serialized campaign output.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import itertools
import json
import math
import random
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro import _profiling, faults
from repro.errors import ConfigurationError
from repro.experiments.journal import SweepJournal
from repro.experiments.results import (
    SCALAR_TYPES,
    ExperimentRecord,
    write_records_csv,
    write_records_json,
)
from repro.experiments.runner import get_experiment, run_experiment_structured
from repro.scenarios.runner import shared_simulations

#: Supported parameter-space samplers.
SAMPLERS = ("grid", "random", "latin")


@dataclass(frozen=True)
class ParamRange:
    """A continuous ``[low, high]`` interval for random/Latin sampling."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ConfigurationError(f"empty parameter range [{self.low}, {self.high}]")


@dataclass(frozen=True)
class SweepTask:
    """One parameter point of a campaign, ready to execute anywhere."""

    experiment: str
    index: int
    params: dict[str, object]
    seed: int
    #: Whether the experiment's quick_kwargs form the base the params
    #: override (campaigns default to quick bases so grids stay tractable).
    quick_base: bool = True


@dataclass
class SweepSpec:
    """A campaign: an experiment plus the parameter space to cover."""

    experiment: str
    grids: dict[str, list[object]] = field(default_factory=dict)
    ranges: dict[str, ParamRange] = field(default_factory=dict)
    sampler: str = "grid"
    n_samples: int = 0
    seed: int = 0
    quick_base: bool = True

    def __post_init__(self) -> None:
        if self.sampler not in SAMPLERS:
            raise ConfigurationError(
                f"unknown sampler {self.sampler!r}; expected one of {SAMPLERS}"
            )
        if self.sampler == "grid" and self.ranges:
            raise ConfigurationError(
                "continuous ranges require --sample random or latin; "
                "the grid sampler only takes explicit value lists"
            )
        if self.sampler != "grid" and self.n_samples < 1:
            raise ConfigurationError(f"the {self.sampler} sampler needs n_samples >= 1")
        if self.sampler == "grid" and self.n_samples > 0:
            raise ConfigurationError(
                "n_samples only applies to --sample random/latin; "
                "the grid sampler always runs the full cartesian product"
            )
        if self.sampler == "latin":
            for key, values in self.grids.items():
                if len(values) > self.n_samples:
                    raise ConfigurationError(
                        f"latin design with n_samples={self.n_samples} cannot "
                        f"cover the {len(values)} values of grid parameter "
                        f"{key!r}; raise --n-samples or trim the grid"
                    )
        if not self.grids and not self.ranges:
            raise ConfigurationError("a sweep needs at least one --grid or --range parameter")
        overlap = set(self.grids) & set(self.ranges)
        if overlap:
            raise ConfigurationError(f"parameters given both as grid and range: {sorted(overlap)}")
        for key, values in self.grids.items():
            for value in values:
                if not isinstance(value, SCALAR_TYPES):
                    raise ConfigurationError(
                        f"grid parameter {key!r} has non-scalar value {value!r}; "
                        "sweep records carry JSON scalars only"
                    )
        # Fail fast on parameters the experiment cannot accept.
        entry = get_experiment(self.experiment)
        for name in sorted(set(self.grids) | set(self.ranges)):
            if not entry.accepts(name):
                raise ConfigurationError(
                    f"experiment {self.experiment!r} takes no parameter {name!r}; "
                    f"accepted: {sorted(entry.accepted_parameters())}"
                )

    def campaign_metadata(self) -> dict[str, object]:
        """Deterministic campaign header for serialized results (no timing,
        no worker counts — those must not leak into the output file)."""
        return {
            "experiment": self.experiment,
            "sampler": self.sampler,
            "seed": self.seed,
            "quick_base": self.quick_base,
            "grids": {key: list(values) for key, values in self.grids.items()},
            "ranges": {
                key: [value.low, value.high] for key, value in self.ranges.items()
            },
            "n_samples": self.n_samples,
        }


def derive_task_seed(
    campaign_seed: int, experiment: str, index: int, params: dict[str, object]
) -> int:
    """A per-task seed that is stable across processes and Python runs.

    SHA-256 over the canonical JSON of (campaign seed, experiment, index,
    params) — unlike ``hash()``, immune to ``PYTHONHASHSEED``.
    """
    canonical = json.dumps(
        {
            "campaign_seed": campaign_seed,
            "experiment": experiment,
            "index": index,
            "params": params,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _grid_points(grids: dict[str, list[object]]) -> list[dict[str, object]]:
    keys = list(grids)
    combos = itertools.product(*(grids[key] for key in keys))
    return [dict(zip(keys, combo, strict=True)) for combo in combos]


def _random_points(spec: SweepSpec) -> list[dict[str, object]]:
    rng = random.Random(spec.seed)
    points = []
    for _ in range(spec.n_samples):
        point: dict[str, object] = {}
        for key in sorted(spec.grids):
            point[key] = rng.choice(spec.grids[key])
        for key in sorted(spec.ranges):
            bounds = spec.ranges[key]
            point[key] = rng.uniform(bounds.low, bounds.high)
        points.append(point)
    return points


def _latin_points(spec: SweepSpec) -> list[dict[str, object]]:
    """Latin-hypercube design: each continuous range is cut into
    ``n_samples`` strata and every stratum is visited exactly once per
    parameter; discrete grid parameters are stratified over their values
    (spec validation guarantees ``n_samples >= len(values)``, so every
    value appears at least once)."""
    rng = random.Random(spec.seed)
    n = spec.n_samples
    columns: dict[str, list[object]] = {}
    for key in sorted(spec.grids):
        values = spec.grids[key]
        # Repeat the value list to length n, then shuffle: balanced coverage.
        repeated = [values[i % len(values)] for i in range(n)]
        rng.shuffle(repeated)
        columns[key] = repeated
    for key in sorted(spec.ranges):
        bounds = spec.ranges[key]
        strata = list(range(n))
        rng.shuffle(strata)
        columns[key] = [
            bounds.low + (stratum + rng.random()) / n * (bounds.high - bounds.low)
            for stratum in strata
        ]
    return [{key: columns[key][i] for key in columns} for i in range(n)]


def expand_tasks(spec: SweepSpec) -> list[SweepTask]:
    """Materialize the campaign's parameter space into ordered tasks."""
    if spec.sampler == "grid":
        points = _grid_points(spec.grids)
    elif spec.sampler == "random":
        points = _random_points(spec)
    else:
        points = _latin_points(spec)
    return [
        SweepTask(
            experiment=spec.experiment,
            index=index,
            params=point,
            seed=derive_task_seed(spec.seed, spec.experiment, index, point),
            quick_base=spec.quick_base,
        )
        for index, point in enumerate(points)
    ]


def _effective_seed(task: SweepTask) -> object:
    """The seed a task runs with: an explicitly swept ``seed`` wins over the
    derived task seed (the user asked for that exact value)."""
    seed = task.params.get("seed")
    return task.seed if seed is None else seed


def simulation_identity(task: SweepTask) -> str | int:
    """What a task simulates: its experiment, base and params minus the
    experiment's evaluation-only ones, plus its effective seed.  Tasks with
    equal identities differ only in how the metrics read one simulation.

    An experiment that declares no evaluation-only parameter shares
    nothing, so each of its tasks is its own identity (its index).
    """
    names = get_experiment(task.experiment).evaluation_only
    if not names:
        return task.index
    simulated = {key: value for key, value in task.params.items() if key not in names}
    return json.dumps(
        [task.experiment, task.quick_base, simulated, _effective_seed(task)], sort_keys=True
    )


def schedule(tasks: Sequence[SweepTask]) -> list[SweepTask]:
    """The order a sweep executes its tasks in.

    Tasks with the same :func:`simulation_identity` run back to back, each
    group where its first task appears, so one
    :func:`~repro.scenarios.runner.shared_simulations` block holds one
    group's simulations rather than a whole pass over the grid.  Tasks of
    experiments without evaluation-only parameters keep their order.
    Records do not depend on the schedule: they are handed on and
    serialized in task-index order.
    """
    groups: dict[str | int, list[SweepTask]] = {}
    for task in tasks:
        groups.setdefault(simulation_identity(task), []).append(task)
    return [task for group in groups.values() for task in group]


@dataclass(frozen=True)
class RetryPolicy:
    """Per-task retry behaviour for transient failures.

    The default — a single attempt, no backoff — reproduces the historical
    capture-and-record behaviour exactly.  With ``max_attempts > 1`` a task
    that raises is re-executed after an exponential backoff pause; only
    when the attempts (or the optional wall-clock ``deadline``, in seconds,
    measured across the task's attempts) are exhausted does it become an
    error record.  Retries never change a record's bytes: a task either
    eventually returns its deterministic ok record, or fails with the
    *final* attempt's failure detail.  Deadline truncation is the one
    wall-clock-dependent part — campaigns that must be byte-reproducible
    under failure leave ``deadline`` unset.
    """

    max_attempts: int = 1
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff durations must be non-negative")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be at least 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive")

    def backoff(self, attempt: int) -> float:
        """Pause before re-running after the ``attempt``-th failure (1-based)."""
        return min(self.backoff_max, self.backoff_base * self.backoff_factor ** (attempt - 1))


def task_failure_record(
    task: SweepTask, used_seed: int | None, exc: BaseException, *, retries: int
) -> ExperimentRecord:
    """Structured error record for a task that exhausted its attempts.

    Beyond the one-line ``error`` summary, the ``failure`` block carries the
    exception class, message, full formatted traceback and the retry count —
    enough to diagnose a failed point without re-running the campaign.
    """
    return ExperimentRecord(
        experiment=task.experiment,
        task_index=task.index,
        params=task.params,
        seed=used_seed,
        status="error",
        metrics={},
        error=f"{type(exc).__name__}: {exc}",
        failure={
            "exception": type(exc).__name__,
            "message": str(exc),
            "traceback": "".join(traceback.format_exception(exc)),
            "retries": retries,
        },
    )


def execute_task(task: SweepTask, retry: RetryPolicy | None = None) -> ExperimentRecord:
    """Run one task to a record; failures become ``status="error"`` records
    so a single bad point never sinks a campaign.  Top-level so it pickles
    for the process pool."""
    policy = retry or RetryPolicy()
    entry = get_experiment(task.experiment)
    # The seed applies when the experiment takes one; the record reports
    # the seed actually used.
    params = dict(task.params)
    params.pop("seed", None)
    seed = _effective_seed(task)
    used_seed: int | None = seed if entry.accepts("seed") else None
    started = _profiling.clock()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            # Inside the try: an injected "raise" at this site is exactly a
            # transient task failure, so it flows through the retry policy
            # like any real exception would.
            faults.fire(
                "sweep.task",
                experiment=task.experiment,
                task_index=task.index,
                attempt=attempt,
            )
            metrics = run_experiment_structured(
                task.experiment,
                quick=task.quick_base,
                seed=seed,
                **params,
            )
            return ExperimentRecord(
                experiment=task.experiment,
                task_index=task.index,
                params=task.params,
                seed=used_seed,
                status="ok",
                metrics=metrics,
            )
        except Exception as exc:  # noqa: BLE001 - campaign isolation boundary
            out_of_time = (
                policy.deadline is not None
                and _profiling.clock() - started >= policy.deadline
            )
            if attempt >= policy.max_attempts or out_of_time:
                return task_failure_record(task, used_seed, exc, retries=attempt - 1)
            time.sleep(policy.backoff(attempt))
    raise AssertionError("unreachable: the attempt loop always returns")


def _worker_init() -> None:
    """Initializer for persistent sweep workers: fault-plan firing counters
    are per-process state, so a freshly forked worker starts from zero
    rather than inheriting its parent's counts."""
    faults.reset_worker_state()


def _execute_scheduled(
    tasks: Iterable[SweepTask], retry: RetryPolicy | None = None
) -> Iterator[ExperimentRecord]:
    """Run scheduled tasks, each group of one :func:`simulation_identity`
    inside its own :func:`~repro.scenarios.runner.shared_simulations`
    block, so a group's simulations are dropped before the next starts."""
    for _, group in itertools.groupby(tasks, key=simulation_identity):
        with shared_simulations():
            for task in group:
                yield execute_task(task, retry)


def _execute_chunk(
    tasks: list[SweepTask], retry: RetryPolicy | None = None
) -> list[ExperimentRecord]:
    """Run one chunk of the schedule in a worker; top-level so it pickles.
    One submission per chunk instead of per task keeps IPC and future
    bookkeeping off the per-task critical path."""
    return list(_execute_scheduled(tasks, retry))


#: Record-streaming callback: called with each record in task-index order.
RecordCallback = Callable[[ExperimentRecord], None]


def _in_task_order(
    tasks: Sequence[SweepTask],
    completed: Iterable[ExperimentRecord],
    on_record: RecordCallback | None,
    journal: SweepJournal | None = None,
) -> list[ExperimentRecord]:
    """Collect records that arrive in completion order; return them in the
    order of ``tasks``.

    Each record is journaled the moment it arrives, so an interruption
    loses no completed task.  ``on_record`` gets a record once every record
    before it in ``tasks`` has arrived: whatever the schedule, callers see
    task-index order.
    """
    held: dict[int, ExperimentRecord] = {}
    ordered: list[ExperimentRecord] = []
    for record in completed:
        if journal is not None:
            journal.append(record)
        held[record.task_index] = record
        while len(ordered) < len(tasks) and tasks[len(ordered)].index in held:
            ready = held.pop(tasks[len(ordered)].index)
            ordered.append(ready)
            if on_record is not None:
                on_record(ready)
    return ordered


class SweepExecutor:
    """A reusable pool of persistent sweep worker processes.

    The underlying ``ProcessPoolExecutor`` is created lazily on first use
    and kept alive until :meth:`shutdown` (or context-manager exit), so
    consecutive campaigns — a benchmark's repeats, a driver script's sweep
    series — pay worker startup and imports once.  Each submission is a
    chunk of whole simulation groups (see :meth:`_chunks`), so a group
    simulates once, in one worker, which keeps no simulation past it.
    """

    def __init__(
        self, jobs: int, *, chunksize: int | None = None, max_pool_rebuilds: int = 2
    ) -> None:
        if jobs < 1:
            raise ConfigurationError("jobs must be at least 1")
        if chunksize is not None and chunksize < 1:
            raise ConfigurationError("chunksize must be at least 1")
        if max_pool_rebuilds < 0:
            raise ConfigurationError("max_pool_rebuilds must be non-negative")
        self.jobs = jobs
        self.chunksize = chunksize
        #: How many times one :meth:`completions` run may replace a broken
        #: pool (a worker died mid-chunk) before giving up and re-raising.
        self.max_pool_rebuilds = max_pool_rebuilds
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_worker_init
            )
        return self._pool

    def _effective_chunksize(self, n_tasks: int) -> int:
        """The target tasks per chunk: ``chunksize``, or four chunks per
        worker, which balances scheduling slack against IPC.  A chunk holds
        fewer when the next group would overflow it, and more only when one
        group alone is larger."""
        if self.chunksize is not None:
            return self.chunksize
        return max(1, math.ceil(n_tasks / (self.jobs * 4)))

    def _chunks(self, tasks: Sequence[SweepTask]) -> list[list[SweepTask]]:
        """The pool submissions for ``tasks``: whole simulation groups, in
        :func:`schedule` order, packed into chunks.

        A chunk closes before a group that would push it past the target
        size, and a group larger than the target is a chunk of its own.
        Splitting a group would simulate it once per part.
        """
        size = self._effective_chunksize(len(tasks))
        chunks: list[list[SweepTask]] = []
        chunk: list[SweepTask] = []
        for _, members in itertools.groupby(schedule(tasks), key=simulation_identity):
            group = list(members)
            if chunk and len(chunk) + len(group) > size:
                chunks.append(chunk)
                chunk = []
            chunk.extend(group)
        if chunk:
            chunks.append(chunk)
        return chunks

    def completions(
        self, tasks: Sequence[SweepTask], retry: RetryPolicy | None = None
    ) -> Iterator[ExperimentRecord]:
        """Execute tasks on the pool; yield each chunk's records as soon as
        the chunk finishes, in completion order.

        A worker death (``SIGKILL``, OOM, hard crash) breaks the whole
        ``ProcessPoolExecutor``; this method recovers by discarding the
        broken pool and re-running every chunk not yet yielded on a fresh
        one — at most :attr:`max_pool_rebuilds` times per call.  Chunks are
        pure functions of their tasks, so a re-run reproduces exactly the
        records the lost workers would have produced, and a chunk is only
        ever yielded once.
        """
        pending: dict[int, list[SweepTask]] = dict(enumerate(self._chunks(tasks)))
        rebuilds = 0
        while pending:
            pool = self._ensure_pool()
            futures = {
                pool.submit(_execute_chunk, chunk, retry): index
                for index, chunk in pending.items()
            }
            try:
                for future in concurrent.futures.as_completed(futures):
                    records = future.result()
                    del pending[futures[future]]
                    yield from records
            except BrokenProcessPool:
                # Results completed but not yet consumed are lost with the
                # pool; their chunks simply stay pending.
                self.shutdown()
                rebuilds += 1
                if rebuilds > self.max_pool_rebuilds:
                    raise

    def shutdown(self) -> None:
        """Stop the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> SweepExecutor:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


@dataclass
class SweepResult:
    """The executed campaign: ordered records plus execution telemetry."""

    spec: SweepSpec
    records: list[ExperimentRecord]
    jobs: int
    wall_time: float
    #: Tasks skipped because an intact journal line already carried their
    #: record (0 for non-journaled sweeps).  Telemetry, like ``jobs``.
    n_resumed: int = 0

    @property
    def n_ok(self) -> int:
        return sum(1 for record in self.records if record.ok)

    @property
    def n_errors(self) -> int:
        return len(self.records) - self.n_ok

    @property
    def failed_records(self) -> list[ExperimentRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def n_executed(self) -> int:
        """Tasks this run executed: the records not resumed from a journal."""
        return len(self.records) - self.n_resumed

    @property
    def tasks_per_second(self) -> float:
        """Executed tasks per second of ``wall_time``, which covers only
        them: resumed tasks cost no execution."""
        if self.wall_time <= 0:
            return float("inf")
        return self.n_executed / self.wall_time

    def write_json(self, path: str, *, checksum: bool = True) -> None:
        """Serialize records + campaign header; deterministic by contract.

        By default an SHA-256 sidecar (``<path>.sha256``) rides along so
        ``verify-records`` and the journal-resume tooling can detect
        truncation or bit rot later.
        """
        write_records_json(
            path, self.records, campaign=self.spec.campaign_metadata(), checksum=checksum
        )

    def write_csv(self, path: str, *, checksum: bool = True) -> None:
        write_records_csv(path, self.records, checksum=checksum)


def run_sweep(
    spec: SweepSpec,
    *,
    jobs: int = 1,
    chunksize: int | None = None,
    executor: SweepExecutor | None = None,
    on_record: RecordCallback | None = None,
    retry: RetryPolicy | None = None,
    journal: str | None = None,
) -> SweepResult:
    """Execute every task of the campaign and collect ordered records.

    ``jobs=1`` runs inline (no pool, easiest to debug); ``jobs>1`` fans
    chunks of whole simulation groups over a :class:`SweepExecutor` — pass
    ``executor`` to reuse an existing pool across campaigns (its
    ``jobs``/``chunksize`` then apply).  ``chunksize`` is a target: a chunk
    closes before a group that would overflow it, and a larger group is a
    chunk of its own.  Both paths execute the tasks in :func:`schedule`
    order, and each group simulates once.
    ``on_record`` streams records in task order as they complete.  Records
    are always returned sorted by task index and are byte-identical
    regardless of worker count, chunking, schedule or streaming.

    ``retry`` applies a :class:`RetryPolicy` to every task.  ``journal``
    names a durable :class:`~repro.experiments.journal.SweepJournal` file:
    every record is appended (and fsynced) as soon as its task completes,
    and an interrupted campaign re-run with the same spec and journal path
    skips the intact journaled tasks, executes only the missing or corrupt
    ones, and still returns the full record list — byte-identical to a cold
    sweep.  ``on_record`` fires only for newly executed tasks, after their
    journal line is durable.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    tasks = expand_tasks(spec)
    start = _profiling.clock()
    resumed: dict[int, ExperimentRecord] = {}
    with contextlib.ExitStack() as stack:
        journal_handle: SweepJournal | None = None
        if journal is not None:
            journal_handle, resumed, _ = SweepJournal.open(journal, spec.campaign_metadata())
            stack.callback(journal_handle.close)
            tasks = [task for task in tasks if task.index not in resumed]
        completed: Iterable[ExperimentRecord]
        if executor is not None:
            completed = executor.completions(tasks, retry)
            effective_jobs = executor.jobs
        elif jobs == 1 or len(tasks) <= 1:
            # Closed on the way out, so an interrupted sweep leaves no
            # shared-simulations block open.
            completed = stack.enter_context(
                contextlib.closing(_execute_scheduled(schedule(tasks), retry))
            )
            effective_jobs = 1
        else:
            owned = stack.enter_context(
                SweepExecutor(min(jobs, len(tasks)), chunksize=chunksize)
            )
            completed = owned.completions(tasks, retry)
            effective_jobs = jobs
        records = _in_task_order(tasks, completed, on_record, journal_handle)
    records.extend(resumed.values())
    records.sort(key=lambda record: record.task_index)
    wall_time = _profiling.clock() - start
    return SweepResult(
        spec=spec,
        records=records,
        jobs=effective_jobs,
        wall_time=wall_time,
        n_resumed=len(resumed),
    )


# -- CLI-facing parsing helpers -------------------------------------------------


def parse_scalar(text: str) -> object:
    """``"25"`` → 25, ``"0.5"`` → 0.5, ``"true"`` → True, else the string.

    ``"nan"``/``"inf"`` stay strings: non-finite floats have no strict-JSON
    representation, so they may not enter a record as numbers.
    """
    with contextlib.suppress(ValueError):
        return int(text)
    with contextlib.suppress(ValueError):
        value = float(text)
        if math.isfinite(value):
            return value
    lowered = text.lower()
    if lowered in ("true", "yes"):
        return True
    if lowered in ("false", "no"):
        return False
    return text


def parse_grid_option(option: str) -> tuple[str, list[object]]:
    """Parse one ``--grid key=v1,v2,...`` occurrence."""
    if "=" not in option:
        raise ConfigurationError(f"--grid expects key=v1,v2,... (got {option!r})")
    key, _, values_text = option.partition("=")
    values = [parse_scalar(value) for value in values_text.split(",") if value != ""]
    if not key or not values:
        raise ConfigurationError(f"--grid expects key=v1,v2,... (got {option!r})")
    return key, values


def parse_range_option(option: str) -> tuple[str, ParamRange]:
    """Parse one ``--range key=low:high`` occurrence."""
    if "=" not in option or ":" not in option.partition("=")[2]:
        raise ConfigurationError(f"--range expects key=low:high (got {option!r})")
    key, _, bounds_text = option.partition("=")
    low_text, _, high_text = bounds_text.partition(":")
    try:
        bounds = ParamRange(low=float(low_text), high=float(high_text))
    except ValueError:
        raise ConfigurationError(f"--range expects numeric bounds (got {option!r})") from None
    return key, bounds


def spec_from_options(
    experiment: str,
    *,
    grid_options: Sequence[str] = (),
    range_options: Sequence[str] = (),
    sampler: str = "grid",
    n_samples: int = 0,
    seed: int = 0,
    quick_base: bool = True,
) -> SweepSpec:
    """Build a :class:`SweepSpec` from raw CLI option strings."""
    grids: dict[str, list[object]] = {}
    for option in grid_options:
        key, values = parse_grid_option(option)
        # Repeating --grid for the same key extends its value list.
        grids.setdefault(key, []).extend(values)
    ranges: dict[str, ParamRange] = {}
    for option in range_options:
        key, bounds = parse_range_option(option)
        if key in ranges:
            raise ConfigurationError(f"--range given twice for parameter {key!r}")
        ranges[key] = bounds
    return SweepSpec(
        experiment=experiment,
        grids=grids,
        ranges=ranges,
        sampler=sampler,
        n_samples=n_samples,
        seed=seed,
        quick_base=quick_base,
    )
