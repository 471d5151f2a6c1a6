"""Deterministic fault injection: seeded chaos for the execution layer.

Fault tolerance is only trustworthy if every recovery path is *exercised*,
and recovery paths are only testable if failures strike reproducibly.  This
module provides that: a :class:`FaultPlan` is plain data — a seed plus an
ordered list of :class:`FaultRule`\\ s — and instrumented call sites ask
:func:`fire` whether a fault strikes *here, now*.  Given the same plan and
the same sequence of ``fire`` calls, the same faults strike in the same
places, so chaos tests can assert byte-identical recovery instead of
"usually survives".

Four fault actions exist:

* ``"raise"`` — :func:`fire` raises :class:`~repro.errors.InjectedFault`
  (transient-exception testing; pairs with the sweep retry policy);
* ``"kill"`` — the *current process* dies by ``SIGKILL`` (worker-loss
  testing; pairs with the executor's pool-rebuild recovery);
* ``"corrupt"`` — returned to the caller, which damages the bytes it was
  about to persist (storage-rot testing; pairs with checksum validation);
* ``"degrade"`` — returned to the caller, which sheds the request it was
  about to admit (overload testing at ``http.admit``).

Plans propagate to sweep worker processes through the ``REPRO_FAULTS``
environment variable (the plan's JSON form), and a ``kill`` rule can carry a
file latch so a rebuilt worker does not die again on the re-executed task.

Randomness discipline: probabilistic rules draw from a ``random.Random``
seeded from the plan seed and the rule index — never from the simulation's
named streams and never from ambient entropy — so an active plan cannot
perturb a trajectory except through the faults it injects.
"""

from __future__ import annotations

import json
import os
import random
import signal
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator, Mapping

from repro.errors import ConfigurationError, InjectedFault

#: Environment variable carrying a plan's JSON form into worker processes.
ENV_VAR = "REPRO_FAULTS"

#: Supported fault actions (see module docstring).
ACTIONS = ("raise", "kill", "corrupt", "degrade")


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: where it strikes, what it does, how often.

    ``match`` restricts the rule to ``fire`` calls whose detail mapping
    carries every listed key/value pair (e.g. ``(("task_index", 3),)``
    strikes only task 3).  ``times`` caps firings per process (``None`` =
    unlimited); ``probability`` gates each candidate firing on a seeded
    coin; ``latch`` names a cross-process once-only latch file created in
    the plan's ``latch_dir`` the instant the rule fires.
    """

    site: str
    action: str
    match: tuple[tuple[str, object], ...] = ()
    times: int | None = 1
    probability: float | None = None
    latch: str | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if not self.site:
            raise ConfigurationError("a fault rule needs a non-empty site name")
        if self.times is not None and self.times < 1:
            raise ConfigurationError("fault rule times must be at least 1 (or None)")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError("fault rule probability must be in [0, 1]")

    def matches(self, detail: Mapping[str, object]) -> bool:
        return all(detail.get(key) == value for key, value in self.match)

    def to_dict(self) -> dict[str, object]:
        return {
            "site": self.site,
            "action": self.action,
            "match": dict(self.match),
            "times": self.times,
            "probability": self.probability,
            "latch": self.latch,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> FaultRule:
        match = payload.get("match") or {}
        if not isinstance(match, Mapping):
            raise ConfigurationError(f"fault rule match must be a mapping, got {match!r}")
        times = payload.get("times", 1)
        return cls(
            site=str(payload.get("site", "")),
            action=str(payload.get("action", "")),
            match=tuple(sorted(match.items())),
            times=None if times is None else int(times),  # type: ignore[arg-type]
            probability=(
                None
                if payload.get("probability") is None
                else float(payload["probability"])  # type: ignore[arg-type]
            ),
            latch=None if payload.get("latch") is None else str(payload["latch"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable chaos schedule.

    Rules are evaluated in order at each :func:`fire` call; the first
    eligible rule fires.  ``latch_dir`` hosts the latch files of ``latch``
    rules and must be set when any rule declares one.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0
    latch_dir: str | None = None

    def __post_init__(self) -> None:
        if self.latch_dir is None and any(rule.latch is not None for rule in self.rules):
            raise ConfigurationError("a plan with latch rules needs a latch_dir")

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "latch_dir": self.latch_dir,
                "rules": [rule.to_dict() for rule in self.rules],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> FaultPlan:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"malformed fault plan JSON: {error}") from error
        if not isinstance(payload, dict):
            raise ConfigurationError("a fault plan must be a JSON object")
        rules = payload.get("rules", [])
        if not isinstance(rules, list):
            raise ConfigurationError("fault plan rules must be a list")
        latch_dir = payload.get("latch_dir")
        return cls(
            rules=tuple(FaultRule.from_dict(rule) for rule in rules),
            seed=int(payload.get("seed", 0)),
            latch_dir=None if latch_dir is None else str(latch_dir),
        )


# -- runtime state ---------------------------------------------------------

_ACTIVE: FaultPlan | None = None
#: Memo of the last environment-installed plan, keyed by the raw JSON so a
#: changed variable (tests monkeypatching) re-parses and resets counters.
_ENV_CACHE: tuple[str, FaultPlan] | None = None
#: Per-process firing counts and probability generators, by rule index.
_FIRED: dict[int, int] = {}
_RNGS: dict[int, random.Random] = {}


def _reset_runtime() -> None:
    _FIRED.clear()
    _RNGS.clear()


def activate(plan: FaultPlan | None) -> None:
    """Install (or with ``None`` clear) the process-wide plan, resetting
    firing counters.  An installed plan takes precedence over ``REPRO_FAULTS``."""
    global _ACTIVE
    _ACTIVE = plan
    _reset_runtime()


@contextmanager
def active(plan: FaultPlan) -> Iterator[None]:
    """Scoped :func:`activate`; restores the previous plan on exit."""
    previous = _ACTIVE
    activate(plan)
    try:
        yield
    finally:
        activate(previous)


def reset_worker_state() -> None:
    """Drop firing counters inherited through ``fork`` (pool worker init).

    A worker forked mid-campaign would otherwise start with its parent's
    counts; each worker must evaluate ``times`` caps over its own life.
    """
    _reset_runtime()


def current_plan() -> FaultPlan | None:
    """The plan in effect: the activated one, else ``REPRO_FAULTS``, else None."""
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.from_json(raw))
        _reset_runtime()
    return _ENV_CACHE[1]


def _latch_path(plan: FaultPlan, rule: FaultRule) -> str | None:
    if rule.latch is None:
        return None
    assert plan.latch_dir is not None  # guaranteed by FaultPlan validation
    return os.path.join(plan.latch_dir, rule.latch)


def _rule_rng(plan: FaultPlan, index: int) -> random.Random:
    rng = _RNGS.get(index)
    if rng is None:
        rng = random.Random(plan.seed * 1000003 + index)
        _RNGS[index] = rng
    return rng


def fire(site: str, **detail: object) -> str | None:
    """Evaluate the active plan at a named site.

    Returns ``None`` when no rule fires, ``"corrupt"``/``"degrade"`` for the
    caller to implement, raises :class:`InjectedFault` for ``"raise"`` rules
    and ``SIGKILL``\\ s the current process for ``"kill"`` rules.  With no
    active plan and no ``REPRO_FAULTS`` this is a dictionary lookup and a
    falsy check — cheap enough to leave permanently instrumented.
    """
    plan = current_plan()
    if plan is None:
        return None
    for index, rule in enumerate(plan.rules):
        if rule.site != site or not rule.matches(detail):
            continue
        if rule.times is not None and _FIRED.get(index, 0) >= rule.times:
            continue
        latch = _latch_path(plan, rule)
        if latch is not None and os.path.exists(latch):
            continue
        if rule.probability is not None and not (
            _rule_rng(plan, index).random() < rule.probability
        ):
            continue
        _FIRED[index] = _FIRED.get(index, 0) + 1
        if latch is not None:
            # Persist the latch *before* acting so even a kill rule arms it.
            with open(latch, "w", encoding="utf-8") as handle:
                handle.write(f"{site}\n")
        if rule.action == "raise":
            detail_text = ", ".join(f"{key}={detail[key]!r}" for key in sorted(detail))
            raise InjectedFault(f"injected fault at {site} ({detail_text})")
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        return rule.action
    return None


def corrupt_bytes(data: bytes) -> bytes:
    """Deterministically flip one bit near the middle (models storage rot)."""
    if not data:
        return b"\x00"
    index = len(data) // 2
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1 :]
