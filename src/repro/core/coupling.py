"""The Section-3 concept interactions as an explicit dynamical system.

The paper's Figure 1 draws arrows between satisfaction, reputation, privacy
and trust towards the system, and Section 3 spells out five couplings.  They
are implemented as a damped discrete dynamical system over the state

* ``trust`` — the users' trust towards the system;
* ``satisfaction`` — global users' satisfaction;
* ``reputation_efficiency`` — how well the reputation mechanism works;
* ``disclosure`` — how much information users disclose;
* ``honest_contribution`` — how honestly users feed the reputation mechanism;
* ``privacy_satisfaction`` — derived from disclosure and policy respect.

Update rules (each bullet of Section 3 maps to one term):

1. trust ↔ satisfaction reinforce each other;
2. reputation efficiency raises trust, and trust raises honest contribution;
3. reputation efficiency raises satisfaction, and satisfaction (through
   participation) raises reputation efficiency;
4. when the trustworthy fraction of the population is below one half, trust
   is capped regardless of how accurate the mechanism is (users keep
   contributing — honest contribution is not capped);
5. disclosure raises reputation efficiency, trust raises disclosure, and
   disclosure lowers privacy satisfaction while policy respect raises it.

:func:`coupling_matrix` turns the dynamics into the quantitative counterpart
of Figure 1: the signed sensitivity of every variable to a perturbation of
every other variable at equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

from repro._util import clamp, require_unit_interval
from repro.core import backend as backend_kernels
from repro.errors import ConfigurationError

#: Variables a perturbation experiment can target.  The order doubles as the
#: column layout of the array kernels (:data:`repro.core.backend.COUPLING_LAYOUT`).
STATE_VARIABLES = (
    "trust",
    "satisfaction",
    "reputation_efficiency",
    "disclosure",
    "honest_contribution",
    "privacy_satisfaction",
)


def _state_to_vector(state: CouplingState) -> np.ndarray:
    return np.array([getattr(state, name) for name in STATE_VARIABLES], dtype=float)


def _state_from_vector(values: Sequence[float]) -> CouplingState:
    return CouplingState(**{name: float(value) for name, value in zip(STATE_VARIABLES, values, strict=True)})


@dataclass(frozen=True)
class CouplingState:
    """One point of the coupled system's state space (all values in [0, 1])."""

    trust: float = 0.5
    satisfaction: float = 0.5
    reputation_efficiency: float = 0.5
    disclosure: float = 0.5
    honest_contribution: float = 0.5
    privacy_satisfaction: float = 0.5

    def __post_init__(self) -> None:
        for name in STATE_VARIABLES:
            require_unit_interval(getattr(self, name), name)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STATE_VARIABLES}

    def distance(self, other: CouplingState) -> float:
        return max(abs(getattr(self, name) - getattr(other, name)) for name in STATE_VARIABLES)


@dataclass
class CouplingDynamics:
    """Damped fixed-point iteration over the Section-3 couplings.

    Parameters
    ----------
    sharing_level:
        The system's information-sharing setting σ; scales how much users can
        disclose at most.
    mechanism_power:
        Intrinsic quality of the deployed reputation mechanism (its accuracy
        when fed full, honest evidence).
    policy_respect:
        Fraction of disclosures that honour privacy policies (1.0 = no
        breaches).
    trustworthy_fraction:
        Fraction of the population that is actually trustworthy; below 0.5
        the bullet-4 dissociation caps trust.
    damping:
        Step size of the fixed-point iteration (lower = smoother).
    """

    sharing_level: float = 0.8
    mechanism_power: float = 0.9
    policy_respect: float = 1.0
    trustworthy_fraction: float = 0.8
    damping: float = 0.3
    privacy_weight: float = 1.0
    reputation_weight: float = 1.0
    satisfaction_weight: float = 1.0

    def __post_init__(self) -> None:
        require_unit_interval(self.sharing_level, "sharing_level")
        require_unit_interval(self.mechanism_power, "mechanism_power")
        require_unit_interval(self.policy_respect, "policy_respect")
        require_unit_interval(self.trustworthy_fraction, "trustworthy_fraction")
        require_unit_interval(self.damping, "damping")
        # repro-lint: ignore[R5] config sentinel: damping arrives by
        # assignment, not arithmetic, so the zero check is exact
        if self.damping == 0.0:
            raise ConfigurationError("damping must be positive for the state to move")

    def _kernel_params(self) -> dict[str, float]:
        """The dynamics parameters in the form the array kernels take."""
        return {
            "sharing_level": self.sharing_level,
            "mechanism_power": self.mechanism_power,
            "policy_respect": self.policy_respect,
            "trustworthy_fraction": self.trustworthy_fraction,
            "damping": self.damping,
            "privacy_weight": self.privacy_weight,
            "reputation_weight": self.reputation_weight,
            "satisfaction_weight": self.satisfaction_weight,
        }

    # -- targets (the couplings themselves) ---------------------------------

    def _privacy_satisfaction_target(self, state: CouplingState) -> float:
        # Bullet 5: more disclosure erodes privacy satisfaction; respect of
        # policies sustains it.
        return clamp(self.policy_respect * (1.0 - 0.6 * state.disclosure))

    def _reputation_efficiency_target(self, state: CouplingState) -> float:
        # Bullets 3 and 5: the mechanism is efficient when it receives much
        # (disclosure) honest (honest_contribution) evidence.
        evidence = state.disclosure * (0.4 + 0.6 * state.honest_contribution)
        return clamp(self.mechanism_power * evidence)

    def _satisfaction_target(self, state: CouplingState) -> float:
        # Bullets 1, 3 and 5: satisfaction grows with trust, with reputation
        # efficiency (better partner choices) and with privacy satisfaction.
        return clamp(
            0.35 * state.trust
            + 0.35 * state.reputation_efficiency
            + 0.30 * state.privacy_satisfaction
        )

    def _trust_target(self, state: CouplingState) -> float:
        # The composite trust of the three facets (weighted mean keeps the
        # dynamics smooth); bullet 4 discounts the reputation contribution by
        # the trustworthy fraction of the population: an accurate mechanism
        # reporting that most peers are untrustworthy does not make the
        # system trustworthy.
        effective_reputation = state.reputation_efficiency * self.trustworthy_fraction
        total = self.privacy_weight + self.reputation_weight + self.satisfaction_weight
        return clamp(
            (
                self.privacy_weight * state.privacy_satisfaction
                + self.reputation_weight * effective_reputation
                + self.satisfaction_weight * state.satisfaction
            )
            / total
        )

    def _disclosure_target(self, state: CouplingState) -> float:
        # Bullet 5: the less a user trusts the system, the less she discloses.
        return clamp(self.sharing_level * (0.2 + 0.8 * state.trust))

    def _honest_contribution_target(self, state: CouplingState) -> float:
        # Bullet 2: the more a user trusts the system, the more honestly she
        # contributes; even distrusting users keep contributing somewhat
        # (bullet 4 observes contribution continues).
        return clamp(0.3 + 0.7 * state.trust)

    # -- iteration -------------------------------------------------------------

    def step(self, state: CouplingState) -> CouplingState:
        """One damped update of every state variable."""
        targets = {
            "privacy_satisfaction": self._privacy_satisfaction_target(state),
            "reputation_efficiency": self._reputation_efficiency_target(state),
            "satisfaction": self._satisfaction_target(state),
            "trust": self._trust_target(state),
            "disclosure": self._disclosure_target(state),
            "honest_contribution": self._honest_contribution_target(state),
        }
        updated = {
            name: clamp(
                (1.0 - self.damping) * getattr(state, name) + self.damping * target
            )
            for name, target in targets.items()
        }
        return CouplingState(**updated)

    def run(
        self,
        initial: CouplingState | None = None,
        *,
        steps: int = 200,
        tolerance: float = 1e-6,
    ) -> list[CouplingState]:
        """Iterate until convergence (or the step budget) and return the trajectory.

        The damped update runs as an array kernel
        (:func:`repro.core.backend.coupling_run`) whose expressions mirror
        :meth:`step` operand by operand, so the trajectory is bitwise
        identical to repeated :meth:`step` calls.
        """
        if steps < 1:
            raise ConfigurationError("steps must be at least 1")
        path = backend_kernels.coupling_run(
            _state_to_vector(initial or CouplingState()),
            steps=steps,
            tolerance=tolerance,
            **self._kernel_params(),
        )
        return [_state_from_vector(row) for row in path]

    def equilibrium(
        self, initial: CouplingState | None = None, *, steps: int = 500
    ) -> CouplingState:
        """The state the dynamics converge to from ``initial``."""
        return self.run(initial, steps=steps)[-1]

    def equilibria(
        self,
        initials: Sequence[CouplingState],
        *,
        steps: int = 500,
        tolerance: float = 1e-6,
    ) -> list[CouplingState]:
        """Fixed points reached from many initial states.

        Equivalent to ``[self.equilibrium(s) for s in initials]`` but every
        still-unconverged trajectory advances through one batched kernel
        step per iteration — the batch form the perturbation experiments
        and settings sweeps are built on.
        """
        if steps < 1:
            raise ConfigurationError("steps must be at least 1")
        if not initials:
            return []
        batch = np.stack([_state_to_vector(state) for state in initials])
        final = backend_kernels.coupling_equilibria(
            batch, steps=steps, tolerance=tolerance, **self._kernel_params()
        )
        return [_state_from_vector(row) for row in final]


def coupling_matrix(
    dynamics: CouplingDynamics,
    *,
    perturbation: float = 0.2,
    response_steps: int = 5,
) -> dict[str, dict[str, float]]:
    """Signed sensitivities reproducing the arrows of Figure 1.

    For every source variable, the equilibrium is perturbed upwards by
    ``perturbation`` (clamped), the dynamics run for ``response_steps`` and
    the change of every other variable is recorded.  A positive entry
    ``matrix[source][target]`` means "more *source* leads to more *target*"
    — e.g. ``matrix['satisfaction']['trust'] > 0`` is the first bullet.
    """
    require_unit_interval(perturbation, "perturbation")
    equilibrium = dynamics.equilibrium()

    deltas: dict[str, float] = {}
    perturbed_states: list[CouplingState] = []
    for source in STATE_VARIABLES:
        perturbed_value = clamp(getattr(equilibrium, source) + perturbation)
        deltas[source] = perturbed_value - getattr(equilibrium, source)
        perturbed_states.append(replace(equilibrium, **{source: perturbed_value}))

    # One batched kernel step advances all six perturbation responses at
    # once; element-wise it is the same arithmetic as :meth:`step`.
    batch = np.stack([_state_to_vector(state) for state in perturbed_states])
    for _ in range(response_steps):
        batch = backend_kernels.coupling_step(batch, **dynamics._kernel_params())
    responses_states = [_state_from_vector(row) for row in batch]

    matrix: dict[str, dict[str, float]] = {}
    for source, state in zip(STATE_VARIABLES, responses_states, strict=True):
        actual_delta = deltas[source]
        responses = {}
        for target in STATE_VARIABLES:
            if target == source:
                continue
            if abs(actual_delta) < 1e-12:
                responses[target] = 0.0
            else:
                responses[target] = (
                    getattr(state, target) - getattr(equilibrium, target)
                ) / actual_delta
        matrix[source] = responses
    return matrix
