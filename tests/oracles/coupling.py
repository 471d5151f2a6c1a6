"""Loop references for the coupling kernels, built on
:meth:`repro.core.coupling.CouplingDynamics.step`."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro._util import clamp
from repro.core.coupling import STATE_VARIABLES, CouplingDynamics, CouplingState


def run(
    dynamics: CouplingDynamics,
    initial: CouplingState | None = None,
    *,
    steps: int = 200,
    tolerance: float = 1e-6,
) -> list[CouplingState]:
    """Step until the state moves less than ``tolerance`` (or the budget
    runs out); the loop form of :meth:`CouplingDynamics.run`."""
    state = initial or CouplingState()
    trajectory = [state]
    for _ in range(steps):
        next_state = dynamics.step(state)
        trajectory.append(next_state)
        if next_state.distance(state) < tolerance:
            break
        state = next_state
    return trajectory


def equilibria(
    dynamics: CouplingDynamics,
    initials: Sequence[CouplingState],
    *,
    steps: int = 500,
    tolerance: float = 1e-6,
) -> list[CouplingState]:
    """One standalone trajectory per initial state; the loop form of
    :meth:`CouplingDynamics.equilibria`."""
    return [run(dynamics, state, steps=steps, tolerance=tolerance)[-1] for state in initials]


def coupling_matrix(
    dynamics: CouplingDynamics, *, perturbation: float = 0.2, response_steps: int = 5
) -> dict[str, dict[str, float]]:
    """Loop form of :func:`repro.core.coupling.coupling_matrix`."""
    equilibrium = run(dynamics, steps=500)[-1]
    matrix: dict[str, dict[str, float]] = {}
    for source in STATE_VARIABLES:
        perturbed_value = clamp(getattr(equilibrium, source) + perturbation)
        actual_delta = perturbed_value - getattr(equilibrium, source)
        state = replace(equilibrium, **{source: perturbed_value})
        for _ in range(response_steps):
            state = dynamics.step(state)
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
