"""Unit tests for the array-backed compute core (repro.core.backend)."""

import numpy
import pytest

from repro.core import backend as bk
from repro.core.coupling import STATE_VARIABLES, CouplingDynamics, CouplingState
from repro.errors import ConfigurationError
from tests.oracles import coupling as coupling_oracle


class TestPeerIndex:
    def test_round_trip(self):
        index = bk.PeerIndex(["b", "a", "c"])
        assert len(index) == 3
        assert index.position("a") == 1
        assert index.ids == ["b", "a", "c"]
        assert "c" in index and "z" not in index

    def test_from_ids_sorts(self):
        assert bk.PeerIndex.from_ids({"b", "a"}).ids == ["a", "b"]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            bk.PeerIndex(["a", "a"])

    def test_unknown_position_raises(self):
        with pytest.raises(ConfigurationError):
            bk.PeerIndex(["a"]).position("b")

    def test_vector_dict_round_trip(self):
        index = bk.PeerIndex(["a", "b"])
        vector = index.dict_to_vector({"a": 0.25, "b": 0.75})
        assert vector.tolist() == [0.25, 0.75]
        assert index.vector_to_dict(vector) == {"a": 0.25, "b": 0.75}

    def test_permutation_marks_unknown_ids(self):
        index = bk.PeerIndex(["a", "b"])
        assert index.permutation(["b", "ghost", "a"]).tolist() == [1, -1, 0]


def _as_dense(matrix):
    """Dense view of a local-trust matrix regardless of its storage."""
    return matrix.toarray() if hasattr(matrix, "toarray") else matrix


class TestLocalTrustMatrix:
    def test_rows_are_normalized_and_negatives_clipped(self):
        # rater 0: +2 about subject 1, net -1 about subject 2 (clipped to 0).
        matrix = bk.local_trust_matrix(
            3, [0, 0, 0], [1, 1, 2], [1.0, 1.0, -1.0]
        )
        dense = _as_dense(matrix)
        assert dense[0].tolist() == [0.0, 1.0, 0.0]
        assert dense[1].tolist() == [0.0, 0.0, 0.0]  # dangling row stays zero

    def test_small_populations_use_dense_storage(self):
        # Below the threshold the builder returns a plain array even with
        # scipy installed: CSR dispatch overhead dominates tiny matvecs.
        small = bk.local_trust_matrix(3, [0], [1], [1.0])
        assert isinstance(small, numpy.ndarray)

    @pytest.mark.skipif(not bk.HAS_SCIPY, reason="sparse storage needs scipy")
    def test_large_populations_use_sparse_storage(self):
        n = bk.DENSE_TRUST_THRESHOLD
        big = bk.local_trust_matrix(n, [0], [1], [1.0])
        assert hasattr(big, "toarray")

    def test_dense_and_sparse_builders_agree(self):
        raters = [0, 1, 1, 2, 0]
        subjects = [1, 0, 2, 0, 2]
        deltas = [1.0, 2.0, -1.0, 1.0, 3.0]
        dense = bk.dense_local_trust_matrix(3, raters, subjects, deltas)
        built = _as_dense(bk.local_trust_matrix(3, raters, subjects, deltas))
        assert numpy.allclose(dense, built)

    def test_empty_evidence_gives_all_dangling(self):
        matrix = bk.local_trust_matrix(2, [], [], [])
        trust, iterations = bk.power_iteration(
            matrix,
            numpy.array([0.5, 0.5]),
            restart_weight=0.15,
            max_iterations=50,
            tolerance=1e-10,
        )
        # Everything dangles, so the restart distribution is stationary.
        assert trust.tolist() == [0.5, 0.5]
        assert iterations == 1


class TestPowerIteration:
    def test_matches_hand_rolled_reference(self):
        rng = numpy.random.default_rng(3)
        n = 8
        matrix = rng.random((n, n))
        matrix[2] = 0.0  # one dangling peer
        sums = matrix.sum(axis=1, keepdims=True)
        matrix = numpy.where(sums > 0, matrix / numpy.where(sums > 0, sums, 1), 0.0)
        restart = numpy.full(n, 1.0 / n)

        trust, _ = bk.power_iteration(
            matrix, restart, restart_weight=0.2, max_iterations=500, tolerance=1e-14
        )
        # Reference: explicit scalar implementation of the same recurrence.
        reference = restart.copy()
        for _ in range(500):
            updated = numpy.zeros(n)
            for i in range(n):
                if matrix[i].sum() <= 0:
                    updated += reference[i] * restart
                else:
                    updated += reference[i] * matrix[i]
            blended = 0.8 * updated + 0.2 * restart
            if numpy.abs(blended - reference).sum() < 1e-14:
                reference = blended
                break
            reference = blended
        assert numpy.allclose(trust, reference, atol=1e-12)
        assert trust.sum() == pytest.approx(1.0)


class TestScoreKernels:
    def test_mean_scores(self):
        values = bk.mean_scores([0, 0, 1], [1.0, 0.0, 1.0], 2)
        assert values.tolist() == [0.5, 1.0]

    def test_beta_scores_match_scalar_formula(self):
        # subject 0: positives at t=0 and t=2, negative at t=2.
        values = bk.beta_scores(
            [0, 0, 0],
            [0.0, 2.0, 2.0],
            [True, True, False],
            forgetting=0.5,
            n_subjects=1,
        )
        alpha = 1.0 + 0.5 ** 2 + 1.0
        beta = 1.0 + 1.0
        assert values[0] == pytest.approx(alpha / (alpha + beta))

    def test_minmax_rescale_flat_is_half(self):
        assert bk.minmax_rescale(numpy.array([0.3, 0.3])).tolist() == [0.5, 0.5]

    def test_minmax_rescale_spans_unit_interval(self):
        scaled = bk.minmax_rescale(numpy.array([1.0, 3.0, 2.0]))
        assert scaled.tolist() == [0.0, 1.0, 0.5]


class TestCouplingKernels:
    def test_single_step_is_bitwise_identical_to_python(self):
        dynamics = CouplingDynamics()
        state = CouplingState(trust=0.3, satisfaction=0.7, disclosure=0.9)
        stepped = dynamics.step(state)
        vector = numpy.array([getattr(state, name) for name in STATE_VARIABLES])
        kernel = bk.coupling_step(vector, **dynamics._kernel_params())
        assert kernel.tolist() == [getattr(stepped, name) for name in STATE_VARIABLES]

    def test_run_trajectories_match_oracle(self):
        dynamics = CouplingDynamics()
        kernel_path = dynamics.run()
        oracle_path = coupling_oracle.run(dynamics)
        assert len(kernel_path) == len(oracle_path) > 1
        assert [s.as_dict() for s in kernel_path] == [s.as_dict() for s in oracle_path]

    def test_equilibria_match_per_state_runs(self):
        dynamics = CouplingDynamics()
        initials = [CouplingState(trust=0.1), CouplingState(disclosure=0.9)]
        batched = dynamics.equilibria(initials)
        singles = [dynamics.equilibrium(state) for state in initials]
        assert [s.as_dict() for s in batched] == [s.as_dict() for s in singles]

    def test_equilibria_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            bk.coupling_equilibria(
                numpy.zeros((2, 3)),
                steps=5,
                tolerance=1e-6,
                sharing_level=0.8,
                mechanism_power=0.9,
                policy_respect=1.0,
                trustworthy_fraction=0.8,
                damping=0.3,
                privacy_weight=1.0,
                reputation_weight=1.0,
                satisfaction_weight=1.0,
            )


class TestSimulationKernels:
    def test_interaction_counts_match_scalar_rule(self):
        activities = [0.0, 0.4, 1.0, 2.5]
        draws = [0.9, 0.39, 0.01, 0.6]
        counts = bk.interaction_counts(activities, 1.0, draws)
        expected = []
        for activity, draw in zip(activities, draws, strict=True):
            base = int(activity)
            expected.append(base + (1 if draw < activity - base else 0))
        assert counts.tolist() == expected

    def test_lexicographic_argmax_breaks_ties_by_second_key(self):
        assert bk.lexicographic_argmax([0.5, 0.9, 0.9], [0.99, 0.2, 0.3]) == 2
        assert bk.lexicographic_argmax([0.5, 0.9, 0.9], [0.99, 0.4, 0.3]) == 1
