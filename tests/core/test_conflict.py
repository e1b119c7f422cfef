"""Tests for the GCD / TCI conflict diagnostics (Definitions 2–3)."""

import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    conflict_fraction,
    cosine_similarity,
    gradient_conflict_degree,
    is_conflicting,
    pairwise_gcd,
    task_conflict_intensity,
    tci_profile,
)

finite_vectors = arrays(
    np.float64,
    st.integers(2, 8),
    elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_opposite_vectors(self):
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_zero_vector_returns_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_scale_invariance(self, rng):
        a, b = rng.normal(size=4), rng.normal(size=4)
        assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(5 * a, 0.1 * b))

    @given(finite_vectors)
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, v):
        assert -1.0 - 1e-9 <= cosine_similarity(v, v[::-1].copy()) <= 1.0 + 1e-9


class TestGCD:
    def test_definition(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert gradient_conflict_degree(a, b) == pytest.approx(1.0 - cosine_similarity(a, b))

    def test_range(self):
        assert gradient_conflict_degree([1.0, 0], [1.0, 0]) == pytest.approx(0.0)
        assert gradient_conflict_degree([1.0, 0], [-1.0, 0]) == pytest.approx(2.0)

    def test_symmetry(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert gradient_conflict_degree(a, b) == pytest.approx(gradient_conflict_degree(b, a))

    def test_conflict_threshold(self):
        assert is_conflicting([1.0, 0.0], [-0.1, 1.0])
        assert not is_conflicting([1.0, 0.0], [0.1, 1.0])

    def test_conflict_iff_negative_dot(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=8), rng.normal(size=8)
            assert is_conflicting(a, b) == (np.dot(a, b) < 0)


class TestPairwiseGCD:
    def test_diagonal_zero(self, rng):
        grads = rng.normal(size=(4, 10))
        np.testing.assert_allclose(np.diag(pairwise_gcd(grads)), np.zeros(4))

    def test_matches_pairwise_calls(self, rng):
        grads = rng.normal(size=(3, 6))
        matrix = pairwise_gcd(grads)
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected = gradient_conflict_degree(grads[i], grads[j])
                    assert matrix[i, j] == pytest.approx(expected)

    def test_symmetric(self, rng):
        matrix = pairwise_gcd(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(matrix, matrix.T)

    def test_zero_row_handled(self):
        grads = np.array([[1.0, 0.0], [0.0, 0.0]])
        matrix = pairwise_gcd(grads)
        assert matrix[0, 1] == pytest.approx(1.0)  # cos treated as 0

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 5), st.integers(2, 6)),
            elements=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_entries_in_range(self, grads):
        matrix = pairwise_gcd(grads)
        assert np.all(matrix >= -1e-9)
        assert np.all(matrix <= 2.0 + 1e-9)


class TestConflictFraction:
    def test_all_aligned(self):
        grads = np.tile(np.array([1.0, 1.0]), (3, 1))
        assert conflict_fraction(grads) == 0.0

    def test_all_conflicting(self):
        grads = np.array([[1.0, 0.0], [-1.0, 0.1], [-1.0, -0.1]])
        # pairs: (0,1) conflict, (0,2) conflict, (1,2) aligned
        assert conflict_fraction(grads) == pytest.approx(2 / 3)

    def test_single_task(self):
        assert conflict_fraction(np.ones((1, 4))) == 0.0


class TestTCI:
    def test_positive_when_joint_worse(self):
        assert task_conflict_intensity(joint_risk=1.2, single_risk=1.0) == pytest.approx(0.2)

    def test_negative_when_joint_better(self):
        assert task_conflict_intensity(0.8, 1.0) == pytest.approx(-0.2)

    def test_profile_vectorized(self):
        profile = tci_profile([1.0, 2.0], [0.5, 2.5])
        np.testing.assert_allclose(profile, [0.5, -0.5])

    def test_profile_length_mismatch(self):
        with pytest.raises(ValueError):
            tci_profile([1.0], [1.0, 2.0])


@contextmanager
def warnings_none():
    """Context asserting no DeprecationWarning is emitted inside it."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        yield
    deprecations = [r for r in records if issubclass(r.category, DeprecationWarning)]
    assert not deprecations, f"unexpected DeprecationWarning: {deprecations}"


class TestHotPathDeprecation:
    """No DeprecationWarning is left on the per-pair helpers or balancers."""

    def test_diagnostic_use_outside_balance_never_warns(self):
        with warnings_none():
            cosine_similarity(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
            gradient_conflict_degree(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            is_conflicting(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))

    def test_registry_balancers_never_warn(self):
        """Neither the pairwise kernels nor their loop references (which
        call the per-pair helpers) warn."""
        import repro.balancers  # noqa: F401
        from repro.core import create_balancer

        from ..reference.balancers import LOOP_KERNELS

        grads = np.array([[1.0, 0.0], [-1.0, 0.2]])
        for name, reference in LOOP_KERNELS.items():
            for balancer in (create_balancer(name, seed=0), reference(seed=0)):
                with warnings_none():
                    balancer.balance(grads, np.ones(2))
