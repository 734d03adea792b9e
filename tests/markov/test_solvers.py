"""Tests for the stationary-distribution solvers."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from repro.exceptions import AnalysisError
from repro.markov import solvers, steady_state, validate_generator


def two_state_generator(failure_rate=0.01, repair_rate=1.0):
    return np.array(
        [[-failure_rate, failure_rate], [repair_rate, -repair_rate]], dtype=float
    )


def random_generator(n, seed):
    rng = np.random.default_rng(seed)
    rates = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(rates, 0.0)
    q = rates.copy()
    np.fill_diagonal(q, -rates.sum(axis=1))
    return q


ALL_METHODS = ["direct", "gth", "power", "gauss_seidel"]


class TestValidateGenerator:
    def test_valid_generator_passes(self):
        validate_generator(two_state_generator())

    def test_negative_off_diagonal_rejected(self):
        q = np.array([[-1.0, 1.0], [-0.5, 0.5]])
        q[1, 0] = -0.5
        with pytest.raises(AnalysisError):
            validate_generator(q)

    def test_nonzero_row_sum_rejected(self):
        q = np.array([[-1.0, 2.0], [1.0, -1.0]])
        with pytest.raises(AnalysisError):
            validate_generator(q)

    def test_non_square_rejected(self):
        with pytest.raises(AnalysisError):
            validate_generator(np.zeros((2, 3)))


class TestSteadyState:
    @pytest.mark.parametrize("method", ALL_METHODS + ["auto"])
    def test_two_state_chain(self, method):
        pi = steady_state(two_state_generator(0.01, 1.0), method=method)
        assert pi[0] == pytest.approx(1.0 / 1.01, rel=1e-8)
        assert pi.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_methods_agree_on_random_chain(self, method):
        q = random_generator(12, seed=7)
        reference = steady_state(q, method="gth")
        candidate = steady_state(q, method=method, tolerance=1e-13)
        assert np.allclose(candidate, reference, atol=1e-7)

    def test_sparse_input_accepted(self):
        q = sparse.csr_matrix(two_state_generator())
        pi = steady_state(q)
        assert pi.shape == (2,)

    def test_single_state_chain(self):
        assert steady_state(np.zeros((1, 1)))[0] == 1.0

    def test_empty_chain_rejected(self):
        with pytest.raises(AnalysisError):
            steady_state(np.zeros((0, 0)))

    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            steady_state(two_state_generator(), method="mystery")

    def test_stiff_chain_gth_accuracy(self):
        # Rates spanning 9 orders of magnitude (disaster vs. VM restart).
        q = np.array(
            [
                [-1.1415525e-6, 1.1415525e-6, 0.0],
                [0.0, -12.0, 12.0],
                [1.0e-1, 0.0, -1.0e-1],
            ]
        )
        pi_gth = steady_state(q, method="gth")
        pi_direct = steady_state(q, method="direct")
        assert np.allclose(pi_gth, pi_direct, rtol=1e-6)
        assert pi_gth.sum() == pytest.approx(1.0)

    def test_power_iteration_convergence_failure_reported(self):
        q = random_generator(6, seed=3)
        with pytest.raises(AnalysisError):
            steady_state(q, method="power", max_iterations=1)

    def test_larger_random_chain_direct_vs_gauss_seidel(self):
        q = random_generator(60, seed=11)
        direct = steady_state(q, method="direct")
        iterative = steady_state(q, method="gauss_seidel", tolerance=1e-13)
        assert np.allclose(direct, iterative, atol=1e-8)


@st.composite
def stiff_generators(draw):
    """Irreducible generators whose rates span six decades (1e-4 … 1e2).

    Six decades cover the case study's repair/restart spread at one level
    of the hierarchy.  Over nine decades, nearly decomposable chains lose
    ~1e-10 to subtractive cancellation in the diagonal, which complete LU
    uses and GTH avoids — that is why ``method="gth"`` stays available.
    """
    n = draw(st.integers(2, 12))
    exponents = draw(st.lists(st.floats(-4.0, 2.0), min_size=n * n, max_size=n * n))
    present = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    rates = (10.0 ** np.array(exponents)).reshape(n, n) * np.array(present).reshape(n, n)
    ring = np.arange(n)
    rates[ring, (ring + 1) % n] = 10.0 ** np.array(exponents[:n])  # irreducible
    np.fill_diagonal(rates, 0.0)
    return rates - np.diag(rates.sum(axis=1))


def stall_gmres(monkeypatch):
    def stalled(system, rhs, **kwargs):
        return np.zeros(system.shape[0]), 1  # maxiter exhausted

    monkeypatch.setattr(solvers.sparse_linalg, "gmres", stalled)


class TestSolvePolicy:
    @settings(max_examples=100, deadline=None)
    @given(stiff_generators())
    def test_complete_lu_matches_gth_on_stiff_generators(self, q):
        pi_lu = steady_state(q, method="direct")
        pi_gth = steady_state(q, method="gth")
        assert np.abs(pi_lu - pi_gth).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(stiff_generators())
    def test_auto_matches_gth_on_stiff_generators(self, q):
        pi_auto = steady_state(q, method="auto")
        assert np.abs(pi_auto - steady_state(q, method="gth")).max() <= 1e-12

    def test_auto_escalates_to_complete_lu_when_gmres_stalls(self, monkeypatch):
        q = random_generator(40, seed=5)
        expected = steady_state(q, method="direct")
        stall_gmres(monkeypatch)
        np.testing.assert_allclose(steady_state(q, method="auto"), expected, atol=1e-15)

    def test_certify_accepts_the_stationary_vector(self):
        q = sparse.csr_matrix(random_generator(30, seed=2))
        system, _ = solvers.constrained_balance_system(q)
        pi = steady_state(q, method="gth")
        certified, residual = solvers.certify(pi, system.dot, solvers.balance_norm(system))
        np.testing.assert_allclose(certified, pi, atol=1e-15)
        assert residual <= solvers.RESIDUAL_BOUND

    @pytest.mark.parametrize(
        "candidate", [np.ones(30), np.zeros(30), np.full(30, np.nan)]
    )
    def test_certify_rejects_non_stationary_vectors(self, candidate):
        q = sparse.csr_matrix(random_generator(30, seed=2))
        system, _ = solvers.constrained_balance_system(q)
        certified, residual = solvers.certify(
            candidate, system.dot, solvers.balance_norm(system)
        )
        assert certified is None
        assert not residual <= solvers.RESIDUAL_BOUND

    def test_balance_norm_counts_the_last_state(self):
        q = two_state_generator(failure_rate=0.01, repair_rate=3.0)
        system, _ = solvers.constrained_balance_system(sparse.csr_matrix(q))
        assert solvers.balance_norm(system) == pytest.approx(6.0)
