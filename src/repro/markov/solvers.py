"""Linear-algebra solvers for stationary distributions.

One policy computes every steady state the program needs: ``method="auto"``
here, and the engine's :class:`~repro.engine.krylov.ReusableSolver`
(in-RAM sweeps) and :class:`~repro.engine.krylov.MatrixFreeSolver`
(out-of-core chunked graphs).  It is :func:`factorize`, :func:`iterate` and
:func:`certify` with the constants below, and no step of it depends on the
number of states:

* **Factor.**  The constrained balance system ``A x = b`` (``A = Qᵀ`` with
  its last row replaced by ones, see :func:`constrained_balance_system`) is
  factored by an incomplete LU: ``spilu(drop_tol=1e-5, fill_factor=10,
  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0)``.  ``A`` is diagonally
  dominant by columns — the property GTH relies on — so diagonal pivots are
  stable; partial pivoting would instead pull the dense normalisation row
  forward and fill the factor in almost densely on lumped, stiff chains.
* **Iterate.**  GMRES preconditioned by that factor with ``rtol=1e-13``.
  Engine sweeps keep the factor as the preconditioner of the next,
  warm-started sweep point.
* **Escalate.**  Stale ILU → rebuilt ILU → complete LU (``splu`` with the
  same ordering and diagonal pivoting).
* **Certify.**  Every returned vector passes one true-residual check,
  :func:`certify` — one product with ``A``:
  ``max(‖πQ‖∞ / ‖Q‖∞, |Σπ − 1|) ≤ RESIDUAL_BOUND``.  A vector that fails it
  is never returned.

Explicit methods bypass the ladder:

* ``direct``  — the complete-LU rung alone, certified the same way;
* ``gth``     — Grassmann–Taksar–Heyman elimination on a dense copy; it
  avoids subtractive cancellation and is the most stable choice for small
  stiff chains (disaster rates ~1/876000 h⁻¹ against repairs of minutes),
  but it is O(n³);
* ``power`` / ``gauss_seidel`` — classic iterations, kept as references.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.exceptions import AnalysisError

_DEFAULT_TOLERANCE = 1e-12
_DEFAULT_MAX_ITERATIONS = 200_000

#: Bound of the one true-residual check every policy result passes.
RESIDUAL_BOUND = 1e-12
#: Fill-reducing column ordering of every factorisation: minimum degree on
#: the nearly structurally symmetric ``A + Aᵀ``.
ORDERING = "MMD_AT_PLUS_A"
ILU_DROP_TOLERANCE = 1e-5
ILU_FILL_FACTOR = 10.0
GMRES_TOLERANCE = 1e-13
GMRES_RESTART = 60
GMRES_MAX_ITERATIONS = 2000


def _as_csr(generator) -> sparse.csr_matrix:
    matrix = sparse.csr_matrix(generator, dtype=float)
    if matrix.shape[0] != matrix.shape[1]:
        raise AnalysisError(f"generator matrix must be square, got shape {matrix.shape}")
    return matrix


def validate_generator(generator, tolerance: float = 1e-8) -> None:
    """Check that ``generator`` is a proper CTMC generator matrix.

    Off-diagonal entries must be non-negative and every row must sum to
    (numerically) zero.

    Raises:
        AnalysisError: if either property is violated.
    """
    matrix = _as_csr(generator)
    coo = matrix.tocoo()
    off_diagonal_negative = np.any((coo.row != coo.col) & (coo.data < -tolerance))
    if off_diagonal_negative:
        raise AnalysisError("generator matrix has negative off-diagonal entries")
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    scale = np.maximum(np.abs(matrix.diagonal()), 1.0)
    if np.any(np.abs(row_sums) > tolerance * scale):
        worst = int(np.argmax(np.abs(row_sums) / scale))
        raise AnalysisError(
            f"generator matrix rows must sum to zero; row {worst} sums to {row_sums[worst]!r}"
        )


def steady_state(
    generator,
    method: str = "auto",
    tolerance: float = _DEFAULT_TOLERANCE,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
) -> np.ndarray:
    """Stationary distribution ``π`` with ``π Q = 0`` and ``Σ π = 1``.

    Args:
        generator: CTMC generator matrix (dense or sparse), shape ``(n, n)``.
        method: ``"auto"`` (the policy's ladder), ``"direct"``,
            ``"gth"``, ``"power"`` or ``"gauss_seidel"``.
        tolerance: convergence tolerance for ``power`` and ``gauss_seidel``.
        max_iterations: iteration cap for ``power`` and ``gauss_seidel``.

    Returns:
        The stationary probability vector of length ``n``.

    Raises:
        AnalysisError: if the method is unknown, the matrix is not a valid
            generator, or the solve cannot produce a certified vector.
    """
    matrix = _as_csr(generator)
    n = matrix.shape[0]
    if n == 0:
        raise AnalysisError("cannot compute the stationary distribution of an empty chain")
    if n == 1:
        return np.array([1.0])

    if method in ("auto", "direct"):
        system, rhs = constrained_balance_system(matrix)
        if method == "auto":
            try:
                probabilities, _ = iterate(system, rhs, factorize(system))
            except AnalysisError:
                probabilities = None  # the ILU could not be built: escalate
            if probabilities is not None:
                return probabilities
        factor = factorize(system, complete=True)
        probabilities, residual = certify(factor.solve(rhs), system.dot, balance_norm(system))
        if probabilities is None:
            raise AnalysisError(
                f"complete-LU steady-state solve failed the residual check "
                f"(residual {residual:.3e} > {RESIDUAL_BOUND:.0e})"
            )
        return probabilities
    if method == "gth":
        return _steady_state_gth(matrix.toarray())
    if method == "power":
        return _steady_state_power(matrix, tolerance, max_iterations)
    if method == "gauss_seidel":
        return _steady_state_gauss_seidel(matrix, tolerance, max_iterations)
    raise AnalysisError(f"unknown steady-state method {method!r}")


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Clip tiny negative round-off and rescale ``vector`` to sum to one.

    Raises:
        AnalysisError: if the vector has no positive mass or is non-finite.
    """
    vector = np.where(np.abs(vector) < 1e-300, 0.0, vector)
    vector = np.clip(vector, 0.0, None)
    total = vector.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise AnalysisError("steady-state solver produced a non-normalisable vector")
    return vector / total


def constrained_balance_system(
    matrix: sparse.spmatrix,
) -> tuple[sparse.csc_matrix, np.ndarray]:
    """Build the linear system ``A x = b`` whose solution is the stationary vector.

    ``A`` is ``Q^T`` with the last balance equation replaced by the
    normalisation constraint ``Σ x = 1``.  Shared by the direct and the
    preconditioned-Krylov solvers (and by callers that want to reuse a
    preconditioner across several related systems).
    """
    matrix = _as_csr(matrix)
    n = matrix.shape[0]
    transposed = matrix.transpose().tolil()
    transposed[n - 1, :] = np.ones(n)
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    return transposed.tocsc(), rhs


def balance_norm(system: sparse.spmatrix) -> float:
    """``‖Q‖∞ = 2 · max exit rate``, read off the constrained system ``A``.

    ``A``'s diagonal holds the negated exit rates of every state but the
    last, whose diagonal entry the normalisation row replaced; that state's
    exit rate is the sum of its outgoing rates in column ``n − 1``.
    """
    n = system.shape[0]
    exit_rates = -system.diagonal()
    exit_rates[n - 1] = system[: n - 1, [n - 1]].sum()
    return 2.0 * float(exit_rates.max())


def certify(
    solution: np.ndarray,
    apply: Callable[[np.ndarray], np.ndarray],
    norm: float,
) -> tuple[Optional[np.ndarray], float]:
    """The one true-residual check every policy result passes.

    ``solution`` is a raw solve of the constrained system ``A x = b``,
    ``apply`` computes ``A x`` and ``norm`` is ``‖Q‖∞``.  The vector is
    normalised to ``π`` (``‖π‖₁ = 1``) and checked with one product
    ``A π``: its first ``n − 1`` entries are ``(πQ)₀ … (πQ)ₙ₋₂``, the
    missing ``(πQ)ₙ₋₁`` is minus their sum (``Q`` has zero row sums), and
    its last entry is ``Σπ``.  The residual is
    ``max(‖πQ‖∞ / ‖Q‖∞, |Σπ − 1|)``.

    Returns:
        ``(π, residual)``, with ``π`` replaced by ``None`` when the residual
        exceeds :data:`RESIDUAL_BOUND` or the solution is not a finite,
        normalisable vector.
    """
    vector = np.asarray(solution, dtype=np.float64).ravel()
    try:
        probabilities = normalize_distribution(vector)
    except AnalysisError:
        probabilities = None  # report the raw vector's residual
    product = apply(vector if probabilities is None else probabilities)
    flows = product[:-1]
    balance = max(float(np.abs(flows).max(initial=0.0)), abs(float(flows.sum())))
    residual = max(balance / norm if norm > 0 else balance, abs(product[-1] - 1.0))
    if probabilities is None or not residual <= RESIDUAL_BOUND:
        return None, residual
    return probabilities, residual


def factorize(system: sparse.spmatrix, *, complete: bool = False):
    """Incomplete (default) or complete LU of a constrained system."""
    try:
        if complete:
            return sparse_linalg.splu(system, permc_spec=ORDERING, diag_pivot_thresh=0.0)
        return sparse_linalg.spilu(
            system,
            drop_tol=ILU_DROP_TOLERANCE,
            fill_factor=ILU_FILL_FACTOR,
            permc_spec=ORDERING,
            diag_pivot_thresh=0.0,
        )
    except Exception as error:
        kind = "complete" if complete else "incomplete"
        raise AnalysisError(f"{kind} LU of the balance system failed: {error}") from error


def iterate(
    system: sparse.spmatrix,
    rhs: np.ndarray,
    factor,
    x0: Optional[np.ndarray] = None,
) -> tuple[Optional[np.ndarray], float]:
    """GMRES on ``A x = rhs`` preconditioned by ``factor``, certified.

    Returns :func:`certify`'s ``(π or None, residual)``.
    """
    solution, _ = sparse_linalg.gmres(
        system,
        rhs,
        M=sparse_linalg.LinearOperator(system.shape, factor.solve),
        x0=x0,
        rtol=GMRES_TOLERANCE,
        atol=0.0,
        restart=GMRES_RESTART,
        maxiter=GMRES_MAX_ITERATIONS,
    )
    return certify(solution, system.dot, balance_norm(system))


def steady_state_matrix_free(
    operator,
    rhs: np.ndarray,
    *,
    preconditioner=None,
    x0: np.ndarray | None = None,
    rtol: float = 1e-13,
    restart: int = 100,
    max_restart_cycles: int = 30,
    bicgstab_iterations: int = 2000,
    residual_target: float = 1e-12,
    refinement_rounds: int = 5,
) -> tuple[np.ndarray, float]:
    """Solve ``A x = rhs`` given only ``A``'s action (no assembled matrix).

    The numeric core of the out-of-core solve path: ``operator`` is a
    :class:`scipy.sparse.linalg.LinearOperator` whose matvec streams the
    constrained balance system chunk by chunk, so the full generator is
    never materialised.  Escalation ladder:

    1. restarted GMRES (optionally preconditioned, warm-started);
    2. BiCGStab from the best iterate if GMRES stalls;
    3. iterative refinement — solve the residual equation ``A δ = r`` and
       correct — until ``‖rhs − A x‖₂ ≤ residual_target`` or the residual
       stops improving.

    Returns the best iterate found and its true (recomputed) residual
    2-norm; the *caller* decides whether that residual is good enough —
    this function only raises on non-finite breakdowns.
    """
    rhs = np.asarray(rhs, dtype=np.float64)

    def true_residual(x: np.ndarray) -> float:
        return float(np.linalg.norm(operator.matvec(x) - rhs))

    best: np.ndarray | None = None
    best_norm = np.inf

    def consider(candidate) -> None:
        nonlocal best, best_norm
        if candidate is None:
            return
        candidate = np.asarray(candidate, dtype=np.float64).ravel()
        if not np.all(np.isfinite(candidate)):
            return
        norm = true_residual(candidate)
        if norm < best_norm:
            best, best_norm = candidate, norm

    if x0 is not None:
        consider(x0)
    solution, _ = sparse_linalg.gmres(
        operator,
        rhs,
        M=preconditioner,
        x0=x0,
        rtol=rtol,
        atol=0.0,
        restart=restart,
        maxiter=max_restart_cycles,
    )
    consider(solution)
    if best_norm > residual_target:
        solution, _ = sparse_linalg.bicgstab(
            operator,
            rhs,
            M=preconditioner,
            x0=best,
            rtol=rtol,
            atol=0.0,
            maxiter=bicgstab_iterations,
        )
        consider(solution)
    for _ in range(refinement_rounds):
        if best is None or best_norm <= residual_target:
            break
        residual = rhs - operator.matvec(best)
        correction, _ = sparse_linalg.gmres(
            operator,
            residual,
            M=preconditioner,
            rtol=1e-8,
            atol=0.0,
            restart=restart,
            maxiter=max(1, max_restart_cycles // 3),
        )
        previous = best_norm
        consider(best + np.asarray(correction).ravel())
        if best_norm >= previous * 0.5:
            break  # refinement has stopped paying for its matvecs
    if best is None:
        raise AnalysisError(
            "matrix-free Krylov solve produced no finite iterate"
        )
    return best, best_norm


def _steady_state_gth(q: np.ndarray) -> np.ndarray:
    """Grassmann–Taksar–Heyman elimination on a dense generator copy."""
    n = q.shape[0]
    matrix = q.astype(float).copy()
    # Forward elimination.
    for k in range(n - 1, 0, -1):
        scale = matrix[k, :k].sum()
        if scale <= 0.0:
            # State k is unreachable from below at this elimination stage;
            # treat its contribution as zero mass.
            matrix[k, :k] = 0.0
            continue
        matrix[:k, k] /= scale
        # Rank-1 update: fold state k's outgoing mass back into the leading
        # k×k block in one outer product instead of a per-column Python loop.
        matrix[:k, :k] += np.outer(matrix[:k, k], matrix[k, :k])
    # Back substitution.
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = float(np.dot(pi[:k], matrix[:k, k]))
    return normalize_distribution(pi)


def _uniformised_transition_matrix(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    rates = -matrix.diagonal()
    uniformisation_rate = float(rates.max()) * 1.05
    if uniformisation_rate <= 0.0:
        raise AnalysisError("generator matrix has no transitions (all rates zero)")
    n = matrix.shape[0]
    probability_matrix = sparse.eye(n, format="csr") + matrix / uniformisation_rate
    return probability_matrix.tocsr()


def _steady_state_power(
    matrix: sparse.csr_matrix, tolerance: float, max_iterations: int
) -> np.ndarray:
    probability_matrix = _uniformised_transition_matrix(matrix)
    n = matrix.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        updated = pi @ probability_matrix
        updated = np.asarray(updated).ravel()
        total = updated.sum()
        if total <= 0.0:
            raise AnalysisError("power iteration lost all probability mass")
        updated /= total
        if np.max(np.abs(updated - pi)) < tolerance:
            return normalize_distribution(updated)
        pi = updated
    raise AnalysisError(
        f"power iteration did not converge within {max_iterations} iterations"
    )


def _steady_state_gauss_seidel(
    matrix: sparse.csr_matrix, tolerance: float, max_iterations: int
) -> np.ndarray:
    # Solve pi Q = 0 by Gauss-Seidel sweeps on Q^T x = 0 with diag scaling.
    transposed = matrix.transpose().tocsr()
    n = matrix.shape[0]
    diagonal = transposed.diagonal()
    if np.any(diagonal >= 0.0):
        # Absorbing or isolated states make plain Gauss-Seidel ill-defined.
        return _steady_state_power(matrix, tolerance, max_iterations)
    x = np.full(n, 1.0 / n)
    indptr, indices, data = transposed.indptr, transposed.indices, transposed.data
    for iteration in range(max_iterations):
        max_change = 0.0
        for i in range(n):
            row_start, row_end = indptr[i], indptr[i + 1]
            acc = 0.0
            diag = diagonal[i]
            for pointer in range(row_start, row_end):
                j = indices[pointer]
                if j != i:
                    acc += data[pointer] * x[j]
            new_value = -acc / diag
            change = abs(new_value - x[i])
            if change > max_change:
                max_change = change
            x[i] = new_value
        total = x.sum()
        if total <= 0.0:
            raise AnalysisError("Gauss-Seidel iteration lost all probability mass")
        x /= total
        if max_change < tolerance:
            return normalize_distribution(x)
    raise AnalysisError(
        f"Gauss-Seidel iteration did not converge within {max_iterations} iterations"
    )
