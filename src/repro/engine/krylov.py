"""Factorisation-reusing, warm-started Krylov solvers for sweep batches.

The numeric heart of the batch engine, extracted so the thread path of
:class:`~repro.engine.batch.ScenarioBatchEngine` and the process workers of
:mod:`repro.engine.parallel` run *exactly* the same floating-point
operations: filling one symbolically pre-assembled constrained balance
system (:class:`~repro.engine.system.ConstrainedSystemTemplate`), reusing
its ILU factor as a preconditioner across neighbouring sweep points and
warm-starting each GMRES solve from the previous stationary vector.  Both
solvers here walk the one stationary-solve ladder of
:mod:`repro.markov.solvers`.

Given identical scenario chains (same contiguous chunk of sweep points, in
the same order), two :class:`ReusableSolver` instances produce bitwise
identical solutions regardless of which thread or process hosts them —
which is what makes the cross-backend determinism guarantees of the sweep
scheduler testable.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.engine.system import ConstrainedSystemTemplate
from repro.exceptions import AnalysisError
from repro.markov import solvers
from repro.statespace.chunked import ChunkedGraph


class KrylovConvergenceError(AnalysisError):
    """Preconditioned GMRES failed to converge on one scenario's system.

    Carries enough numeric context to diagnose the failure — which sweep
    scenario hit it and how far from the solution the final iterate was —
    instead of leaving a silently degraded vector behind.
    """

    def __init__(
        self,
        message: str,
        *,
        scenario_index: Optional[int] = None,
        residual_norm: float = float("nan"),
        iterations: int = 0,
    ) -> None:
        super().__init__(message)
        self.scenario_index = scenario_index
        self.residual_norm = residual_norm
        self.iterations = iterations


def _scenario(index: Optional[int]) -> str:
    return f"scenario {index}" if index is not None else "a scenario"


class ReusableSolver:
    """Per-worker numeric state: filled system, preconditioner, warm start.

    One instance serves one contiguous chain of sweep points and walks the
    :mod:`~repro.markov.solvers` ladder for each: the first
    :meth:`solve` materialises the CSC system from the shared template and
    builds its ILU; subsequent calls only re-fill the numeric values and
    re-use the previous (stale) ILU as the GMRES preconditioner — the sweep
    points differ in a handful of rates — with the previous stationary
    vector as the initial guess.  A stall rebuilds the ILU for the current
    values, and a second stall ends in a complete LU (:meth:`solve`).
    """

    def __init__(self, template: ConstrainedSystemTemplate):
        self.template = template
        self.system = None
        self.preconditioner = None
        self.warm_start: Optional[np.ndarray] = None
        #: Whether the most recent solve had to fall back to complete LU.
        self.last_solve_used_fallback = False
        #: The :class:`KrylovConvergenceError` behind the most recent
        #: fallback (``None`` when the last solve converged).
        self.last_convergence_error: Optional[KrylovConvergenceError] = None

    def solve_krylov(
        self,
        edge_rates: np.ndarray,
        scenario_index: Optional[int] = None,
    ) -> np.ndarray:
        """Stationary vector via the ILU rungs of the ladder, or raise.

        Runs preconditioned GMRES with the stale ILU, then — unless that
        ILU was built for these very values — with a rebuilt one.  A
        vector is returned only when it passes
        :func:`~repro.markov.solvers.certify`; otherwise this raises
        :class:`KrylovConvergenceError` carrying the scenario index and the
        true residual of the last iterate — callers decide whether to fall
        back (:meth:`solve` does).
        """
        template = self.template
        if self.system is None:
            self.system = template.fresh_system(edge_rates)
        else:
            template.refill(self.system, edge_rates)

        x0 = None
        if self.warm_start is not None and self.warm_start.shape == template.rhs.shape:
            x0 = self.warm_start
        residual = float("nan")
        fresh = False
        for rung in ("stale", "rebuilt"):
            if self.preconditioner is None or rung == "rebuilt":
                if fresh:
                    break  # the factor already matches these values
                try:
                    self.preconditioner = solvers.factorize(self.system)
                except AnalysisError:
                    self.preconditioner = None
                    break
                fresh = True
            probabilities, residual = solvers.iterate(
                self.system, template.rhs, self.preconditioner, x0
            )
            if probabilities is not None:
                self.warm_start = probabilities
                return probabilities
        raise KrylovConvergenceError(
            f"ILU-preconditioned GMRES did not converge on "
            f"{_scenario(scenario_index)} within {solvers.GMRES_MAX_ITERATIONS} "
            f"iteration(s) with a fresh ILU (true residual {residual:.3e})",
            scenario_index=scenario_index,
            residual_norm=residual,
            iterations=solvers.GMRES_MAX_ITERATIONS,
        )

    def solve(
        self,
        edge_rates: np.ndarray,
        fallback_generator: Callable[[], object],
        scenario_index: Optional[int] = None,
    ) -> np.ndarray:
        """Stationary vector of the template's system under ``edge_rates``.

        Runs :meth:`solve_krylov`; on :class:`KrylovConvergenceError` the
        last rung takes over: the reuse state is discarded and a certified
        complete LU (``steady_state(method="direct")``) runs on
        ``fallback_generator()``, a freshly assembled CTMC generator.  The
        convergence failure is surfaced as a warning — naming the scenario
        and the residual — and kept in :attr:`last_convergence_error`; a
        row solved this way is additionally flagged via
        :attr:`last_solve_used_fallback` (``STATUS_FALLBACK`` in the sweep
        scheduler's status block).
        """
        self.last_solve_used_fallback = False
        self.last_convergence_error = None
        try:
            return self.solve_krylov(edge_rates, scenario_index=scenario_index)
        except KrylovConvergenceError as error:
            self.last_convergence_error = error
            warnings.warn(
                f"{error}; falling back to the direct solver (complete LU)",
                stacklevel=2,
            )
            self.preconditioner = None
            self.warm_start = None
            self.last_solve_used_fallback = True
            return solvers.steady_state(fallback_generator(), method="direct")


#: Default superblock width of the matrix-free block-Jacobi preconditioner;
#: it bounds the factorisation memory independently of the state count.
DEFAULT_SUPERBLOCK_ROWS = 16_384


class MatrixFreeSolver:
    """Out-of-core steady-state solver over a :class:`ChunkedGraph`.

    The constrained balance system ``A x = b`` (``A = Qᵀ`` with the last row
    replaced by the normalisation constraint — exactly the system
    :class:`~repro.engine.system.ConstrainedSystemTemplate` assembles) is
    applied as a :class:`scipy.sparse.linalg.LinearOperator` that streams the
    graph's chunk files per matvec, so the generator is never materialised.

    Preconditioning is block-Jacobi over *superblocks* — runs of consecutive
    chunks merged to roughly :data:`DEFAULT_SUPERBLOCK_ROWS` rows.  Because
    chunks partition the states by source row, a superblock's in-block
    entries come only from its own chunks (targets filtered to the block),
    so the factor build streams the graph once.  Each block is factored by
    :func:`repro.markov.solvers.factorize` (a diagonal fallback if a block
    factorisation fails), and the solve walks the same ladder as
    :class:`ReusableSolver`: stale ILU blocks → rebuilt ILU blocks →
    complete-LU blocks.  Each rung runs GMRES → BiCGStab → iterative
    refinement (:func:`repro.markov.solvers.steady_state_matrix_free`), and
    only a vector that passes :func:`repro.markov.solvers.certify` is
    returned; otherwise an honest :class:`KrylovConvergenceError` is raised.
    """

    def __init__(
        self,
        graph: ChunkedGraph,
        *,
        superblock_rows: int = DEFAULT_SUPERBLOCK_ROWS,
    ) -> None:
        self.graph = graph
        self.superblock_rows = max(1, superblock_rows)
        self.warm_start: Optional[np.ndarray] = None
        self.preconditioner = None
        self._factor_rates: Optional[np.ndarray] = None
        n = graph.number_of_states
        self.rhs = np.zeros(n)
        if n:
            self.rhs[n - 1] = 1.0

    # --- operator ----------------------------------------------------------

    def _operator(
        self, rate_vector: np.ndarray, exit_rates: np.ndarray
    ) -> sparse_linalg.LinearOperator:
        graph = self.graph
        n = graph.number_of_states

        def matvec(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.zeros(n)
            for _, sources, targets, rates in graph.edge_chunks(rate_vector):
                y += np.bincount(targets, weights=rates * x[sources], minlength=n)
            y -= exit_rates * x
            y[n - 1] = x.sum()  # the replaced normalisation row
            return y

        return sparse_linalg.LinearOperator((n, n), matvec=matvec)

    # --- preconditioner -----------------------------------------------------

    def _superblocks(self) -> list[tuple[int, int, list[int]]]:
        """``(row_start, row_end, chunk_indices)`` runs of ≈superblock_rows."""
        blocks: list[tuple[int, int, list[int]]] = []
        members: list[int] = []
        start = 0
        for chunk in self.graph.chunks:
            if not members:
                start = chunk.row_start
            members.append(chunk.index)
            if chunk.row_end - start >= self.superblock_rows:
                blocks.append((start, chunk.row_end, members))
                members = []
        if members:
            blocks.append((start, self.graph.chunks[members[-1]].row_end, members))
        return blocks

    def _factorize(
        self, rate_vector: np.ndarray, exit_rates: np.ndarray, complete: bool = False
    ) -> sparse_linalg.LinearOperator:
        graph = self.graph
        n = graph.number_of_states
        solvers_per_block: list[tuple[int, int, Callable]] = []
        for row_start, row_end, members in self._superblocks():
            width = row_end - row_start
            rows: list[np.ndarray] = []
            cols: list[np.ndarray] = []
            vals: list[np.ndarray] = []
            for index in members:
                chunk = graph.chunks[index]
                if chunk.edge_count == 0:
                    continue
                sources = graph.chunk_array(index, "edge_sources")
                targets = graph.chunk_array(index, "edge_targets")
                rates = np.asarray(
                    graph.chunk_ecm(index).T.dot(rate_vector)
                ).ravel()
                inside = (targets >= row_start) & (targets < row_end)
                rows.append(targets[inside] - row_start)
                cols.append(sources[inside] - row_start)
                vals.append(rates[inside])
            diagonal = np.arange(width, dtype=np.int64)
            rows.append(diagonal)
            cols.append(diagonal)
            vals.append(-exit_rates[row_start:row_end])
            row_ids = np.concatenate(rows)
            col_ids = np.concatenate(cols)
            values = np.concatenate(vals)
            if row_end == n:
                # This block hosts the replaced normalisation row: drop its
                # balance entries and overwrite with the in-block ones row.
                keep = row_ids != width - 1
                row_ids = np.concatenate(
                    [row_ids[keep], np.full(width, width - 1, dtype=np.int64)]
                )
                col_ids = np.concatenate(
                    [col_ids[keep], np.arange(width, dtype=np.int64)]
                )
                values = np.concatenate([values[keep], np.ones(width)])
            block = sparse.coo_matrix(
                (values, (row_ids, col_ids)), shape=(width, width)
            ).tocsc()
            try:
                solve = solvers.factorize(block, complete=complete).solve
            except AnalysisError:
                # Singular / failed block: diagonal (Jacobi) scaling keeps
                # the preconditioner well defined.
                diagonal_values = block.diagonal()
                scale = 1.0 / np.where(
                    np.abs(diagonal_values) > 1e-300, diagonal_values, 1.0
                )
                solve = scale.__mul__
            solvers_per_block.append((row_start, row_end, solve))

        def apply(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64).ravel()
            y = np.empty_like(x)
            for row_start, row_end, solve in solvers_per_block:
                y[row_start:row_end] = solve(x[row_start:row_end])
            return y

        return sparse_linalg.LinearOperator((n, n), matvec=apply)

    # --- solving ------------------------------------------------------------

    def solve(
        self,
        rate_vector: Optional[np.ndarray] = None,
        scenario_index: Optional[int] = None,
    ) -> np.ndarray:
        """Certified stationary vector for ``rate_vector`` (default: the graph's own).

        Raises:
            KrylovConvergenceError: when even complete-LU blocks cannot
                produce a vector that passes the residual check — there is
                no denser representation to fall back to, so the failure is
                surfaced instead of a degraded vector.
        """
        graph = self.graph
        n = graph.number_of_states
        if n == 0:
            raise AnalysisError("cannot solve an empty state space")
        if n == 1:
            return np.array([1.0])
        rates = (
            np.asarray(rate_vector, dtype=np.float64)
            if rate_vector is not None
            else graph.rate_vector
        )
        exit_rates = graph.exit_rates(rates)
        operator = self._operator(rates, exit_rates)
        norm = 2.0 * float(exit_rates.max())
        where = _scenario(scenario_index)
        residual = float("nan")
        for rung in ("stale", "rebuilt", "complete"):
            if rung == "complete":
                warnings.warn(
                    f"ILU-preconditioned Krylov solve did not converge on {where} "
                    f"(true residual {residual:.3e}); retrying with complete-LU "
                    "blocks",
                    stacklevel=2,
                )
                preconditioner = self._factorize(rates, exit_rates, complete=True)
                # A one-off rescue: the next point starts over with ILU.
                self.preconditioner = self._factor_rates = None
            else:
                fresh = self._factor_rates is not None and np.array_equal(
                    self._factor_rates, rates
                )
                if self.preconditioner is None or (rung == "rebuilt" and not fresh):
                    self.preconditioner = self._factorize(rates, exit_rates)
                    self._factor_rates = rates.copy()
                elif rung == "rebuilt":
                    continue  # the factors already match these rates
                preconditioner = self.preconditioner
            solution, _ = solvers.steady_state_matrix_free(
                operator,
                self.rhs,
                preconditioner=preconditioner,
                x0=self.warm_start,
                rtol=solvers.GMRES_TOLERANCE,
                restart=max(solvers.GMRES_RESTART, 100),
                residual_target=solvers.GMRES_TOLERANCE,
            )
            probabilities, residual = solvers.certify(solution, operator.matvec, norm)
            if probabilities is not None:
                self.warm_start = probabilities
                return probabilities
        raise KrylovConvergenceError(
            f"matrix-free Krylov ladder (stale ILU, rebuilt ILU, complete LU) "
            f"did not pass the residual check on {where} "
            f"(true residual {residual:.3e})",
            scenario_index=scenario_index,
            residual_norm=residual,
            iterations=solvers.GMRES_MAX_ITERATIONS,
        )
