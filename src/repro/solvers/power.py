"""The (shifted) power iteration — the paper's solver of choice (Sec. 3).

Why power iteration: ``W`` is positive definite (Sec. 2) and
Perron–Frobenius applies, so ``λ₀ > λ₁ ≥ … ≥ λ_{N−1} > 0`` and
convergence to the Perron vector is guaranteed.  Among Krylov methods it
has the smallest possible memory footprint — one extra vector — which is
the binding constraint once ``N = 2^ν`` vectors barely fit in memory.

Paper-faithful details implemented here:

* start vector ``s = diag(F)/‖diag(F)‖₁`` (the landscape itself),
* stopping criterion: the residual ``R(λ̃, x̃) = ‖W·x̃ − λ̃·x̃‖₂``,
* optional conservative shift ``μ = (1−2p)^ν f_min`` (via
  :class:`~repro.operators.shifted.ShiftedOperator`), which improves the
  rate from ``λ₁/λ₀`` to ``(λ₁−μ)/(λ₀−μ)`` and cuts iteration counts by
  ≳10 % on random landscapes (reproduced in the shift-ablation bench).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.operators.base import ImplicitOperator
from repro.operators.dense_w import convert_eigenvector
from repro.operators.shifted import ShiftedOperator
from repro.solvers.result import IterationRecord, SolveResult

__all__ = ["PowerIteration", "BlockPowerIteration", "BlockSolveResult"]


class PowerIteration:
    """Power iteration on any implicit operator.

    Parameters
    ----------
    operator:
        The implicit product for ``W`` (any form); if a
        :class:`~repro.operators.shifted.ShiftedOperator` is passed, the
        reported eigenvalue is automatically un-shifted.
    tol:
        Residual threshold ``τ`` on ``‖Wx − λx‖₂`` (paper: 1e−15 for the
        exact products, 1e−10 for Xmvp(5)).
    max_iterations:
        Safety cap; exceeded ⇒ :class:`ConvergenceError` unless
        ``raise_on_fail=False``.
    record_history:
        Keep a per-iteration (λ, residual) trace.

    Notes
    -----
    Iterates are normalized in the **1-norm** — they are relative
    concentrations, and this keeps the Rayleigh-like eigenvalue estimate
    ``λ̃ = ‖W·x‖₁ / ‖x‖₁`` exact in the limit for the positive Perron
    vector (for positive ``x`` and non-negative ``W``, ``1ᵀWx = λ 1ᵀx``
    at the fixed point).  The residual is still measured in the 2-norm,
    as in the paper.
    """

    def __init__(
        self,
        operator: ImplicitOperator,
        *,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
        record_history: bool = False,
    ):
        if tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {tol}")
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        self.operator = operator
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.record_history = bool(record_history)

    # --------------------------------------------------------------- solve
    def solve(
        self,
        start: np.ndarray,
        *,
        landscape=None,
        form: str = "right",
        raise_on_fail: bool = True,
        method_name: str | None = None,
    ) -> SolveResult:
        """Run the iteration from ``start``.

        Parameters
        ----------
        start:
            Starting vector (e.g. ``landscape.start_vector()``); must
            have positive mass.
        landscape, form:
            When given, the converged eigenvector is also converted to
            physical concentrations ``x_R`` (see
            :func:`repro.operators.dense_w.convert_eigenvector`);
            otherwise the working-form vector doubles as concentrations.
        raise_on_fail:
            Raise :class:`ConvergenceError` when the tolerance is not
            met within ``max_iterations`` (default), else return the
            best iterate with ``converged=False``.
        method_name:
            Label stored in the result (defaults to
            ``Pi(<operator class>)``).
        """
        op = self.operator
        mu = op.mu if isinstance(op, ShiftedOperator) else 0.0
        x = np.asarray(start, dtype=np.float64).copy()
        if x.shape != (op.n,):
            raise ValidationError(f"start vector must have shape ({op.n},), got {x.shape}")
        mass = np.abs(x).sum()
        if mass <= 0.0:
            raise ValidationError("start vector must have nonzero mass")
        x /= mass

        history: list[IterationRecord] = []
        lam = 0.0
        residual = np.inf
        iterations = 0
        for iterations in range(1, self.max_iterations + 1):
            y = op.matvec(x)
            lam = float(np.abs(y).sum())  # 1-norm estimate; y > 0 near the fixed point
            if lam <= 0.0:
                raise ConvergenceError(
                    "iterate collapsed to zero — W is not acting as a positive operator",
                    iterations=iterations,
                    residual=float("nan"),
                )
            y /= lam
            # Residual of the *normalized* pair: ‖W x − λ x‖₂ = λ‖y − x‖₂.
            residual = lam * float(np.linalg.norm(y - x))
            x = y
            if self.record_history:
                history.append(IterationRecord(iterations, lam + mu, residual))
            if residual < self.tol:
                break
        else:  # pragma: no cover - loop always breaks or exhausts
            pass

        converged = residual < self.tol
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"power iteration did not reach tol={self.tol} in "
                f"{self.max_iterations} iterations (residual={residual:.3e})",
                iterations=iterations,
                residual=residual,
            )

        eigenvalue = lam + mu  # un-shift
        x = np.abs(x)  # Perron vector: clean up −0.0 / tiny negative noise
        x /= x.sum()
        if landscape is not None:
            concentrations = convert_eigenvector(x, landscape, form)
        else:
            concentrations = x
        name = method_name or f"Pi({type(op).__name__})"
        return SolveResult(
            eigenvalue=eigenvalue,
            eigenvector=x,
            concentrations=concentrations,
            iterations=iterations,
            residual=residual,
            converged=converged,
            method=name,
            history=history,
        )


@dataclass
class BlockSolveResult:
    """Outcome of a lock-step block power iteration.

    Attributes
    ----------
    columns:
        Per-column :class:`~repro.solvers.result.SolveResult`\\ s, in the
        original column order (deflated columns keep the iteration count
        at which they converged).
    sweeps:
        Number of fused ``matmat`` sweeps executed — the quantity the
        batched route amortizes (``sweeps`` equals the iteration count
        of the *slowest* column).
    """

    columns: list[SolveResult]
    sweeps: int

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.columns)

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([r.eigenvalue for r in self.columns])

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, j: int) -> SolveResult:
        return self.columns[j]

    def __iter__(self):
        return iter(self.columns)


class BlockPowerIteration:
    """Lock-step power iteration on ``B`` columns sharing one operator.

    All columns ride the *same* fused butterfly stream
    (:meth:`~repro.operators.batched.BatchedFmmp.matmat`): one sweep
    advances every still-active column by one power step.  Each column
    keeps its own eigenvalue estimate, residual, and optional shift
    ``μ_j`` (the per-landscape conservative shift of Sec. 3); columns
    that reach the tolerance are **deflated** — dropped from the working
    block so later sweeps only move the unconverged columns' memory.

    Parameters
    ----------
    operator:
        A :class:`~repro.operators.batched.BatchedFmmp` (per-column or
        shared landscapes) or any :class:`ImplicitOperator` whose
        :meth:`matmat` applies the block product.  Per-column operators
        are driven through their ``columns=`` selection so deflation
        composes with per-column diagonals.
    shifts:
        Optional per-column shift ``μ_j``: scalar (shared) or length-B
        sequence.  The iteration runs on ``W_j − μ_j I`` and reports the
        un-shifted eigenvalue, exactly like wrapping each column in a
        :class:`~repro.operators.shifted.ShiftedOperator`.
    tol, max_iterations, record_history:
        As for :class:`PowerIteration`; the residual criterion
        ``‖W_j x_j − λ_j x_j‖₂ < τ`` is applied per column.
    """

    def __init__(
        self,
        operator: ImplicitOperator,
        *,
        shifts: float | Sequence[float] | np.ndarray | None = None,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
        record_history: bool = False,
    ):
        if tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {tol}")
        if max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        self.operator = operator
        self.shifts = shifts
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.record_history = bool(record_history)

    # ------------------------------------------------------------ plumbing
    def _resolve_batch(self, starts: np.ndarray | None) -> int:
        op = self.operator
        if starts is not None:
            arr = np.asarray(starts)
            if arr.ndim != 2 or arr.shape[0] != op.n:
                raise ValidationError(
                    f"starts must be an ({op.n}, B) block, got shape {arr.shape}"
                )
            b = arr.shape[1]
        elif getattr(op, "per_column", False):
            b = op.batch
        else:
            raise ValidationError(
                "starts is required unless the operator carries per-column landscapes"
            )
        if b < 1:
            raise ValidationError("block power iteration needs at least one column")
        if getattr(op, "per_column", False) and b != op.batch:
            raise ValidationError(
                f"starts has {b} columns but the operator has {op.batch} landscape columns"
            )
        return b

    def _resolve_shifts(self, b: int) -> np.ndarray:
        if self.shifts is None:
            return np.zeros(b)
        mu = np.atleast_1d(np.asarray(self.shifts, dtype=np.float64))
        if mu.shape == (1,):
            mu = np.full(b, mu[0])
        if mu.shape != (b,):
            raise ValidationError(f"shifts must be scalar or length {b}, got shape {mu.shape}")
        return mu

    def _resolve_landscapes(self, landscapes, b: int):
        if landscapes is None:
            op_lands = getattr(self.operator, "landscapes", None)
            if op_lands is not None and getattr(self.operator, "per_column", False):
                return list(op_lands)
            if op_lands is not None and len(op_lands) == 1:
                return [op_lands[0]] * b
            return [None] * b
        lands = list(landscapes)
        if len(lands) == 1:
            lands = lands * b
        if len(lands) != b:
            raise ValidationError(f"expected {b} landscapes, got {len(lands)}")
        return lands

    # --------------------------------------------------------------- solve
    def solve(
        self,
        starts: np.ndarray | None = None,
        *,
        landscapes=None,
        form: str | None = None,
        raise_on_fail: bool = True,
        method_name: str | None = None,
    ) -> BlockSolveResult:
        """Run the lock-step iteration.

        Parameters
        ----------
        starts:
            ``(n, B)`` block of start vectors (columns with positive
            mass).  Defaults to each landscape's
            :meth:`~repro.landscapes.base.FitnessLandscape.start_vector`
            when the operator carries per-column landscapes.
        landscapes:
            Per-column landscapes for the concentration conversion;
            defaults to the operator's own, when it has them.
        form:
            Eigenproblem form for the conversion (defaults to the
            operator's ``form`` attribute, else ``"right"``).
        raise_on_fail:
            Raise :class:`ConvergenceError` if any column misses the
            tolerance within ``max_iterations`` (default); otherwise
            the stragglers are returned with ``converged=False``.
        """
        op = self.operator
        n = op.n
        b = self._resolve_batch(starts)
        mu = self._resolve_shifts(b)
        lands = self._resolve_landscapes(landscapes, b)
        if form is None:
            form = getattr(op, "form", "right")
        per_column = bool(getattr(op, "per_column", False))

        if starts is None:
            cols = []
            for j, land in enumerate(lands):
                if land is None:
                    raise ValidationError(f"no start vector and no landscape for column {j}")
                cols.append(land.start_vector())
            x = np.stack(cols, axis=1).astype(np.float64)
        else:
            x = np.ascontiguousarray(starts, dtype=np.float64).copy()
        mass = np.abs(x).sum(axis=0)
        if np.any(mass <= 0.0):
            bad = int(np.argmin(mass))
            raise ValidationError(f"start column {bad} has nonzero mass required, got {mass[bad]}")
        x /= mass[None, :]

        name = method_name or f"BPi({type(op).__name__})"
        active = list(range(b))
        lam = np.zeros(b)
        residual = np.full(b, np.inf)
        iterations = np.zeros(b, dtype=int)
        final = [None] * b
        histories: list[list[IterationRecord]] = [[] for _ in range(b)]
        sweeps = 0

        while active and sweeps < self.max_iterations:
            sweeps += 1
            kwargs = {"columns": active} if per_column else {}
            y = op.matmat(x, **kwargs)
            mu_act = mu[active]
            if np.any(mu_act != 0.0):
                y = y - x * mu_act[None, :]
            lam_act = np.abs(y).sum(axis=0)
            if np.any(lam_act <= 0.0):
                bad = active[int(np.argmin(lam_act))]
                raise ConvergenceError(
                    f"column {bad} collapsed to zero — W is not acting as a "
                    "positive operator",
                    iterations=sweeps,
                    residual=float("nan"),
                )
            y = y / lam_act[None, :]
            res_act = lam_act * np.linalg.norm(y - x, axis=0)

            if self.record_history:
                for k, j in enumerate(active):
                    histories[j].append(
                        IterationRecord(sweeps, float(lam_act[k] + mu[j]), float(res_act[k]))
                    )

            done = [k for k in range(len(active)) if res_act[k] < self.tol]
            for k in range(len(active)):
                j = active[k]
                lam[j] = lam_act[k]
                residual[j] = res_act[k]
                iterations[j] = sweeps
            if done:
                # Deflation: freeze converged columns, shrink the block.
                done_set = set(done)
                for k in done:
                    final[active[k]] = y[:, k].copy()
                keep = [k for k in range(len(active)) if k not in done_set]
                active = [active[k] for k in keep]
                x = np.ascontiguousarray(y[:, keep])
            else:
                x = y

        for k, j in enumerate(active):  # stragglers keep their last iterate
            final[j] = x[:, k].copy()

        if active and raise_on_fail:
            raise ConvergenceError(
                f"block power iteration: columns {active} did not reach "
                f"tol={self.tol} in {self.max_iterations} sweeps "
                f"(worst residual={float(np.max(residual[active])):.3e})",
                iterations=sweeps,
                residual=float(np.max(residual[active])),
            )

        unconverged = set(active)
        results: list[SolveResult] = []
        for j in range(b):
            v = np.abs(final[j])
            v /= v.sum()
            concentrations = (
                convert_eigenvector(v, lands[j], form) if lands[j] is not None else v
            )
            results.append(
                SolveResult(
                    eigenvalue=float(lam[j] + mu[j]),
                    eigenvector=v,
                    concentrations=concentrations,
                    iterations=int(iterations[j]),
                    residual=float(residual[j]),
                    converged=j not in unconverged,
                    method=name,
                    history=histories[j],
                )
            )
        return BlockSolveResult(columns=results, sweeps=sweeps)
