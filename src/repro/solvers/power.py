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

:class:`PowerIteration` is the one-column case of the lock-step
:class:`BlockPowerIteration`: one loop, whose reductions sum each column
in a fixed order (:func:`column_sums`), so a column's bits never depend
on how many other columns share its sweeps.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.operators.base import ImplicitOperator
from repro.operators.batched import BatchedFmmp
from repro.operators.dense_w import convert_eigenvector
from repro.operators.shifted import ShiftedOperator
from repro.solvers.result import IterationRecord, SolveResult

__all__ = ["PowerIteration", "BlockPowerIteration", "BlockSolveResult", "column_sums"]

#: strided partial sums per column in :func:`column_sums`
_PARTIALS = 64

#: bytes of one ``(rows, B)`` row tile in :func:`_tiled_sums`; the tiles
#: of the iterate, the product and the reduction buffer stay in L2
_TILE_BYTES = 128 << 10


def _tile_rows(b: int) -> int:
    """Rows of a tile of an ``(n, b)`` block: the largest power of two
    that fits ``_TILE_BYTES``, but at least ``_PARTIALS``."""
    rows = _TILE_BYTES // (8 * b)
    return max(_PARTIALS, 1 << max(rows.bit_length() - 1, 0))


def _tiled_sums(step, *blocks: np.ndarray) -> np.ndarray:
    """Per-column sums of ``step`` over ``(n, B)`` blocks, in the fixed
    order of :func:`column_sums`.

    ``step(out, *tiles)`` gets the same rows of every block and writes
    their elementwise values into ``out``; it may also update the tiles
    in place.  The rows are walked in tiles of :func:`_tile_rows` rows,
    so the values never leave the cache.  Each tile is written below the
    running partials (row 0 of the buffer) and the buffer is reduced
    along its rows, so every partial still adds its rows one by one in
    row order, exactly as one reduction of the whole block.
    """
    n, b = blocks[0].shape
    p = min(_PARTIALS, n & -n)
    if p < 2:  # odd n: no fixed order (never the case for N = 2**ν)
        out = np.empty((n, b))
        step(out, *blocks)
        return np.add.reduce(out)
    rows = min(n, _tile_rows(b)) if p == _PARTIALS else n
    buf = np.empty((1 + rows // p, p * b))  # partial k of column j at k·b + j
    tile = buf[1:].reshape(rows, b)
    step(tile, *[a[:rows] for a in blocks])
    acc = np.add.reduce(buf[1:])
    for lo in range(rows, n, rows):
        t = min(rows, n - lo)
        step(tile[:t], *[a[lo : lo + t] for a in blocks])
        buf[0] = acc
        np.add.reduce(buf[: 1 + t // p], out=acc)
    sums = np.add.reduce(acc.reshape(p // 2, 2 * b))
    return sums[:b] + sums[b:]


def column_sums(block: np.ndarray) -> np.ndarray:
    """Per-column sums of an ``(n, B)`` block, bitwise independent of ``B``
    for even ``n`` (NumPy's ``sum`` picks pairwise or sequential order from
    the shape).  Row ``i`` adds into partial ``i mod p`` (``p = min(64, n)``)
    in row order; the even and the odd partials are summed in order, then
    added.  Both reductions run along the outer axis of a block at least
    two wide, which NumPy sums row by row.  This is the one-step case of
    the power loop's tiled reducer.
    """
    return _tiled_sums(np.copyto, block)


def _abs(out, x):
    np.abs(x, out=out)


def _shift_abs(out, y, x, *, mu):
    """Pass A: ``y −= μ∘x`` in place (``mu`` may be ``None``); ``out = |y|``."""
    if mu is not None:
        y -= np.multiply(x, mu, out=out)
    np.abs(y, out=out)


def _scale_residual(out, y, x, *, lam):
    """Pass B: ``y /= λ`` in place; ``out = (y − x)²``."""
    y /= lam
    np.subtract(y, x, out=out)
    np.multiply(out, out, out=out)


def _front(buf: np.ndarray, cols: int) -> np.ndarray:
    """The first ``n·cols`` doubles of a C-contiguous block, as ``(n, cols)``."""
    n = buf.shape[0]
    return buf.reshape(-1)[: n * cols].reshape(n, cols)


class _PowerLoop:
    """Settings shared by both power solvers, and the one loop they run."""

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

    def _run(self, x, mu, lands, form, raise_on_fail, name, matvec=None):
        """Iterate the owned ``(n, B)`` start block ``x`` with shifts ``mu``;
        returns ``(results, sweeps)``.  ``matvec`` drives one column, else
        the operator's ``matmat`` the active ones; a ``BatchedFmmp`` writes
        into the loop's three blocks (iterate, product and its ping-pong
        scratch), and deflation compacts their fronts.  Each sweep's
        epilogue is two tiled passes (:func:`_tiled_sums`): the shift and
        the 1-norm λ, then the normalisation and the residual.
        """
        op = self.operator
        b = x.shape[1]
        recycle = matvec is None and isinstance(op, BatchedFmmp)
        scratch = np.empty_like(x) if recycle else None
        mass = _tiled_sums(_abs, x)
        bad = np.flatnonzero(~(np.isfinite(mass) & (mass > 0.0)))
        if bad.size:
            j = int(bad[0])
            raise ValidationError(f"start column {j} must have finite nonzero mass, got {mass[j]}")
        x /= mass

        active = np.arange(b)
        lam, residual, iterations = np.zeros(b), np.zeros(b), np.zeros(b, dtype=int)
        finals: list[np.ndarray | None] = [None] * b
        histories: list[list[IterationRecord]] = [[] for _ in range(b)]
        shifted = bool(np.any(mu != 0.0))
        spare = None
        sweeps = 0
        while sweeps < self.max_iterations:
            sweeps += 1
            if matvec is not None:
                y = matvec(x.reshape(-1)).reshape(x.shape)
            elif recycle:
                columns = active if op.per_column and active.size < b else None
                y = op.matmat(x, columns=columns, out=spare, scratch=scratch)
            else:
                y = op.matmat(x)
            # Pass A: shift, then the 1-norm estimate (y > 0 near the fixed point)
            mu_act = mu[active] if shifted else None
            lam_act = _tiled_sums(partial(_shift_abs, mu=mu_act), y, x)
            # Fail fast: a NaN/inf iterate never recovers.  A finite λ > 0
            # also keeps the residual finite, as x is normalized.
            if not (lam_act.min() > 0.0 and lam_act.max() < np.inf):
                k = int(np.flatnonzero(~((lam_act > 0.0) & (lam_act < np.inf)))[0])
                raise ConvergenceError(
                    f"column {int(active[k])} at sweep {sweeps}: eigenvalue estimate "
                    f"{lam_act[k]} is not finite and positive (a non-finite iterate, "
                    "or W is not acting as a positive operator)",
                    iterations=sweeps,
                    residual=float("nan"),
                )
            # Pass B: normalize; residual of the *normalized* pair,
            # ‖W x − λ x‖₂ = λ‖y − x‖₂.
            sq = _tiled_sums(partial(_scale_residual, lam=lam_act), y, x)
            res_act = lam_act * np.sqrt(sq)

            if self.record_history:
                for k, j in enumerate(active):
                    histories[j].append(
                        IterationRecord(sweeps, float(lam_act[k] + mu[j]), float(res_act[k]))
                    )

            if res_act.min() >= self.tol:
                x, spare = y, (x if recycle else None)
                continue
            # Deflation: freeze converged columns, shrink the block in place.
            done = res_act < self.tol
            for k in np.flatnonzero(done):
                j = active[k]
                finals[j] = y[:, k].copy()
                lam[j], residual[j], iterations[j] = lam_act[k], res_act[k], sweeps
            keep = np.flatnonzero(~done)
            active, lam_act, res_act = active[keep], lam_act[keep], res_act[keep]
            if not keep.size:
                break
            x = np.take(y, keep, axis=1, out=_front(x, keep.size), mode="clip")
            if recycle:
                spare, scratch = _front(y, keep.size), _front(scratch, keep.size)

        del y, spare, scratch  # release the blocks before building results
        for k, j in enumerate(active):  # stragglers keep their last iterate
            finals[j] = x[:, k].copy()
            lam[j], residual[j], iterations[j] = lam_act[k], res_act[k], sweeps
        del x

        if active.size and raise_on_fail:
            worst = float(np.max(residual[active]))
            raise ConvergenceError(
                f"power iteration: columns {active.tolist()} did not reach "
                f"tol={self.tol} in {self.max_iterations} sweeps "
                f"(worst residual={worst:.3e})",
                iterations=sweeps,
                residual=worst,
            )
        results = []
        for j, v in enumerate(finals):
            v = np.abs(v, out=v)  # Perron vector: clean up −0.0 / tiny negative noise
            v /= v.sum()
            results.append(
                SolveResult(
                    eigenvalue=float(lam[j] + mu[j]),  # un-shift
                    eigenvector=v,
                    concentrations=(
                        convert_eigenvector(v, lands[j], form) if lands[j] is not None else v
                    ),
                    iterations=int(iterations[j]),
                    residual=float(residual[j]),
                    converged=j not in active,
                    method=name,
                    history=histories[j],
                )
            )
        return results, sweeps


class PowerIteration(_PowerLoop):
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

    This is the one-column case of :class:`BlockPowerIteration` (a
    :class:`~repro.operators.shifted.ShiftedOperator` is unwrapped into
    its base and ``μ``), so the result is bitwise that column of a block.
    """

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
        base, mu = (op.base, op.mu) if isinstance(op, ShiftedOperator) else (op, 0.0)
        n = op.n
        if np.shape(start) != (n,):
            raise ValidationError(f"start vector must have shape ({n},), got {np.shape(start)}")

        name = method_name or f"Pi({type(op).__name__})"
        # The start copy is passed, not named, so the loop frees it after one sweep.
        results, _ = self._run(
            np.array(start, dtype=np.float64).reshape(n, 1),
            np.array([mu], dtype=np.float64),
            [landscape],
            form,
            raise_on_fail,
            name,
            base.matvec,
        )
        return results[0]


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


class BlockPowerIteration(_PowerLoop):
    """Lock-step power iteration on ``B`` columns sharing one operator.

    All columns ride the *same* fused butterfly stream
    (:meth:`~repro.operators.batched.BatchedFmmp.matmat`): one sweep
    advances every still-active column by one power step.  Each column
    keeps its own eigenvalue estimate, residual, and optional shift
    ``μ_j`` (the per-landscape conservative shift of Sec. 3); columns
    that reach the tolerance are **deflated** — dropped from the working
    block so later sweeps only move the unconverged columns' memory.
    Each column is bitwise what :class:`PowerIteration` returns for it
    alone.

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
        **settings,
    ):
        super().__init__(operator, **settings)
        self.shifts = shifts

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
            landscapes = getattr(self.operator, "landscapes", None) or [None]
        lands = list(landscapes)
        if len(lands) == 1:
            lands = lands * b
        if len(lands) != b:
            raise ValidationError(f"expected {b} landscapes, got {len(lands)}")
        return lands

    def _start_block(self, starts, lands) -> np.ndarray:
        """A fresh ``(n, B)`` start block for the loop to own."""
        if starts is None:  # a per-column operator: one landscape per column
            return np.stack([land.start_vector() for land in lands], axis=1)
        return np.array(starts, dtype=np.float64, order="C")

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
        b = self._resolve_batch(starts)
        mu = self._resolve_shifts(b)
        lands = self._resolve_landscapes(landscapes, b)
        if form is None:
            form = getattr(op, "form", "right")


        name = method_name or f"BPi({type(op).__name__})"
        results, sweeps = self._run(
            self._start_block(starts, lands), mu, lands, form, raise_on_fail, name
        )
        return BlockSolveResult(columns=results, sweeps=sweeps)
