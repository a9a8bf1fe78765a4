"""Arnoldi iteration for non-symmetric operators.

The paper's Sec. 3 mentions "Lanczos/Arnoldi iterations" as the
higher-storage alternatives to power iteration.  Lanczos
(:mod:`repro.solvers.lanczos`) covers the symmetric form; the
generalized mutation processes of Sec. 2.2 can make ``Q`` — and with it
every form of ``W`` — non-symmetric, where Arnoldi is the appropriate
Krylov method.  Same trade-off as Lanczos: far fewer matvecs than power
iteration at the price of storing the full Krylov basis.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.operators.base import ImplicitOperator
from repro.operators.dense_w import convert_eigenvector
from repro.solvers.result import IterationRecord, SolveResult

__all__ = ["Arnoldi"]


class Arnoldi:
    """Arnoldi iteration extracting the dominant (rightmost) Ritz pair.

    Parameters
    ----------
    operator:
        Any implicit operator (symmetry not required).
    tol:
        Threshold on the Ritz residual estimate ``|h_{m+1,m} · y_m|``.
    max_basis:
        Maximum Krylov basis size (memory: ``max_basis`` vectors of
        length ``N`` plus the small Hessenberg matrix).
    """

    def __init__(self, operator: ImplicitOperator, *, tol: float = 1e-12, max_basis: int = 200):
        if max_basis < 2:
            raise ValidationError("max_basis must be >= 2")
        self.operator = operator
        self.tol = float(tol)
        self.max_basis = int(max_basis)

    def solve(
        self,
        start: np.ndarray,
        *,
        landscape=None,
        form: str = "right",
        raise_on_fail: bool = True,
    ) -> SolveResult:
        """Grow the basis until the dominant Ritz pair converges."""
        op = self.operator
        v = np.asarray(start, dtype=np.float64).copy()
        if v.shape != (op.n,):
            raise ValidationError(f"start vector must have shape ({op.n},), got {v.shape}")
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ValidationError("start vector must be nonzero")
        v /= nrm

        basis = [v]
        h = np.zeros((self.max_basis + 1, self.max_basis))
        history: list[IterationRecord] = []
        lam = 0.0
        residual = np.inf
        ritz = v

        for j in range(self.max_basis):
            w = op.matvec(basis[j])
            # Modified Gram-Schmidt with one re-orthogonalization pass.
            for _ in range(2):
                for i, b in enumerate(basis):
                    coef = float(b @ w)
                    h[i, j] += coef
                    w -= coef * b
            beta = float(np.linalg.norm(w))
            h[j + 1, j] = beta
            # Fail fast: a NaN/inf product would reach eig or run to the cap.
            col = h[: j + 2, j]
            if not np.isfinite(col).all():
                i = int(np.flatnonzero(~np.isfinite(col))[0])
                raise ConvergenceError(
                    f"Arnoldi at step {j + 1}: Hessenberg entry H[{i}, {j}]={col[i]} is not "
                    "finite (a non-finite product W·v)",
                    iterations=j + 1,
                    residual=float("nan"),
                )

            # Ritz extraction: rightmost eigenvalue of H_j.
            hj = h[: j + 1, : j + 1]
            evals, evecs = np.linalg.eig(hj)
            k = int(np.argmax(evals.real))
            lam_c = evals[k]
            y = evecs[:, k]
            if abs(lam_c.imag) > 1e-8 * max(1.0, abs(lam_c.real)):
                # A complex rightmost pair cannot be the Perron root of
                # W; keep expanding, it separates out as j grows.
                lam = float(lam_c.real)
                residual = np.inf
            else:
                lam = float(lam_c.real)
                y = y.real
                ynorm = np.linalg.norm(y)
                if ynorm > 0:
                    y = y / ynorm
                residual = abs(beta * y[-1])
                ritz = np.zeros(op.n)
                for coef, b in zip(y, basis):
                    ritz += coef * b
            history.append(IterationRecord(j + 1, lam, residual))
            if residual < self.tol or beta < 1e-300:
                break
            basis.append(w / beta)

        converged = residual < self.tol
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"Arnoldi did not reach tol={self.tol} with basis {self.max_basis}",
                iterations=len(history),
                residual=residual,
            )

        ritz = np.abs(ritz)
        total = ritz.sum()
        if total == 0.0:
            raise ConvergenceError("Arnoldi produced a zero Ritz vector", iterations=len(history))
        ritz /= total
        conc = convert_eigenvector(ritz, landscape, form) if landscape is not None else ritz
        return SolveResult(
            eigenvalue=lam,
            eigenvector=ritz,
            concentrations=conc,
            iterations=len(history),
            residual=residual,
            converged=converged,
            method=f"Arnoldi({type(op).__name__})",
            history=history,
        )
