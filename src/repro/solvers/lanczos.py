"""Lanczos iteration on the symmetric form (Eq. 4).

The paper (Sec. 3) notes Lanczos/Arnoldi converge in fewer matvecs than
power iteration but "require storing more intermediate vectors … and are
thus less attractive for very large scale instances".  We implement a
full-reorthogonalized Lanczos so the storage/accuracy trade-off can be
*measured* rather than asserted — see the solver-comparison bench.

Only valid on symmetric operators (use ``form="symmetric"`` with a
symmetric mutation model).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.operators.base import ImplicitOperator
from repro.operators.dense_w import convert_eigenvector
from repro.solvers.result import IterationRecord, SolveResult

__all__ = ["Lanczos"]


class Lanczos:
    """Storage-hungry Krylov alternative to the power iteration.

    Parameters
    ----------
    operator:
        A *symmetric* implicit operator (checked via its
        ``is_symmetric`` flag).
    tol:
        Residual threshold on ``‖W·x − λ·x‖₂`` for the extracted Ritz
        pair.
    max_basis:
        Maximum Krylov basis size — this is the memory cost the paper
        warns about: ``max_basis`` extra vectors of length ``N``.
    """

    def __init__(self, operator: ImplicitOperator, *, tol: float = 1e-12, max_basis: int = 200):
        if not operator.is_symmetric:
            raise ValidationError(
                "Lanczos requires a symmetric operator; use form='symmetric' "
                "with a symmetric mutation model"
            )
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
        form: str = "symmetric",
        raise_on_fail: bool = True,
    ) -> SolveResult:
        """Build the Krylov basis until the dominant Ritz pair converges."""
        op = self.operator
        v = np.asarray(start, dtype=np.float64).copy()
        if v.shape != (op.n,):
            raise ValidationError(f"start vector must have shape ({op.n},), got {v.shape}")
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise ValidationError("start vector must be nonzero")
        v /= nrm

        basis = [v]
        alphas: list[float] = []
        betas: list[float] = []
        history: list[IterationRecord] = []
        lam = 0.0
        residual = np.inf
        ritz = v

        for j in range(self.max_basis):
            w = op.matvec(basis[j])
            alpha = float(basis[j] @ w)
            alphas.append(alpha)
            w -= alpha * basis[j]
            if j > 0:
                w -= betas[j - 1] * basis[j - 1]
            # Full reorthogonalization: cheap insurance at these basis sizes.
            for b in basis:
                w -= (b @ w) * b
            beta = float(np.linalg.norm(w))
            # Fail fast: a NaN/inf product would reach eigh or run to the cap.
            if not (np.isfinite(alpha) and np.isfinite(beta)):
                name, value = ("alpha", alpha) if not np.isfinite(alpha) else ("beta", beta)
                raise ConvergenceError(
                    f"Lanczos at step {j + 1}: tridiagonal entry {name}={value} is not "
                    "finite (a non-finite product W·v)",
                    iterations=j + 1,
                    residual=float("nan"),
                )

            # Ritz extraction from the tridiagonal matrix.
            t = np.diag(alphas)
            if betas:
                off = np.array(betas)
                t += np.diag(off, 1) + np.diag(off, -1)
            evals, evecs = np.linalg.eigh(t)
            lam = float(evals[-1])
            y = evecs[:, -1]
            ritz = np.zeros(op.n)
            for coef, b in zip(y, basis):
                ritz += coef * b
            # Lanczos residual estimate: |β_j · y_last|.
            residual = abs(beta * y[-1])
            history.append(IterationRecord(j + 1, lam, residual))
            if residual < self.tol or beta < 1e-300:
                break
            betas.append(beta)
            basis.append(w / beta)

        converged = residual < self.tol
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"Lanczos did not reach tol={self.tol} with basis {self.max_basis}",
                iterations=len(alphas),
                residual=residual,
            )

        ritz = np.abs(ritz)
        total = ritz.sum()
        if total == 0.0:
            raise ConvergenceError("Lanczos produced a zero Ritz vector", iterations=len(alphas))
        ritz /= total
        if landscape is not None:
            conc = convert_eigenvector(ritz, landscape, form)
        else:
            conc = ritz
        return SolveResult(
            eigenvalue=lam,
            eigenvector=ritz,
            concentrations=conc,
            iterations=len(alphas),
            residual=residual,
            converged=converged,
            method=f"Lanczos({type(op).__name__})",
            history=history,
        )

    def storage_vectors(self, iterations: int) -> int:
        """Extra length-``N`` vectors held after ``iterations`` steps —
        the quantity power iteration keeps at 1 (paper's argument)."""
        return min(iterations + 1, self.max_basis + 1)
