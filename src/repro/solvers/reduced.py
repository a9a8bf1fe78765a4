"""Exact (ν+1)-dimensional reduction for Hamming landscapes (Sec. 5.1).

Lemma 2 of the paper: if ``F`` is an error-class landscape, ``W = Q·F``
maps error-class vectors to error-class vectors, so the power iteration
(started from an error-class vector) lives entirely in the
(ν+1)-dimensional space of class representatives.  The reduced matrix is

    W_red[d, k] = QΓ[d, k] · FΓ_k

with ``QΓ`` from Eq. (14) — it maps *representatives*, not class
aggregates; the cumulative concentrations are
``[Γ_k] ∝ C(ν,k)·vΓ_k``.

The solver works in the class-aggregate basis instead.  Because ``Q``
is symmetric, ``C(ν,d)·QΓ[d,k] = C(ν,k)·QΓ[k,d]``, so

    diag(C)·W_red·diag(C)⁻¹ = QΓᵀ·diag(FΓ),

whose Perron vector *is* ``[Γ_k]``.  Its entries are O(1) where the
mass is, so the dense eigensolver's absolute error stays at rounding
level — unlike ``vΓ``, whose entries span ``C(ν, ν/2)`` and whose
binomial rescale would amplify that error (at ν = 60 it swamped the
answer).  No binomial is ever formed as a float, so chains far beyond
ν = 1029 (where ``C(ν, ν/2)`` overflows float64) solve too.

This makes approximative schemes unnecessary for this landscape family
(the paper's point against [11, 17]) and handles chain lengths far beyond
anything the full solvers can touch.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.reduced import reduced_mutation_matrix
from repro.solvers.dense import dense_dominant_eigenpair
from repro.solvers.result import SolveResult
from repro.util.validation import check_chain_length, check_error_rate

__all__ = ["ReducedSolver", "reduced_w_matrix"]


def _class_fitness(nu: int, class_fitness: np.ndarray) -> np.ndarray:
    f = np.asarray(class_fitness, dtype=np.float64).reshape(-1)
    if f.shape[0] != nu + 1:
        raise ValidationError(f"class fitness must have nu+1={nu + 1} values, got {f.shape[0]}")
    if np.any(f <= 0.0) or not np.all(np.isfinite(f)):
        raise ValidationError("class fitness values must be finite and positive")
    return f


def _log_class_sizes(nu: int) -> np.ndarray:
    """``log C(ν, k)`` for ``k = 0..ν`` (never overflows)."""
    log_fact = np.array([math.lgamma(m + 1) for m in range(nu + 1)])
    return log_fact[nu] - log_fact - log_fact[::-1]


def reduced_w_matrix(nu: int, p: float, class_fitness: np.ndarray) -> np.ndarray:
    """The reduced matrix ``W_red = QΓ · diag(FΓ)`` ∈ R^{(ν+1)×(ν+1)}."""
    nu = check_chain_length(nu, max_nu=10_000)
    p = check_error_rate(p, allow_zero=True)
    return reduced_mutation_matrix(nu, p) * _class_fitness(nu, class_fitness)[None, :]


class ReducedSolver:
    """Exact quasispecies solver for Hamming-distance landscapes.

    Parameters
    ----------
    nu:
        Chain length (may far exceed what full solvers allow).
    p:
        Uniform error rate.
    landscape:
        Any landscape with ``is_error_class_landscape == True`` — or an
        explicit array of ν+1 class fitness values.

    Examples
    --------
    >>> from repro.landscapes import SinglePeakLandscape
    >>> res = ReducedSolver(20, 0.01, SinglePeakLandscape(20)).solve()
    >>> res.converged
    True
    """

    def __init__(self, nu: int, p: float, landscape: FitnessLandscape | np.ndarray):
        self.nu = check_chain_length(nu, max_nu=10_000)
        self.p = check_error_rate(p, allow_zero=True)
        if isinstance(landscape, FitnessLandscape):
            if landscape.nu != self.nu:
                raise ValidationError(
                    f"landscape nu={landscape.nu} does not match solver nu={self.nu}"
                )
            if not landscape.is_error_class_landscape:
                raise ValidationError(
                    "the (nu+1) reduction is exact only for Hamming-distance "
                    "landscapes (Lemma 2); use the full solvers instead"
                )
            landscape = landscape.class_values()
        self.class_fitness = _class_fitness(self.nu, landscape)
        #: the class-aggregate matrix ``QΓᵀ·diag(FΓ)``
        self._classes = reduced_mutation_matrix(self.nu, self.p).T * self.class_fitness[None, :]
        self._log_sizes = _log_class_sizes(self.nu)

    # --------------------------------------------------------------- solve
    def solve(self) -> SolveResult:
        """Solve the (ν+1) problem in the class-aggregate basis.

        Returns a :class:`SolveResult` whose ``concentrations`` holds the
        cumulative class concentrations ``[Γ_k]`` (the Perron vector of
        ``QΓᵀ·diag(FΓ)``; ``residual`` is measured in that basis) and
        whose ``eigenvector`` holds the ν+1 *representative*
        concentrations ``vΓ_k ∝ [Γ_k] / C(ν,k)``, both unit 1-norm.
        ``[Γ_k]`` is accurate to rounding in absolute terms, so a class
        below ~1e-16 (``[Γ_0]`` past the error threshold of a long
        chain) is not resolved.  ``vΓ`` is recovered in log space, so it
        never overflows, but an entry below about 1e-308 of the largest
        one flushes to zero — at long chains that is every class near
        ``k = ν/2``.
        """
        lam, conc = dense_dominant_eigenpair(self._classes, symmetric=False)
        conc = np.abs(conc)
        conc /= conc.sum()
        residual = float(np.linalg.norm(self._classes @ conc - lam * conc))
        with np.errstate(divide="ignore"):
            log_v = np.log(conc) - self._log_sizes
        with np.errstate(under="ignore"):
            v_gamma = np.exp(log_v - log_v.max())
        v_gamma /= v_gamma.sum()
        return SolveResult(
            eigenvalue=lam,
            eigenvector=v_gamma,
            concentrations=conc,
            iterations=0,
            residual=residual,
            converged=True,
            method="Reduced(nu+1)",
        )

    def full_eigenvector(self, *, max_nu: int = 24) -> np.ndarray:
        """Materialize the full N-dimensional concentration vector.

        Every sequence in ``Γ_k`` carries the same concentration
        ``[Γ_k] / C(ν,k)`` — exact recovery of the original eigenvector
        from the reduced one (paper, Sec. 5.1).
        """
        check_chain_length(self.nu, max_nu=max_nu)
        from repro.bitops.popcount import distance_to_master

        with np.errstate(divide="ignore", under="ignore"):
            per_sequence = np.exp(np.log(self.solve().concentrations) - self._log_sizes)
        return per_sequence[distance_to_master(self.nu)]
