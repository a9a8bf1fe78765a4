"""Abstract interface shared by all mutation models.

A *mutation model* describes the column-stochastic matrix ``Q`` whose
entry ``Q[i, j]`` is the probability that a replication of sequence ``j``
produces sequence ``i`` (the convention implied by the ODE system (1):
``dx_i/dt = Σ_j f_j Q_{i,j} x_j − x_i Φ``; for the symmetric uniform model
the two index conventions coincide).

Concrete models provide their Kronecker factors and a dense
materialization used only for small-ν validation.  The model is the one
place that turns its factors into a butterfly plan (:meth:`MutationModel.plan`):
the fast implicit matvec, the host operators, the simulated device and
the verification oracles all run that plan.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ValidationError
from repro.transforms.batched import (
    MAX_RADIX,
    FusedStage,
    batched_butterfly_transform,
    fused_stage_plan,
)
from repro.util.validation import check_vector

__all__ = ["MutationModel", "check_column_stochastic"]


def check_column_stochastic(m: np.ndarray, *, atol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    """Validate that ``m`` is square, non-negative, with unit column sums.

    Kronecker products of column-stochastic factors are column-stochastic
    (paper, Sec. 2.2), so validating the factors validates the model.
    """
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {arr.shape}")
    if np.any(arr < -atol):
        raise ValidationError(f"{what} must be non-negative to be a stochastic matrix")
    colsums = arr.sum(axis=0)
    if not np.allclose(colsums, 1.0, atol=atol * arr.shape[0] + 1e-12):
        raise ValidationError(
            f"{what} must be column stochastic; column sums deviate by up to "
            f"{np.abs(colsums - 1.0).max():.3e}"
        )
    return arr


class MutationModel(abc.ABC):
    """Common behaviour of all ``Q`` representations.

    Attributes
    ----------
    nu:
        Chain length ``ν``.
    n:
        Problem dimension ``N = 2**ν``.
    """

    nu: int
    n: int

    # ------------------------------------------------------------------ api
    def plan(
        self, variant: str = "eq9", *, transpose: bool = False, max_radix: int = MAX_RADIX
    ) -> list[FusedStage]:
        """The fused butterfly plan of ``Q`` (of ``Qᵀ = ⊗ M_iᵀ`` with
        ``transpose=True``), in ``variant`` order (``"eq9"`` or ``"eq10"``).

        Per-bit 2×2 factors fuse into stages of radix up to ``max_radix``
        (:func:`~repro.transforms.batched.fused_stage_plan`: 8 for the host
        kernel, 2 for Algorithm 2's one launch per bit); a grouped model
        is one stage per block whatever ``max_radix``.  A model without
        Kronecker factors raises, naming its type.
        """
        factors = self._plan_factors()
        if transpose:
            factors = [f.T for f in factors]
        return self._stage_plan(factors, variant, max_radix)

    def apply(self, v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Fast implicit product ``Q · v``: the fused butterfly of
        :meth:`plan`, ``Θ(N log₂ N)`` for 2×2 factors.  ``out`` (which may
        be ``v`` itself) receives the result."""
        return self._run_plan(self.plan(), v, out)

    # ------------------------------------------------------ plan internals
    def _plan_factors(self) -> list[np.ndarray]:
        """The factors :meth:`_stage_plan` builds the plan from."""
        raise ValidationError(f"no butterfly plan for mutation model {type(self).__name__}")

    def _stage_plan(
        self, factors: list[np.ndarray], variant: str = "eq9", max_radix: int = MAX_RADIX
    ) -> list[FusedStage]:
        """The plan of ``factors``, one 2×2 factor per bit (LSB first)."""
        return fused_stage_plan(factors, variant=variant, max_radix=max_radix)

    def _run_plan(
        self, plan: list[FusedStage], v: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Run ``plan`` on the vector ``v`` as a one-column block."""
        v = self.check_vector(v)
        res = batched_butterfly_transform(v.reshape(self.n, 1), plan).reshape(self.n)
        if out is not None:
            out[:] = res
            return out
        return res

    @abc.abstractmethod
    def dense(self) -> np.ndarray:
        """Materialize ``Q`` as a dense ``N × N`` array (validation only).

        Implementations must refuse chain lengths where the dense matrix
        would be unreasonably large.
        """

    @property
    @abc.abstractmethod
    def is_symmetric(self) -> bool:
        """Whether ``Q = Qᵀ`` (true for the uniform model)."""

    # ------------------------------------------------------- shared helpers
    def check_vector(self, v: np.ndarray, name: str = "v") -> np.ndarray:
        """Validate a state vector for this model's dimension."""
        return check_vector(v, self.n, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(nu={self.nu}, n={self.n})"
