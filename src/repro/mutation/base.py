"""Abstract interface shared by all mutation models.

A *mutation model* describes the column-stochastic matrix ``Q`` whose
entry ``Q[i, j]`` is the probability that a replication of sequence ``j``
produces sequence ``i`` (the convention implied by the ODE system (1):
``dx_i/dt = Σ_j f_j Q_{i,j} x_j − x_i Φ``; for the symmetric uniform model
the two index conventions coincide).

Concrete models must provide a fast implicit matvec and a dense
materialization used only for small-ν validation.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ValidationError
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
    @abc.abstractmethod
    def apply(self, v: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """Fast implicit product ``Q · v``.

        ``out`` may alias ``v`` for in-situ operation where the concrete
        model supports it.
        """

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
