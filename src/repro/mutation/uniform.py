"""The classic uniform-error-rate mutation matrix (Eq. 2 / Eq. 7).

``Q[i, j] = p^{dH(i,j)} · (1−p)^{ν − dH(i,j)}`` — every site mutates
independently with the same probability ``p``.  Equivalently (Eq. 7)

    Q(ν) = ⊗_{i=1}^{ν} [[1−p, p], [p, 1−p]],

which is what makes the ``Θ(N log₂ N)`` butterfly product possible and
gives the closed-form eigendecomposition ``Q = V Λ V`` with the Hadamard
matrix ``V`` and ``Λ_{i,i} = (1−2p)^{dH(i,0)}``.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.popcount import distance_to_master, hamming_matrix
from repro.exceptions import ValidationError
from repro.mutation.base import MutationModel
from repro.util.validation import check_chain_length, check_error_rate

__all__ = ["UniformMutation"]


class UniformMutation(MutationModel):
    """Uniform single-point mutation with error rate ``p``.

    Parameters
    ----------
    nu:
        Chain length ``ν``; the model dimension is ``N = 2**ν``.
    p:
        Per-site error rate, ``0 <= p <= 1/2``.  ``p = 0`` is the
        degenerate error-free corner (``Q = I``) and ``p = 1/2`` the
        maximally-mixing corner (rank-one ``Q``); both are admitted so
        the verification harness can exercise them.

    Examples
    --------
    >>> q = UniformMutation(3, 0.01)
    >>> import numpy as np
    >>> v = np.zeros(8); v[0] = 1.0
    >>> float(q.apply(v).sum().round(12))  # column-stochastic: mass preserved
    1.0
    """

    def __init__(self, nu: int, p: float):
        # The model object is O(1) storage, so very long chains are fine
        # here; only the operations that touch 2**nu-sized data (apply,
        # eigenvalues, dense) enforce the materialization guard.
        self.nu = check_chain_length(nu, max_nu=10_000)
        self.p = check_error_rate(p, allow_zero=True)
        self.n = 1 << self.nu

    # ----------------------------------------------------------- structure
    def factor(self) -> np.ndarray:
        """The single 2×2 Kronecker factor ``[[1−p, p], [p, 1−p]]``."""
        p = self.p
        return np.array([[1.0 - p, p], [p, 1.0 - p]])

    def factors_per_bit(self) -> list[np.ndarray]:
        """One (identical) 2×2 factor per bit, for the butterfly engine."""
        f = self.factor()
        return [f] * self.nu

    def class_values(self) -> np.ndarray:
        """The ν+1 distinct entries ``QΓ_k = p^k (1−p)^{ν−k}``, k = 0..ν.

        The whole matrix contains only these values (paper, Sec. 1.1).
        """
        k = np.arange(self.nu + 1, dtype=np.float64)
        return self.p**k * (1.0 - self.p) ** (self.nu - k)

    @property
    def is_symmetric(self) -> bool:
        return True

    def _plan_factors(self) -> list[np.ndarray]:
        return self.factors_per_bit()

    # ----------------------------------------------------------- operations
    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """Fast ``Q⁻¹ · v``.

        From Eq. (12): the inverse factors are
        ``(1−2p)^{-1} [[1−p, −p], [−p, 1−p]]``; requires ``p < 1/2``.
        """
        if self.p >= 0.5:
            raise ValidationError("Q is singular at p = 1/2; inverse undefined")
        p = self.p
        inv = np.array([[1.0 - p, -p], [-p, 1.0 - p]]) / (1.0 - 2.0 * p)
        return self._run_plan(self._stage_plan([inv] * self.nu), v)

    def eigenvalues(self) -> np.ndarray:
        """All ``N`` eigenvalues ``(1−2p)^{dH(i,0)}`` (Hadamard order)."""
        return (1.0 - 2.0 * self.p) ** distance_to_master(self.nu).astype(np.float64)

    def spectral_bounds(self) -> tuple[float, float]:
        """``(λ_min, λ_max) = ((1−2p)^ν, 1)`` — Q is positive definite."""
        return ((1.0 - 2.0 * self.p) ** self.nu, 1.0)

    def dense(self, *, max_nu: int = 13) -> np.ndarray:
        """Dense ``Q`` with ``Q[i,j] = QΓ_{dH(i,j)}`` (validation only)."""
        dh = hamming_matrix(self.nu, max_nu=max_nu)
        return self.class_values()[dh]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformMutation(nu={self.nu}, p={self.p})"
