"""Per-site mutation processes (Sec. 2.2, first generalization).

The uniform-error-rate assumption is the oldest criticism of the
quasispecies model.  The paper's observation: the Kronecker factorization
never needed the factors to be *equal* — any ν independent single-point
processes work, as long as each 2×2 factor is column stochastic.  ``Q``
may lose symmetry; the butterfly product is unaffected.

A general 2×2 column-stochastic factor for site ``s`` is

    [[1 − a_s,  b_s],
     [    a_s,  1 − b_s]]

where ``a_s`` = P(0→1 flip at site s) and ``b_s`` = P(1→0 flip).  The
uniform model is ``a_s = b_s = p`` for all ``s``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.mutation.base import MutationModel, check_column_stochastic
from repro.util.validation import check_chain_length

__all__ = ["PerSiteMutation", "site_factor"]


def site_factor(p01: float, p10: float | None = None) -> np.ndarray:
    """Build a 2×2 column-stochastic single-site factor.

    Parameters
    ----------
    p01:
        Probability that an unmutated site (0) flips to 1.
    p10:
        Probability that a mutated site (1) flips back to 0; defaults to
        ``p01`` (symmetric site).
    """
    if p10 is None:
        p10 = p01
    for name, val in (("p01", p01), ("p10", p10)):
        if not 0.0 <= val <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {val}")
    return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])


class PerSiteMutation(MutationModel):
    """ν independent, possibly different, single-site mutation processes.

    Parameters
    ----------
    factors:
        Sequence of ν column-stochastic 2×2 matrices; ``factors[s]`` acts
        on site/bit ``s`` (LSB = site 0).

    Notes
    -----
    In the Kronecker product notation of Eq. (7), site ``s`` corresponds
    to factor number ``ν − s`` (the paper's factor 1 is the most
    significant bit) — the :meth:`kronecker_factors` accessor returns
    them in paper order.
    """

    def __init__(self, factors: Sequence[np.ndarray]):
        if len(factors) == 0:
            raise ValidationError("at least one site factor is required")
        self.nu = check_chain_length(len(factors))
        self.n = 1 << self.nu
        self._factors = [
            check_column_stochastic(f, what=f"site factor {s}") for s, f in enumerate(factors)
        ]
        for s, f in enumerate(self._factors):
            if f.shape != (2, 2):
                raise ValidationError(f"site factor {s} must be 2x2, got {f.shape}")

    # ------------------------------------------------------------ builders
    @classmethod
    def from_error_rates(cls, rates: Sequence[float]) -> "PerSiteMutation":
        """Symmetric per-site rates: site ``s`` flips with probability
        ``rates[s]`` in either direction."""
        return cls([site_factor(r) for r in rates])

    @classmethod
    def uniform(cls, nu: int, p: float) -> "PerSiteMutation":
        """The uniform model expressed in per-site form (for testing the
        equivalence with :class:`~repro.mutation.uniform.UniformMutation`)."""
        return cls.from_error_rates([p] * nu)

    # ----------------------------------------------------------- structure
    def factors_per_bit(self) -> list[np.ndarray]:
        """Site-indexed factors (bit ``s`` ↔ ``factors[s]``)."""
        return [f.copy() for f in self._factors]

    def kronecker_factors(self) -> list[np.ndarray]:
        """Factors in the paper's ⊗ order (factor 1 = most significant bit)."""
        return [f.copy() for f in reversed(self._factors)]

    @property
    def is_symmetric(self) -> bool:
        return all(abs(f[0, 1] - f[1, 0]) < 1e-15 for f in self._factors)

    def _plan_factors(self) -> list[np.ndarray]:
        return self._factors

    # ----------------------------------------------------------- operations
    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """``Q⁻¹ · v`` via per-factor 2×2 inverses (requires all factors
        nonsingular, i.e. ``a_s + b_s != 1`` for every site)."""
        invs = []
        for s, f in enumerate(self._factors):
            det = f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0]
            if abs(det) < 1e-300:
                raise ValidationError(f"site factor {s} is singular; Q has no inverse")
            invs.append(np.array([[f[1, 1], -f[0, 1]], [-f[1, 0], f[0, 0]]]) / det)
        return self._run_plan(self._stage_plan(invs), v)

    def eigenvalues(self) -> np.ndarray:
        """All ``N`` eigenvalues as Kronecker combinations of the per-site
        pairs ``{1, 1 − a_s − b_s}``.

        Entry ``i`` multiplies, over every set bit ``s`` of ``i``, the
        second eigenvalue of site ``s`` — generalizing
        ``(1−2p)^{dH(i,0)}``.
        """
        lam = np.ones(self.n)
        for s, f in enumerate(self._factors):
            second = 1.0 - f[1, 0] - f[0, 1]  # 1 - a_s - b_s
            bit = (np.arange(self.n) >> s) & 1
            lam *= np.where(bit == 1, second, 1.0)
        return lam

    def dense(self, *, max_nu: int = 13) -> np.ndarray:
        """Dense ``Q = ⊗ factors`` (validation only)."""
        check_chain_length(self.nu, max_nu=max_nu)
        m = np.array([[1.0]])
        for f in self.kronecker_factors():
            m = np.kron(m, f)
        return m
