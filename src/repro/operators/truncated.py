"""Truncated-Walsh approximative product (paper future work, implemented).

The conclusions list "approximative strategies for a fast matrix vector
product" as an open direction.  The spectral structure of Sec. 2 offers
a principled one: in the Walsh basis ``Q = V Λ V`` with
``Λ_ii = (1−2p)^{popcount(i)}`` — the spectrum decays *geometrically* in
the popcount of the Walsh index.  Zeroing every mode with popcount above
a cut ``k_max`` gives the low-rank approximation

    Q_k = V Λ_k V,     rank(Q_k) = Σ_{j ≤ k_max} C(ν, j),

with operator-norm error **exactly** ``(1−2p)^{k_max+1}`` (the largest
dropped eigenvalue) — an a-priori bound the ``Xmvp(dmax)`` truncation of
[10] does not have.  The product still costs two FWHT passes
(``Θ(N log₂ N)``) plus a now-sparse diagonal; the real payoff is the
*compressed representation*: iterates can live in the retained-mode
subspace, cutting memory and (in the distributed setting) traffic by the
retained fraction.

Complements rather than replaces ``Fmmp`` — an approximation knob with a
certificate, for workloads that can trade certified accuracy for state
compression.
"""

from __future__ import annotations

import numpy as np

from repro.bitops.popcount import distance_to_master
from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FormMixin, ImplicitOperator, OperatorCosts
from repro.operators.batched import plan_costs
from repro.transforms.fwht import fwht, fwht_plan
from repro.util.binomial import binomial_row

__all__ = ["TruncatedWalsh"]


class TruncatedWalsh(ImplicitOperator, FormMixin):
    """Low-rank Walsh-spectral approximation of ``W`` (uniform model).

    Parameters
    ----------
    mutation:
        A :class:`UniformMutation` (the closed-form spectrum is its
        privilege).
    landscape:
        The fitness landscape.
    k_max:
        Largest Walsh-index popcount retained, ``0 <= k_max <= ν``;
        ``k_max = ν`` reproduces the exact product.
    form:
        Eigenproblem form (Eqs. 3–5).
    """

    def __init__(
        self,
        mutation: UniformMutation,
        landscape: FitnessLandscape,
        k_max: int,
        form: str = "right",
    ):
        if not isinstance(mutation, UniformMutation):
            raise ValidationError("TruncatedWalsh requires the uniform mutation model")
        if mutation.nu != landscape.nu:
            raise ValidationError("mutation and landscape chain lengths disagree")
        if not 0 <= k_max <= mutation.nu:
            raise ValidationError(f"k_max must be in [0, {mutation.nu}], got {k_max}")
        self.mutation = mutation
        self.k_max = int(k_max)
        self.n = mutation.n
        self._init_form(landscape, form)
        pop = distance_to_master(mutation.nu)
        lam = (1.0 - 2.0 * mutation.p) ** pop.astype(np.float64)
        lam[pop > self.k_max] = 0.0
        self._lam = lam
        self._retained = int((pop <= self.k_max).sum())

    # ----------------------------------------------------------- structure
    @property
    def rank(self) -> int:
        """Retained Walsh modes, ``Σ_{j ≤ k_max} C(ν, j)``."""
        return self._retained

    @property
    def retained_fraction(self) -> float:
        """``rank / N`` — the compression factor of the representation."""
        return self._retained / float(self.n)

    def error_bound(self) -> float:
        """A-priori spectral-norm bound ``‖Q − Q_k‖₂ = (1−2p)^{k_max+1}``
        (0 when nothing is truncated)."""
        if self.k_max >= self.mutation.nu:
            return 0.0
        return (1.0 - 2.0 * self.mutation.p) ** (self.k_max + 1)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric"

    # ----------------------------------------------------------- operations
    def _q_truncated(self, w: np.ndarray) -> np.ndarray:
        out = fwht(w, ortho=True)
        out *= self._lam
        return fwht(out, ortho=True, in_place=True)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        return self._apply_form(v, self._q_truncated)

    def costs(self) -> OperatorCosts:
        """Two transforms, each :func:`~repro.operators.batched.plan_costs`
        of the :func:`~repro.transforms.fwht.fwht_plan` it runs plus its
        orthonormal scaling (read and write the vector), then the
        spectral diagonal and the form's scales (read the vector and the
        diagonal, write the result)."""
        n = float(self.n)
        transform = plan_costs(fwht_plan(self.mutation.nu), self.n)
        diagonals = 1.0 + (2.0 if self.form == "symmetric" else 1.0)
        return OperatorCosts(
            flops=2.0 * (transform.flops + n) + diagonals * n,
            bytes_moved=2.0 * (transform.bytes_moved + 16.0 * n) + diagonals * 24.0 * n,
            storage_bytes=8.0 * n,
        )

    @staticmethod
    def rank_for_nu(nu: int, k_max: int) -> int:
        """Retained-mode count without building the operator."""
        if not 0 <= k_max <= nu:
            raise ValidationError(f"k_max must be in [0, {nu}]")
        return int(binomial_row(nu)[: k_max + 1].sum())
