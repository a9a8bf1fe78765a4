"""``Xmvp(dmax)`` — the XOR-based implicit sparse product of [10].

The predecessor paper's idea: ``Q[i, j]`` depends only on
``dH(i, j) = popcount(i ^ j)``, so

    (Q·w)[i] = Σ_{k=0}^{dmax} QΓ_k · Σ_{m : popcount(m)=k} w[i ^ m]

— iterate over XOR offset masks ``m`` grouped by popcount instead of over
matrix entries.  Truncating at ``dmax < ν`` *sparsifies* ``Q`` (drops all
transitions beyond Hamming distance ``dmax``), trading accuracy for time:
``Θ(N · Σ_{k≤dmax} C(ν,k))``.  ``Xmvp(ν)`` is exact and numerically
identical to ``Smvp`` without the ``Θ(N²)`` storage.

Only defined for the **uniform** mutation model — the XOR trick needs
``Q`` constant on Hamming shells.

The masks for all ``k ≤ dmax`` are precomputed once
(:func:`repro.bitops.classes.masks_up_to_distance`); each mask costs one
gather-add pass over the vector, mirroring the memory-access behaviour
the paper reports ("due to its memory access patterns it tends to get
less competitive for increasing chain lengths").
"""

from __future__ import annotations

import numpy as np

from repro.bitops.classes import masks_up_to_distance
from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FormMixin, ImplicitOperator, OperatorCosts

__all__ = ["Xmvp"]


class Xmvp(ImplicitOperator, FormMixin):
    """XOR-based sparsified product with cut-off distance ``dmax``.

    Parameters
    ----------
    mutation:
        A :class:`~repro.mutation.uniform.UniformMutation` model.
    landscape:
        The fitness landscape.
    dmax:
        Maximum Hamming distance kept, ``1 <= dmax <= ν``.  ``dmax = ν``
        is exact; ``dmax = 1`` is the coarsest approximation considered
        in the paper; ``dmax = 5`` gives ≈1e−10 accuracy ([10], used in
        Fig. 3).
    form:
        Eigenproblem form (Eqs. 3–5).
    """

    def __init__(
        self,
        mutation: UniformMutation,
        landscape: FitnessLandscape,
        dmax: int,
        form: str = "right",
    ):
        if not isinstance(mutation, UniformMutation):
            raise ValidationError(
                "Xmvp requires the uniform mutation model (Q constant on Hamming shells)"
            )
        if mutation.nu != landscape.nu:
            raise ValidationError(
                f"mutation (nu={mutation.nu}) and landscape (nu={landscape.nu}) disagree"
            )
        if not 1 <= dmax <= mutation.nu:
            raise ValidationError(f"dmax must be in [1, {mutation.nu}], got {dmax}")
        self.mutation = mutation
        self.dmax = int(dmax)
        self.n = mutation.n
        self._init_form(landscape, form)
        self._q_class = mutation.class_values()
        self._masks = masks_up_to_distance(mutation.nu, self.dmax)
        self._idx = np.arange(self.n, dtype=np.int64)

    # ------------------------------------------------------------- product
    def _q_truncated(self, w: np.ndarray) -> np.ndarray:
        """``Q_sparsified · w`` by accumulating XOR-shifted copies."""
        out = self._q_class[0] * w  # k = 0: the identity mask
        idx = self._idx
        for k in range(1, self.dmax + 1):
            qk = self._q_class[k]
            acc = np.zeros_like(w)
            for m in self._masks[k]:
                acc += w[idx ^ m]
            out += qk * acc
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        return self._apply_form(v, self._q_truncated)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric"  # uniform Q is always symmetric

    @property
    def is_exact(self) -> bool:
        """True when ``dmax = ν`` (no sparsification)."""
        return self.dmax == self.mutation.nu

    def costs(self) -> OperatorCosts:
        """One gather + add pass of length N per mask, plus the diagonal
        pass: :func:`repro.perf.costs.xmvp_costs`, the paper's
        ``Θ(N · Σ_{k≤dmax} C(ν,k))``."""
        from repro.perf.costs import xmvp_costs

        return xmvp_costs(self.mutation.nu, self.dmax)
