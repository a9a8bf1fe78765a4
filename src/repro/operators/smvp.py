"""``Smvp`` — the standard (dense) matrix–vector product baseline.

This is what "existing algorithms" in the paper's abstract do: store all
``N²`` entries of ``W`` and multiply.  ``Θ(N²)`` time and memory confine
it to small ν; it exists as the reference point for Figures 2–4 and for
the correctness tests of the implicit operators.
"""

from __future__ import annotations

import numpy as np

from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.operators.base import FormMixin, ImplicitOperator, OperatorCosts
from repro.operators.dense_w import dense_w

__all__ = ["Smvp"]


class Smvp(ImplicitOperator, FormMixin):
    """Dense ``W`` product.

    Parameters
    ----------
    mutation:
        Any mutation model with a ``dense()`` method.
    landscape:
        The fitness landscape.
    form:
        Eigenproblem form, one of ``right``/``symmetric``/``left``.
    max_nu:
        Densification guard (default ν ≤ 13 ⇒ ≤ 512 MiB).
    """

    def __init__(
        self,
        mutation: MutationModel,
        landscape: FitnessLandscape,
        form: str = "right",
        *,
        max_nu: int = 13,
    ):
        self.mutation = mutation
        self._init_form(landscape, form)
        self.n = mutation.n
        self._w = dense_w(mutation, landscape, form, max_nu=max_nu)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        return self._w @ v

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric" and self.mutation.is_symmetric

    def costs(self) -> OperatorCosts:
        """``2N²`` flops; the matrix itself dominates the traffic
        (:func:`repro.perf.costs.smvp_costs`)."""
        from repro.perf.costs import smvp_costs

        return smvp_costs(self.mutation.nu)

    def to_dense(self, *, max_n: int = 1 << 13) -> np.ndarray:
        return self._w.copy()
