"""Left Perron eigenvector — genotype reproductive values.

For symmetric ``Q`` the left and right eigenvectors of ``W = Q·F``
coincide up to diagonal scalings, but the generalized mutation processes
of Sec. 2.2 make ``W`` genuinely non-symmetric, and then the *left*
Perron vector ``u`` (``uᵀW = λ₀uᵀ``) carries its own biology: ``u_i`` is
the **reproductive value** of genotype ``i`` — the long-run contribution
of one individual of type ``i`` to the future population (the classical
Fisher notion; it weights each genotype by where its mutational lineage
goes, not where it sits).

Computed with the same machinery as everything else: the transpose
matvec is just the butterfly with transposed factors (``(A⊗B)ᵀ =
Aᵀ⊗Bᵀ``), wrapped in the adjoint of the landscape scaling.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.operators.base import FORMS, ImplicitOperator, OperatorCosts
from repro.operators.batched import form_scales, fused_product, mutation_plan, plan_costs
from repro.operators.fmmp import Fmmp
from repro.solvers.power import PowerIteration
from repro.solvers.result import SolveResult

__all__ = ["TransposedFmmp", "left_eigenvector", "reproductive_values"]

#: ``(Q·F)ᵀ = F·Qᵀ`` and ``(F·Q)ᵀ = Qᵀ·F``: transposing swaps the side the
#: right and left forms scale on; the symmetric form keeps both.
_ADJOINT_FORM = {"right": "left", "symmetric": "symmetric", "left": "right"}


class TransposedFmmp(ImplicitOperator):
    """Implicit ``Wᵀ·v`` at the same ``Θ(N log₂ N)`` cost.

    ``(Q·F)ᵀ = F·Qᵀ`` and ``Qᵀ = ⊗ M_iᵀ`` — the same butterfly with each
    2×2 (or 2^g×2^g) factor transposed, composed with the diagonal on
    the correct side for each form (Eqs. 3–5).
    """

    def __init__(self, mutation: MutationModel, landscape: FitnessLandscape, form: str = "right"):
        if form not in FORMS:
            raise ValidationError(f"form must be one of {FORMS}, got {form!r}")
        if mutation.nu != landscape.nu:
            raise ValidationError("mutation and landscape chain lengths disagree")
        self.mutation = mutation
        self.landscape = landscape
        self.form = form
        self.n = mutation.n
        self._f = landscape.values()
        self._sqrt_f = np.sqrt(self._f)
        self._plan = mutation_plan(mutation, transpose=True)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        pre, post = form_scales(_ADJOINT_FORM[self.form], self._f, self._sqrt_f)
        return fused_product(v.reshape(self.n, 1), self._plan, pre, post).reshape(self.n)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric" and self.mutation.is_symmetric

    def costs(self) -> OperatorCosts:
        """Costs of its own product: :func:`plan_costs` of the
        transposed plan."""
        shape = (self.n,)
        adjoint = _ADJOINT_FORM[self.form]
        return plan_costs(self._plan, self.n, 1, *form_scales(adjoint, shape, shape))


def left_eigenvector(
    mutation: MutationModel,
    landscape: FitnessLandscape,
    *,
    form: str = "right",
    tol: float = 1e-12,
    max_iterations: int = 200_000,
) -> SolveResult:
    """Dominant *left* eigenpair of ``W`` via power iteration on ``Wᵀ``.

    The returned ``eigenvector`` is the left Perron vector ``u``
    (1-norm, positive); ``eigenvalue`` must — and is asserted in the
    tests to — match the right eigenvalue λ₀.
    """
    op = TransposedFmmp(mutation, landscape, form=form)
    pi = PowerIteration(op, tol=tol, max_iterations=max_iterations)
    res = pi.solve(np.ones(mutation.n) / mutation.n, method_name=f"LeftPi(Fmmp^T, {form})")
    return res


def reproductive_values(
    mutation: MutationModel,
    landscape: FitnessLandscape,
    *,
    tol: float = 1e-12,
) -> np.ndarray:
    """Fisher reproductive values of all genotypes.

    The left Perron vector of the right form ``W = Q·F``, normalized so
    the population-average reproductive value is one:
    ``Σ_i u_i x_i = 1`` with ``x`` the stationary distribution.
    """
    left = left_eigenvector(mutation, landscape, form="right", tol=tol)
    right = PowerIteration(Fmmp(mutation, landscape), tol=tol).solve(
        landscape.start_vector(), landscape=landscape
    )
    u = left.eigenvector
    scale = float(u @ right.concentrations)
    if scale <= 0.0:
        raise ValidationError("degenerate left/right normalization")
    return u / scale
