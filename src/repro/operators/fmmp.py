"""``Fmmp`` — the paper's fast mutation matrix product (Sec. 2).

Exact ``W·v`` in ``Θ(N log₂ N)`` with no matrix storage at all: the
Kronecker factorization of ``Q`` turns the product into a ν-stage
butterfly (Eq. 9 / Eq. 10, Algorithm 1).  Works unchanged for the
generalized mutation models of Sec. 2.2 — per-site factors run through
the same butterfly, grouped factors through the multilinear Kronecker
contraction.

Two stage orders are provided, mirroring the two recursions:

* ``variant="eq9"`` — combine after recursing (Eq. 9): ascending spans
  ``1, 2, …, N/2``, exactly Algorithm 1;
* ``variant="eq10"`` — split before recursing (Eq. 10): descending spans.

For a fixed bit↔factor assignment the stages commute, so both variants
produce identical results (asserted in the tests) — the choice only
matters for memory-access order, which is why the paper mentions both.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.mutation.grouped import GroupedMutation
from repro.mutation.persite import PerSiteMutation
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FormMixin, ImplicitOperator, OperatorCosts
from repro.operators.batched import (
    form_scales,
    fused_product,
    kron_costs,
    panel_engine,
    plan_costs,
)
from repro.transforms.batched import fused_stage_plan
from repro.transforms.kronecker import kron_matvec
from repro.transforms.parallel import resolve_threads
from repro.util.scratch import ScratchPool

__all__ = ["Fmmp"]

_VARIANTS = ("eq9", "eq10")


class Fmmp(ImplicitOperator, FormMixin):
    """Fast mutation matrix product operator for ``W`` (Eqs. 3–5 forms).

    For 2×2-factored models (uniform, per-site) :meth:`matvec` is the
    one-column case of :meth:`repro.operators.batched.BatchedFmmp.matmat`:
    the fused stage plan, built once at construction, run by
    :func:`repro.transforms.batched.batched_butterfly_transform` on an
    ``(N, 1)`` view, with the ``F``/``F^{1/2}`` scalings folded in as
    pre/post scales.  Grouped models run the Kronecker contraction.

    Parameters
    ----------
    mutation:
        Any :class:`~repro.mutation.base.MutationModel`; butterfly path
        for 2×2-factored models, Kronecker contraction for grouped ones.
    landscape:
        The fitness landscape.
    form:
        ``right``/``symmetric``/``left``.
    variant:
        ``"eq9"`` (ascending spans, Algorithm 1) or ``"eq10"``
        (descending spans).
    threads:
        Panel-engine thread count (``None`` reads ``REPRO_NUM_THREADS``,
        default 1).  With ``threads > 1`` the same fused plan is split
        into :func:`repro.transforms.parallel.auto_panels` row panels on the
        panel engine (:mod:`repro.transforms.parallel`); the output is
        bit-identical to ``threads=1``, so ``threads`` changes only wall
        time.  Grouped models have no butterfly to parallelize and stay
        on their serial contraction.

    Examples
    --------
    >>> from repro.mutation import UniformMutation
    >>> from repro.landscapes import SinglePeakLandscape
    >>> op = Fmmp(UniformMutation(10, 0.01), SinglePeakLandscape(10))
    >>> y = op.matvec(op.landscape.start_vector())
    >>> y.shape
    (1024,)
    """

    def __init__(
        self,
        mutation: MutationModel,
        landscape: FitnessLandscape,
        form: str = "right",
        variant: str = "eq9",
        *,
        threads: int | None = None,
    ):
        if mutation.nu != landscape.nu:
            raise ValidationError(
                f"mutation (nu={mutation.nu}) and landscape (nu={landscape.nu}) disagree"
            )
        if variant not in _VARIANTS:
            raise ValidationError(f"variant must be one of {_VARIANTS}, got {variant!r}")
        self.mutation = mutation
        self.variant = variant
        self.n = mutation.n
        self._init_form(landscape, form)
        self.threads = resolve_threads(threads)
        self.panels, self._engine = 1, None

        self._plan = self._blocks = None
        if isinstance(mutation, (UniformMutation, PerSiteMutation)):
            self._plan = fused_stage_plan(mutation.factors_per_bit(), variant=variant)
            self.panels, self._engine = panel_engine(mutation.nu, 1, self.threads)
            # The fused kernel's (N, 1) scratch block, acquired per call
            # from a bounded keyed pool so concurrent workers can share
            # one operator instance.
            self._scratch_pool = ScratchPool()
        elif isinstance(mutation, GroupedMutation):
            self._blocks = mutation.blocks()

    # ------------------------------------------------------------- product
    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        if self._plan is None:
            if self._blocks is not None:
                return self._apply_form(v, lambda w: kron_matvec(self._blocks, w))
            return self._apply_form(v, self.mutation.apply)
        pre, post = form_scales(self.form, self._f, self._sqrt_f)
        shape = (self.n, 1)
        scratch = self._scratch_pool.acquire(shape)
        try:
            out = fused_product(
                v.reshape(shape),
                self._plan,
                pre,
                post,
                panels=self.panels,
                engine=self._engine,
                scratch=scratch,
            )
        finally:
            self._scratch_pool.release(scratch)
        return out.reshape(self.n)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric" and self.mutation.is_symmetric

    def costs(self, *, batch: int = 1) -> OperatorCosts:
        """Costs of one product on ``batch`` columns: :func:`plan_costs`
        of the fused plan :meth:`matvec` runs (``⌈ν/3⌉`` radix ≤ 8
        sweeps plus the form's diagonal passes), or :func:`kron_costs` for
        grouped models.  The paper's stage-by-stage count is
        :func:`repro.perf.costs.fmmp_costs`."""
        if batch < 1:
            raise ValidationError(f"batch must be >= 1, got {batch}")
        if self._plan is None:
            return kron_costs(self.mutation, self.form, batch, self._f.size)
        shape = (self.n,)
        return plan_costs(self._plan, self.n, batch, *form_scales(self.form, shape, shape))
