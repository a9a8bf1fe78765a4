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
from repro.operators.batched import form_scales, fused_product, panel_engine
from repro.transforms.kronecker import kron_matvec
from repro.transforms.parallel import resolve_threads
from repro.util.scratch import ScratchPool

__all__ = ["Fmmp"]

_VARIANTS = ("eq9", "eq10")


class Fmmp(ImplicitOperator, FormMixin):
    """Fast mutation matrix product operator for ``W`` (Eqs. 3–5 forms).

    For 2×2-factored models (uniform, per-site) :meth:`matvec` is the
    one-column case of :meth:`repro.operators.batched.BatchedFmmp.matmat`:
    the fused stage plan of
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
        into :func:`repro.perf.parallel.auto_panels` row panels on the
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

        if isinstance(mutation, (UniformMutation, PerSiteMutation)):
            self._bit_factors = mutation.factors_per_bit()
            self._blocks = None
            self.panels, self._engine = panel_engine(mutation.nu, 1, self.threads)
            # The fused kernel's (N, 1) scratch block, acquired per call
            # from a bounded keyed pool so concurrent workers can share
            # one operator instance.
            self._scratch_pool = ScratchPool()
        elif isinstance(mutation, GroupedMutation):
            self._bit_factors = None
            self._blocks = mutation.blocks()
        else:  # pragma: no cover - future models fall back to .apply
            self._bit_factors = None
            self._blocks = None

    # ------------------------------------------------------------- product
    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        if self._bit_factors is None:
            if self._blocks is not None:
                return self._apply_form(v, lambda w: kron_matvec(self._blocks, w))
            return self._apply_form(v, self.mutation.apply)
        pre, post = form_scales(self.form, self._f, self._sqrt_f)
        shape = (self.n, 1)
        scratch = self._scratch_pool.acquire(shape)
        try:
            out = fused_product(
                v.reshape(shape),
                self._bit_factors,
                self.variant,
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
        """Per stage: N/2 butterflies × (4 mem ops + 6 flops), ν stages,
        plus the diagonal scaling — the paper's ``Θ(N log₂ N)``.

        With ``batch > 1`` the costs describe the stage-fused batched
        kernel (:mod:`repro.transforms.batched`) applied to a
        ``(N, batch)`` block: ``⌈ν/2⌉`` radix-4 sweeps with the diagonal
        scalings folded into the ping-pong schedule, modeled by
        :func:`repro.perf.batched.batched_fmmp_costs`.
        """
        if batch < 1:
            raise ValidationError(f"batch must be >= 1, got {batch}")
        n = float(self.n)
        nu = float(self.mutation.nu)
        scale_passes = 2.0 if self.form == "symmetric" else 1.0
        if batch > 1 and self._blocks is None:
            # Lazy import: repro.perf pulls in modules that import the
            # operators package.
            from repro.perf.batched import batched_fmmp_costs

            return batched_fmmp_costs(self.mutation.nu, batch, form=self.form)
        if self._blocks is not None:
            # Σ per-group contraction cost: N * 2^{g_i} mults/adds each.
            contraction = sum(2.0 * n * (1 << b) for b in self.mutation.group_sizes)
            flops = contraction + scale_passes * n
            bytes_moved = 8.0 * (2.0 * n * len(self._blocks) + 3.0 * scale_passes * n)
            flops *= batch
            bytes_moved *= batch
        else:
            flops = 6.0 * (n / 2.0) * nu + scale_passes * n
            bytes_moved = 8.0 * (4.0 * (n / 2.0) * nu + 3.0 * scale_passes * n)
        return OperatorCosts(
            flops=flops, bytes_moved=bytes_moved, storage_bytes=8.0 * n, batch=batch
        )
