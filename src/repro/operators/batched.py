"""``BatchedFmmp`` — the one butterfly operator (Sec. 2, Algorithms 1–2).

``W·V = form(Q, F)·V`` for an ``(N, B)`` block ``V``, exact, in
``Θ(N log₂ N)`` per column and with no matrix storage: the Kronecker
factorization of ``Q`` is one fused stage plan (:func:`mutation_plan`),
built once at construction and run by
:func:`repro.transforms.batched.batched_butterfly_transform` — with
``threads > 1`` on that many participants, with the same bits — with the
``F`` / ``F^{1/2}`` scalings of the forms (Eqs. 3–5) folded in as pre-
and post-scales.

Every butterfly product is a case of this class:

* **per-column landscapes** — a sequence of ``B`` landscapes; column
  ``j`` of :meth:`BatchedFmmp.matmat` is ``W_j · v_j`` with
  ``W_j = form(Q, F_j)``.  The service scheduler groups jobs by
  mutation operator ``Q``, so a group's jobs share the butterfly and
  differ only in the diagonal; this is what
  :class:`~repro.solvers.power.BlockPowerIteration` and the batched jobs
  run;
* **shared landscape** — one landscape for every column;
  :class:`~repro.operators.fmmp.Fmmp` is this case, its ``matvec`` the
  one-column ``matmat``;
* **transposed** — :class:`~repro.solvers.left_eigen.TransposedFmmp` is
  the shared case with the plan of ``Qᵀ`` and the adjoint form's scales.

The power loop drives every case through :meth:`~BatchedFmmp.matmat`
on its own blocks (``out=``, ``scratch=``).

The module also holds the one plan builder :func:`mutation_plan` (2×2
factors or the group blocks of Eq. 11, optionally transposed) and the
one cost function :func:`plan_costs`, which counts bytes and flops from
the same :class:`~repro.transforms.batched.FusedStage` list the kernel
runs.  The paper's stage-by-stage model
(:func:`repro.perf.costs.fmmp_costs`) and the distributed model
(:class:`repro.distributed.fmmp.DistributedFmmp`) cost the radix-2 plan.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.mutation.grouped import GroupedMutation
from repro.mutation.persite import PerSiteMutation
from repro.mutation.uniform import UniformMutation
from repro.operators.base import FORMS, ImplicitOperator, OperatorCosts
from repro.transforms.batched import (
    FusedStage,
    batched_butterfly_transform,
    fused_stage_plan,
    grouped_stage_plan,
)
from repro.transforms.parallel import resolve_threads

__all__ = ["BatchedFmmp", "mutation_plan", "plan_costs"]

#: Smallest block (``N·B`` doubles) whose products :meth:`BatchedFmmp.matmat`
#: shares among its ``threads``; below it the per-sweep barriers cost more
#: than the threads save.  Measured with ``benchmarks/bench_parallel.py``
#: (2 cores, BLAS pinned, alternating rounds): two threads lost at
#: 2^14–2^16 (0.15–0.65×), at best broke even at 2^17 (0.82–1.07×) and won
#: from 2^18 (1.22–1.42×).
THREADS_MIN_ELEMENTS = 1 << 18

#: ``(Q·F)ᵀ = F·Qᵀ`` and ``(F·Q)ᵀ = Qᵀ·F``: transposing swaps the side the
#: right and left forms scale on; the symmetric form keeps both.
_ADJOINT_FORM = {"right": "left", "symmetric": "symmetric", "left": "right"}


def form_scales(form: str, f, sqrt_f):
    """``(pre, post)`` diagonal scales of ``W = form(Q, F)`` (Eqs. 3–5)."""
    if form == "right":
        return f, None
    if form == "symmetric":
        return sqrt_f, sqrt_f
    return None, f  # left


def mutation_plan(
    mutation: MutationModel, variant: str = "eq9", *, transpose: bool = False
) -> list[FusedStage]:
    """The fused plan of ``Q`` (of ``Qᵀ = ⊗ M_iᵀ`` with ``transpose=True``):
    :func:`~repro.transforms.batched.fused_stage_plan` of the per-bit 2×2
    factors, or :func:`~repro.transforms.batched.grouped_stage_plan` of the
    group blocks (Eq. 11).  Any other model raises, naming its type."""
    if isinstance(mutation, (UniformMutation, PerSiteMutation)):
        factors = mutation.factors_per_bit()
        build = fused_stage_plan
    elif isinstance(mutation, GroupedMutation):
        factors = mutation.blocks()
        build = grouped_stage_plan
    else:
        raise ValidationError(
            f"no butterfly plan for mutation model {type(mutation).__name__}"
        )
    return build([f.T for f in factors] if transpose else factors, variant=variant)


def plan_costs(
    plan: Sequence[FusedStage],
    n: int,
    batch: int = 1,
    pre: tuple[int, ...] | None = None,
    post: tuple[int, ...] | None = None,
) -> OperatorCosts:
    """Bytes and flops of one fused product, counted from its plan.

    The kernel is bandwidth-bound (the paper's Sec. 4 premise), so these
    counts are its performance model.  Every sweep of ``plan`` reads and
    writes the ``(n, batch)`` block once (``16·n·batch`` bytes) and
    spends ``2r − 1`` flops per element (``r`` multiplies and ``r − 1``
    adds, ``r`` the stage's radix).  ``pre`` and ``post`` are the shapes
    of the diagonal scales (``None`` when absent): ``(n,)`` shared by all
    columns or ``(n, batch)`` per column.  A scale rides on the first or
    last sweep's chunks, so it costs only its own read plus one flop per
    element.  ``storage_bytes`` is the larger scale.
    """
    if batch < 1:
        raise ValidationError(f"batch must be >= 1, got {batch}")
    nb = float(n) * batch
    bytes_moved = flops = 0.0
    for stage in plan:
        bytes_moved += 16.0 * nb
        flops += (2.0 * stage.radix - 1.0) * nb
    sizes = []
    for name, shape in (("pre", pre), ("post", post)):
        if shape is None:
            continue
        if tuple(shape) not in ((n,), (n, batch)):
            raise ValidationError(
                f"{name} scale must have shape ({n},) or ({n}, {batch}), got {shape}"
            )
        sizes.append(math.prod(shape))
        bytes_moved += 8.0 * sizes[-1]
        flops += nb
    return OperatorCosts(
        flops=flops,
        bytes_moved=bytes_moved,
        storage_bytes=8.0 * max(sizes, default=0),
        batch=batch,
    )


class BatchedFmmp(ImplicitOperator):
    """Stage-fused multi-vector ``W``-product sharing one butterfly stream.

    Parameters
    ----------
    mutation:
        The shared mutation model ``Q``: uniform, per-site or grouped;
        any other model raises :class:`~repro.exceptions.ValidationError`.
    landscapes:
        Either a single :class:`FitnessLandscape` (shared by every
        column) or a sequence of ``B`` landscapes (one per column).
    form:
        ``right``/``symmetric``/``left`` (Eqs. 3–5), applied per column.
    variant:
        Stage traversal order, ``"eq9"`` (ascending spans, Algorithm 1)
        or ``"eq10"`` (descending spans); the fused plan is built in that
        order once, here.
    threads:
        Participants of each product (``None`` reads
        ``REPRO_NUM_THREADS``, default 1).  :meth:`matmat` shares every
        sweep of a block of ``N·B >= THREADS_MIN_ELEMENTS`` doubles among
        ``threads`` participants and runs smaller blocks on the caller
        alone; the output is bit-identical to the serial kernel, so
        ``threads`` changes only wall time.

    Examples
    --------
    >>> from repro.mutation import UniformMutation
    >>> from repro.landscapes import SinglePeakLandscape
    >>> op = BatchedFmmp(UniformMutation(6, 0.01), SinglePeakLandscape(6))
    >>> import numpy as np
    >>> op.matmat(np.ones((64, 3))).shape
    (64, 3)
    """

    #: Run ``Wᵀ``: the plan of ``Qᵀ`` and the adjoint form's scales.
    _transpose = False

    def __init__(
        self,
        mutation: MutationModel,
        landscapes: FitnessLandscape | Sequence[FitnessLandscape],
        form: str = "right",
        variant: str = "eq9",
        *,
        threads: int | None = None,
    ):
        if form not in FORMS:
            raise ValidationError(f"form must be one of {FORMS}, got {form!r}")
        self.mutation = mutation
        self.form = form
        self.variant = variant
        self.n = mutation.n

        if isinstance(landscapes, FitnessLandscape):
            if landscapes.nu != mutation.nu:
                raise ValidationError(
                    f"landscape (nu={landscapes.nu}) disagrees with "
                    f"mutation (nu={mutation.nu})"
                )
            self.per_column = False
            self.landscapes: tuple[FitnessLandscape, ...] = (landscapes,)
            self._f = np.ascontiguousarray(landscapes.values(), dtype=np.float64)
        else:
            lands = tuple(landscapes)
            if not lands:
                raise ValidationError("BatchedFmmp needs at least one landscape")
            for j, land in enumerate(lands):
                if land.nu != mutation.nu:
                    raise ValidationError(
                        f"landscapes[{j}] (nu={land.nu}) disagrees with "
                        f"mutation (nu={mutation.nu})"
                    )
            self.per_column = True
            self.landscapes = lands
            # (N, B): column j is F_j, contiguous for the fused kernel.
            self._f = np.ascontiguousarray(
                np.stack([land.values() for land in lands], axis=1), dtype=np.float64
            )
        self._sqrt_f = np.sqrt(self._f) if form == "symmetric" else None
        self._scale_form = _ADJOINT_FORM[form] if self._transpose else form
        # (columns, F[:, columns], √F[:, columns]) of the last selection
        self._gathered = None

        self.threads = resolve_threads(threads)
        self._plan = mutation_plan(mutation, variant, transpose=self._transpose)

    # --------------------------------------------------------------- state
    @property
    def batch(self) -> int:
        """Number of landscape columns (1 in shared mode)."""
        return len(self.landscapes)

    @property
    def is_symmetric(self) -> bool:
        return self.form == "symmetric" and self.mutation.is_symmetric

    # -------------------------------------------------------------- scales
    def _scales(self, columns: Sequence[int] | None):
        """Pre/post diagonal scales for the requested columns.

        Returns ``(pre, post)`` with shapes ``(N,)`` (shared mode) or
        ``(N, B')`` (per-column mode, ``B'`` selected columns), per the
        form table of :mod:`repro.operators.base`.  The last selection's
        gathered columns are kept and reused while ``columns`` repeats, as
        it does on every sweep of a deflated block power iteration.
        """
        f, sf = self._f, self._sqrt_f
        if self.per_column and columns is not None:
            idx = np.asarray(columns, dtype=np.intp)
            gathered = self._gathered
            if gathered is None or not np.array_equal(gathered[0], idx):
                self._gathered = None  # free the old selection before gathering
                gathered = (
                    idx.copy(),
                    np.ascontiguousarray(f[:, idx]),
                    np.ascontiguousarray(sf[:, idx]) if sf is not None else None,
                )
                self._gathered = gathered
            _, f, sf = gathered
        return form_scales(self._scale_form, f, sf)

    def _check_columns(self, b: int, columns: Sequence[int] | None) -> None:
        if not self.per_column:
            if columns is not None:
                raise ValidationError(
                    "columns only applies to a per-column BatchedFmmp"
                )
            return
        expected = len(columns) if columns is not None else self.batch
        if b != expected:
            raise ValidationError(
                f"block has {b} columns but {expected} landscape columns "
                "were selected"
            )

    # ------------------------------------------------------------- product
    def matmat(
        self,
        block: np.ndarray,
        *,
        columns: Sequence[int] | None = None,
        out: np.ndarray | None = None,
        scratch: np.ndarray | None = None,
    ) -> np.ndarray:
        """``(N, B)`` block product; column ``j`` is ``W_j · block[:, j]``.

        Parameters
        ----------
        block:
            ``(N, B)`` input block (never mutated).
        columns:
            In per-column mode, the landscape indices backing the block's
            columns (defaults to all, in order).  Used by the block power
            iteration to keep driving the *active* columns after
            deflation.
        out, scratch:
            Optional reusable ``(N, B)`` float64 C-contiguous buffers,
            forwarded to the fused kernel.
        """
        arr = np.asarray(block)
        if arr.ndim != 2:
            raise ValidationError(f"matmat expects a 2-D (N, B) block, got shape {arr.shape}")
        if arr.shape[0] != self.n:
            raise ValidationError(f"matmat block must have {self.n} rows, got {arr.shape[0]}")
        b = arr.shape[1]
        self._check_columns(b, columns)
        if b == 0:
            return np.empty((self.n, 0), dtype=np.float64)
        pre, post = self._scales(columns)
        return batched_butterfly_transform(
            arr,
            self._plan,
            pre_scale=pre,
            post_scale=post,
            out=out,
            scratch=scratch,
            threads=self.threads if self.n * b >= THREADS_MIN_ELEMENTS else 1,
        )

    def matvec(self, v: np.ndarray, *, column: int = 0) -> np.ndarray:
        """Single-column product ``W_column · v`` (oracle convenience)."""
        v = self.check(v)
        if self.per_column:
            cols: Sequence[int] | None = (column,)
        else:
            if column != 0:
                raise ValidationError("shared-landscape BatchedFmmp has a single column 0")
            cols = None
        return self.matmat(v.reshape(self.n, 1), columns=cols).reshape(self.n)

    # --------------------------------------------------------------- costs
    def costs(self, *, batch: int | None = None) -> OperatorCosts:
        """Costs of one ``(N, batch)`` product (defaults to this
        operator's own column count): :func:`plan_costs` of its fused
        plan (``⌈ν/3⌉`` radix ≤ 8 sweeps, or one sweep per group block,
        plus the form's diagonal passes).  The paper's stage-by-stage
        count is :func:`repro.perf.costs.fmmp_costs`."""
        b = self.batch if batch is None else batch
        shape = (self.n, b) if self.per_column else (self.n,)
        return plan_costs(self._plan, self.n, b, *form_scales(self._scale_form, shape, shape))
