"""Roofline cost model + crossover bench for the batched Fmmp kernel.

The stage-fused kernel (:mod:`repro.transforms.batched`) runs
``⌈ν/2⌉`` radix-4 ``matmul`` sweeps over an ``(N, B)`` block — one read
stream and one write stream each — with the diagonal ``F`` scalings
folded into the ping-pong schedule.  ``Fmmp.matvec`` is its ``B = 1``
case.  The kernel is bandwidth-bound (the paper's Sec. 4 premise), so
the B-dependent *bytes-moved* model below is its performance model:

======================= ==========================================
path                    bytes moved for B vectors
======================= ==========================================
Algorithm 1 × B         ``B · 8 · (4·(N/2)·ν + 3·s·N)``
fused (radix-4)         ``16·N·B·⌈ν/2⌉ + pre/post passes``
======================= ==========================================

(``s`` = diagonal scale passes of the form.)  :func:`modeled_speedup`
is the per-vector ratio of the two — the fused plan against the paper's
stage-by-stage model (:func:`repro.perf.costs.fmmp_costs`).  The
measured counterpart (:func:`measure_batched_matmat`,
:func:`measured_crossover`) times one fused ``B``-column product against
``B`` fused single-vector products (``Fmmp.matvec``) —
``benchmarks/bench_batched.py`` records both into ``BENCH_fmmp.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.operators.base import OperatorCosts
from repro.perf.costs import fmmp_costs
from repro.util.timing import TimingResult, median_time

__all__ = [
    "batched_fmmp_costs",
    "modeled_speedup",
    "modeled_crossover_batch",
    "BatchedMeasurement",
    "measure_batched_matmat",
    "measured_crossover",
]


def _check_nu(nu: int) -> int:
    if not isinstance(nu, int) or nu < 1:
        raise ValidationError(f"nu must be a positive integer, got {nu!r}")
    return nu


def _form_passes(form: str) -> tuple[bool, bool]:
    """(pre_scale present, post_scale present) per Eqs. 3–5."""
    if form == "right":
        return True, False
    if form == "symmetric":
        return True, True
    if form == "left":
        return False, True
    raise ValidationError(f"form must be 'right'/'symmetric'/'left', got {form!r}")


def batched_fmmp_costs(
    nu: int,
    batch: int,
    *,
    form: str = "right",
    radix4: bool = True,
) -> OperatorCosts:
    """Costs of one fused ``(N, batch)`` Fmmp product.

    Models the exact sweep schedule of
    :func:`repro.transforms.batched.batched_butterfly_transform`:

    * ``⌊ν/2⌋`` radix-4 sweeps (+1 radix-2 sweep if ν is odd); each
      sweep reads and writes the whole block once (``16·N·B`` bytes) and
      spends ``2r−1`` flops per element (r = radix);
    * a pre-scale pass (read block + read diagonal + write block) when
      the form needs a leading ``F``/``F^{1/2}`` multiply;
    * a post-scale epilogue (read + read diagonal + write, in place on
      the output block) when it needs a trailing one.

    With ``batch=1`` this describes ``Fmmp.matvec``, which runs the
    same fused kernel on an ``(N, 1)`` block; the paper's stage-by-stage
    model is :func:`repro.perf.costs.fmmp_costs`.
    """
    nu = _check_nu(nu)
    if not isinstance(batch, int) or batch < 1:
        raise ValidationError(f"batch must be a positive integer, got {batch!r}")
    pre, post = _form_passes(form)
    n = float(1 << nu)
    b = float(batch)
    nb = n * b
    if radix4:
        r4, r2 = nu // 2, nu % 2
    else:
        r4, r2 = 0, nu
    sweeps = r4 + r2
    # Fused butterfly sweeps: one read + one write stream per sweep.
    bytes_moved = 16.0 * nb * sweeps
    flops = nb * (7.0 * r4 + 3.0 * r2)
    # Diagonal scale passes (the diagonal itself is (N,) or (N, B); we
    # model the shared (N,) read — the per-column case adds 8·N·(B−1)
    # per pass, a lower-order term for B ≪ N).
    for present in (pre, post):
        if present:
            bytes_moved += 8.0 * (2.0 * nb + n)
            flops += nb
    return OperatorCosts(
        flops=flops,
        bytes_moved=bytes_moved,
        storage_bytes=8.0 * n,
        batch=batch,
    )


def modeled_speedup(
    nu: int,
    batch: int,
    *,
    form: str = "right",
    radix4: bool = True,
) -> float:
    """Modeled per-vector speedup of the fused kernel over Algorithm 1.

    Both are memory-bound, so the speedup is the ratio of per-vector
    *bytes moved*: the paper's stage-by-stage model
    (:func:`~repro.perf.costs.fmmp_costs`) over the fused model's
    amortized column cost.
    """
    pre, post = _form_passes(form)
    scale_passes = 2.0 if (pre and post) else 1.0
    scalar = fmmp_costs(nu, scale_passes=scale_passes)
    fused = batched_fmmp_costs(nu, batch, form=form, radix4=radix4)
    return scalar.bytes_moved / fused.per_vector().bytes_moved


def modeled_crossover_batch(
    nu: int,
    *,
    form: str = "right",
    target_speedup: float = 1.5,
    max_batch: int = 1024,
) -> int | None:
    """Smallest ``B`` whose modeled per-vector speedup reaches the target.

    Returns ``None`` if even ``max_batch`` columns cannot amortize the
    fixed scale-pass traffic to the target — in that regime the service
    should stay on the scalar route.
    """
    nu = _check_nu(nu)
    if target_speedup <= 0.0:
        raise ValidationError(f"target_speedup must be > 0, got {target_speedup}")
    b = 1
    while b <= max_batch:
        if modeled_speedup(nu, b, form=form) >= target_speedup:
            return b
        b *= 2
    return None


# --------------------------------------------------------------- measured
@dataclass(frozen=True)
class BatchedMeasurement:
    """One measured single-vs-batched comparison point.

    Attributes
    ----------
    nu, batch:
        Problem size and block width.
    single_s:
        Median wall-clock of one ``Fmmp.matvec`` — the fused kernel on
        one column — so ``batch`` products cost ``batch · single_s``.
    batched_s:
        Median wall-clock of one fused ``matmat`` over the whole block.
    """

    nu: int
    batch: int
    single_s: float
    batched_s: float

    @property
    def per_vector_speedup(self) -> float:
        """Single-vector time over batched time per vector."""
        return self.single_s / (self.batched_s / self.batch)

    @property
    def single_gbs(self) -> float:
        """Effective single-vector bandwidth (fused B=1 model bytes /
        measured s)."""
        return batched_fmmp_costs(self.nu, 1).bytes_moved / self.single_s / 1e9

    @property
    def batched_gbs(self) -> float:
        """Effective fused bandwidth (fused model bytes / measured s)."""
        costs = batched_fmmp_costs(self.nu, self.batch)
        return costs.bytes_moved / self.batched_s / 1e9

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "batch": self.batch,
            "single_s": self.single_s,
            "batched_s": self.batched_s,
            "per_vector_speedup": self.per_vector_speedup,
            "single_gbs": self.single_gbs,
            "batched_gbs": self.batched_gbs,
        }


def measure_batched_matmat(
    nu: int,
    batch: int,
    *,
    form: str = "right",
    p: float = 0.01,
    repeats: int = 3,
    min_time: float = 0.01,
) -> BatchedMeasurement:
    """Time single-vector ``Fmmp.matvec`` vs ``BatchedFmmp.matmat``.

    Uses a uniform mutation model and a single-peak landscape (the
    bench's canonical workload); the block columns are independent
    random vectors.
    """
    # Local imports: repro.operators lazily imports this module from
    # Fmmp.costs, so keep the reverse edge out of import time.
    from repro.landscapes.singlepeak import SinglePeakLandscape
    from repro.mutation.uniform import UniformMutation
    from repro.operators.batched import BatchedFmmp
    from repro.operators.fmmp import Fmmp

    nu = _check_nu(nu)
    mutation = UniformMutation(nu, p)
    landscape = SinglePeakLandscape(nu)
    scalar_op = Fmmp(mutation, landscape, form=form)
    batched_op = BatchedFmmp(mutation, landscape, form=form)
    rng = np.random.default_rng(nu)
    v = rng.random(scalar_op.n) + 0.5
    block = np.ascontiguousarray(rng.random((scalar_op.n, batch)) + 0.5)
    out = np.empty_like(block)
    scratch = np.empty_like(block)

    single: TimingResult = median_time(
        lambda: scalar_op.matvec(v), repeats=repeats, min_time=min_time
    )
    batched: TimingResult = median_time(
        lambda: batched_op.matmat(block, out=out, scratch=scratch),
        repeats=repeats,
        min_time=min_time,
    )
    return BatchedMeasurement(
        nu=nu, batch=batch, single_s=single.median, batched_s=batched.median
    )


def measured_crossover(
    nu: int,
    batches: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    *,
    form: str = "right",
    repeats: int = 3,
    min_time: float = 0.01,
) -> list[BatchedMeasurement]:
    """Measured single-vs-batched series over block widths.

    The crossover point is the first ``batch`` whose
    :attr:`~BatchedMeasurement.per_vector_speedup` exceeds 1 — the
    figure ``benchmarks/bench_batched.py`` records.
    """
    return [
        measure_batched_matmat(
            nu, b, form=form, repeats=repeats, min_time=min_time
        )
        for b in batches
    ]
