"""Measured crossover bench for the batched Fmmp kernel.

The stage-fused kernel (:mod:`repro.transforms.batched`) runs
``⌈ν/2⌉`` radix-4 ``matmul`` sweeps over an ``(N, B)`` block — one read
stream and one write stream each — with the diagonal ``F`` scalings
folded into the ping-pong schedule.  ``Fmmp.matvec`` is its ``B = 1``
case.  :func:`measure_batched_matmat` and :func:`measured_crossover`
time one fused ``B``-column product against ``B`` fused single-vector
products (``Fmmp.matvec``) and report effective bandwidth from the
bytes :func:`repro.operators.batched.plan_costs` counts on each
operator's own plan — ``benchmarks/bench_batched.py`` records them into
``BENCH_fmmp.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.singlepeak import SinglePeakLandscape
from repro.mutation.uniform import UniformMutation
from repro.operators.batched import BatchedFmmp
from repro.operators.fmmp import Fmmp
from repro.util.timing import TimingResult, median_time

__all__ = [
    "BatchedMeasurement",
    "measure_batched_matmat",
    "measured_crossover",
]


def _check_nu(nu: int) -> int:
    if not isinstance(nu, int) or nu < 1:
        raise ValidationError(f"nu must be a positive integer, got {nu!r}")
    return nu


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
    single_bytes, batched_bytes:
        Bytes one single-vector / one block product moves:
        :func:`~repro.operators.batched.plan_costs` of the operator's own
        plan.
    """

    nu: int
    batch: int
    single_s: float
    batched_s: float
    single_bytes: float
    batched_bytes: float

    @property
    def per_vector_speedup(self) -> float:
        """Single-vector time over batched time per vector."""
        return self.single_s / (self.batched_s / self.batch)

    @property
    def single_gbs(self) -> float:
        """Effective single-vector bandwidth (plan bytes / measured s)."""
        return self.single_bytes / self.single_s / 1e9

    @property
    def batched_gbs(self) -> float:
        """Effective fused bandwidth (plan bytes / measured s)."""
        return self.batched_bytes / self.batched_s / 1e9

    def to_dict(self) -> dict:
        return {
            "nu": self.nu,
            "batch": self.batch,
            "single_s": self.single_s,
            "batched_s": self.batched_s,
            "single_bytes": self.single_bytes,
            "batched_bytes": self.batched_bytes,
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
        nu=nu,
        batch=batch,
        single_s=single.median,
        batched_s=batched.median,
        single_bytes=scalar_op.costs().bytes_moved,
        batched_bytes=batched_op.costs(batch=batch).bytes_moved,
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
