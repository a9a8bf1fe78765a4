"""Batched Fmmp crossover bench → ``BENCH_fmmp.json``.

Measures ``B`` single-vector ``Fmmp.matvec`` products (the fused kernel
on an ``(N, 1)`` block) against one stage-fused multi-vector
``BatchedFmmp.matmat`` at ν = 18 for block widths B ∈ {4, 16, 64},
records per-vector speedups, the plan's radix cap and sweep count, the
bytes each product moves
(:func:`repro.operators.batched.plan_costs` of the operator's plan) and
effective bandwidths into ``BENCH_fmmp.json`` at the repository root,
and **fails** if the B = 16 per-vector throughput does not clear the
1.5× acceptance bar over fused B = 1.  Pin BLAS to one thread
(``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``) when recording: an
unpinned single-vector time varies about 3× run to run.

The harness (:func:`measure_batched_matmat`) lives here, next to the
only bench that records it.

Run it as part of the perf gate tier::

    pytest benchmarks/bench_batched.py -m perf_smoke

or with the rest of the paper-reproduction benches
(``pytest benchmarks/``).
"""

import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import report
from repro.landscapes import SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import BatchedFmmp, Fmmp
from repro.perf import fmmp_costs, plan_costs
from repro.transforms.batched import MAX_RADIX, fused_stage_count, fused_stage_plan
from repro.util.blas import blas_thread_info
from repro.util.timing import median_time

NU = 18
BATCHES = (4, 16, 64)
ACCEPT_BATCH = 16
ACCEPT_SPEEDUP = 1.5
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_fmmp.json")


@dataclass(frozen=True)
class BatchedMeasurement:
    """One measured single-vs-batched comparison point.

    ``single_s`` is the median wall-clock of one ``Fmmp.matvec`` (the
    fused kernel on one column), ``batched_s`` that of one fused
    ``matmat`` over the whole block; ``single_bytes``/``batched_bytes``
    are :func:`~repro.operators.batched.plan_costs` of each operator's
    own plan.
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
        return self.single_bytes / self.single_s / 1e9

    @property
    def batched_gbs(self) -> float:
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
    nu: int, batch: int, *, p: float = 0.01, repeats: int = 3, min_time: float = 0.01
) -> BatchedMeasurement:
    """Time ``Fmmp.matvec`` against ``BatchedFmmp.matmat`` (right form,
    uniform mutation, single-peak landscape, random positive columns)."""
    mutation = UniformMutation(nu, p)
    landscape = SinglePeakLandscape(nu)
    scalar_op = Fmmp(mutation, landscape)
    batched_op = BatchedFmmp(mutation, landscape)
    rng = np.random.default_rng(nu)
    v = rng.random(scalar_op.n) + 0.5
    block = np.ascontiguousarray(rng.random((scalar_op.n, batch)) + 0.5)
    out = np.empty_like(block)
    scratch = np.empty_like(block)
    single = median_time(lambda: scalar_op.matvec(v), repeats=repeats, min_time=min_time)
    batched = median_time(
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


@pytest.fixture(scope="module")
def measurements():
    return {
        b: measure_batched_matmat(NU, b, repeats=5, min_time=0.02) for b in BATCHES
    }


@pytest.mark.perf_smoke
def test_batched_crossover_and_record(measurements):
    points = []
    lines = [
        f"Batched Fmmp crossover, nu={NU} (N={1 << NU})",
        f"{'B':>4} {'single ms':>10} {'batched ms':>11} {'single GB/s':>12} "
        f"{'batched GB/s':>13} {'speedup/vec':>12}",
    ]
    for b in BATCHES:
        m = measurements[b]
        points.append(m.to_dict())
        lines.append(
            f"{b:>4} {m.single_s * 1e3:>10.3f} {m.batched_s * 1e3:>11.3f} "
            f"{m.single_gbs:>12.2f} {m.batched_gbs:>13.2f} "
            f"{m.per_vector_speedup:>12.2f}"
        )
    payload = {
        "kind": "repro.BENCH_fmmp.v1",
        "nu": NU,
        "n": 1 << NU,
        "accept": {"batch": ACCEPT_BATCH, "per_vector_speedup": ACCEPT_SPEEDUP},
        "host": {"cpu_count": os.cpu_count(), "blas": blas_thread_info()},
        "max_radix": MAX_RADIX,
        "sweeps": fused_stage_count(NU),
        "paper_plan_bytes": fmmp_costs(NU).bytes_moved,
        "plan_bytes": {
            "1": measurements[BATCHES[0]].single_bytes,
            **{str(b): measurements[b].batched_bytes for b in BATCHES},
        },
        "points": points,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    lines.append(f"recorded: {os.path.abspath(OUT_PATH)}")
    report("bench_batched", "\n".join(lines))

    accept = measurements[ACCEPT_BATCH]
    assert accept.per_vector_speedup >= ACCEPT_SPEEDUP, (
        f"batched B={ACCEPT_BATCH} per-vector throughput is only "
        f"{accept.per_vector_speedup:.2f}x fused B=1 at nu={NU} "
        f"(acceptance bar: {ACCEPT_SPEEDUP}x)"
    )


@pytest.mark.perf_smoke
def test_speedup_grows_with_batch(measurements):
    """Wider blocks amortize the scale passes better — the measured
    series should not collapse as B grows."""
    s = [measurements[b].per_vector_speedup for b in BATCHES]
    assert s[-1] >= 1.0  # B=64 must beat fused B=1 outright


@pytest.mark.perf_smoke
def test_measure_small_problem():
    """The harness itself, on a tiny block: positive times, and bytes
    that are ``plan_costs`` of the operator's plan."""
    m = measure_batched_matmat(6, 4, repeats=1, min_time=1e-4)
    assert isinstance(m, BatchedMeasurement)
    assert m.single_s > 0.0 and m.batched_s > 0.0
    assert np.isfinite(m.per_vector_speedup)
    d = m.to_dict()
    assert d["nu"] == 6 and d["batch"] == 4
    assert d["per_vector_speedup"] == pytest.approx(m.per_vector_speedup)
    assert d["single_gbs"] > 0.0 and d["batched_gbs"] > 0.0
    n = 1 << 6
    plan = fused_stage_plan(UniformMutation(6, 0.01).factors_per_bit())
    assert m.single_bytes == plan_costs(plan, n, 1, (n,)).bytes_moved
    assert m.batched_bytes == plan_costs(plan, n, 4, (n,)).bytes_moved
