"""Batched Fmmp bench → ``BENCH_fmmp.json``.

Two measurements:

* **The bare product.**  ``B`` single-vector ``Fmmp.matvec`` products
  (the fused kernel on an ``(N, 1)`` block) against one stage-fused
  multi-vector ``BatchedFmmp.matmat`` at ν = 18 for block widths
  B ∈ {4, 16, 64}: per-vector speedups, the plan's radix cap and sweep
  count, the bytes each product moves
  (:func:`repro.operators.batched.plan_costs` of the operator's plan)
  and effective bandwidths.  Recorded, not gated: for an implicit ``Q``
  the plan moves the same bytes per vector at every ``B``, so a wider
  block has no bandwidth to win.
* **What blocks buy** (the gate).  ``execute_batched_job`` on one
  16-column ν = 14 block of shifted power jobs against ``execute_job``
  on its 16 members, in alternating rounds: a block builds ``Q`` and its
  plan once and runs one loop for all columns.  The bench **fails** if
  the median ratio (members alone over the block) is below
  :data:`BLOCK_SPEEDUP`.

Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``)
when recording: an unpinned single-vector time varies about 3× run to
run.  The harnesses (:func:`measure_batched_matmat`,
:func:`measure_block_solve`) live here, next to the only bench that
records them.

Run it as part of the perf gate tier::

    pytest benchmarks/bench_batched.py -m perf_smoke

or with the rest of the paper-reproduction benches
(``pytest benchmarks/``).
"""

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import report
from repro.landscapes import SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import BatchedFmmp, Fmmp
from repro.perf import fmmp_costs, plan_costs
from repro.service.jobspec import SolveJob
from repro.service.pool import execute_batched_job, execute_job
from repro.service.scheduler import BatchedSolveJob
from repro.transforms.batched import MAX_RADIX, fused_stage_count, fused_stage_plan
from repro.util.blas import blas_thread_info
from repro.util.timing import median_time

NU = 18
BATCHES = (4, 16, 64)
#: The block gate: one ``BLOCK_B``-column ν = ``BLOCK_NU`` block solve
#: against its members solved one by one, over ``BLOCK_ROUNDS``
#: alternating rounds (recorded in ``BENCH_fmmp.json``).  The bar sits
#: below every median measured on the recording host (1.13–1.37×).
BLOCK_NU = 14
BLOCK_B = 16
BLOCK_ROUNDS = 7
BLOCK_SPEEDUP = 1.05
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


def block_jobs() -> BatchedSolveJob:
    """One block of ``BLOCK_B`` shifted power jobs sharing ``Q`` (random
    landscapes, the service's batched route)."""
    jobs = tuple(
        SolveJob(
            nu=BLOCK_NU, p=0.01, landscape="random", seed=s, method="power", shift=True, tol=1e-10
        )
        for s in range(BLOCK_B)
    )
    return BatchedSolveJob(
        key=jobs[0].operator_key(), form=jobs[0].form, indices=tuple(range(BLOCK_B)), jobs=jobs
    )


def measure_block_solve(bjob: BatchedSolveJob, rounds: int) -> list[tuple[float, float]]:
    """``(block_s, members_s)`` per round: ``execute_batched_job`` on the
    block and ``execute_job`` on each member in turn, the order
    alternating round by round, BLAS pinned by the caller.  An untimed
    first run of both checks that every member alone gives the block's
    eigenvalue, bitwise."""
    block = execute_batched_job(bjob)
    for job, res in zip(bjob.jobs, block):
        assert execute_job(job).eigenvalue == res.eigenvalue
    runs = {
        "block": lambda: execute_batched_job(bjob),
        "members": lambda: [execute_job(job) for job in bjob.jobs],
    }
    out = []
    for k in range(rounds):
        times = {}
        for name in ("block", "members")[:: 1 if k % 2 == 0 else -1]:
            t0 = time.perf_counter()
            runs[name]()
            times[name] = time.perf_counter() - t0
        out.append((times["block"], times["members"]))
    return out


@pytest.fixture(scope="module")
def measurements():
    return {
        b: measure_batched_matmat(NU, b, repeats=5, min_time=0.02) for b in BATCHES
    }


@pytest.fixture(scope="module")
def block_rounds():
    return measure_block_solve(block_jobs(), BLOCK_ROUNDS)


def _block_speedup(rounds) -> float:
    return float(np.median([members / block for block, members in rounds]))


@pytest.mark.perf_smoke
def test_batched_crossover_and_record(measurements, block_rounds):
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
        "block_solve": {
            "nu": BLOCK_NU,
            "batch": BLOCK_B,
            "rounds": [{"block_s": b, "members_s": m} for b, m in block_rounds],
            "speedup": _block_speedup(block_rounds),
            "min_speedup": BLOCK_SPEEDUP,
        },
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
    lines.append(
        f"Block solve, nu={BLOCK_NU}, B={BLOCK_B}: "
        + ", ".join(f"{m:.3f}/{b:.3f} s" for b, m in block_rounds)
        + f" (members alone/block); median {_block_speedup(block_rounds):.2f}x"
    )
    lines.append(f"recorded: {os.path.abspath(OUT_PATH)}")
    report("bench_batched", "\n".join(lines))


@pytest.mark.perf_smoke
def test_block_solve_beats_its_members_alone(block_rounds):
    """What blocks buy: one build of ``Q`` and its plan and one loop for
    all columns, instead of one per job."""
    speedup = _block_speedup(block_rounds)
    assert speedup >= BLOCK_SPEEDUP, (
        f"a {BLOCK_B}-column nu={BLOCK_NU} block solve is only {speedup:.2f}x "
        f"its members solved alone (acceptance bar: {BLOCK_SPEEDUP}x)"
    )


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
