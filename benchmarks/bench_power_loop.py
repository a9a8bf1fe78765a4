"""Power-loop split bench → ``benchmarks/out/power_loop_split.txt``.

Times one block-power sweep split into **kernel** time (the fused
``matmat``/``matvec`` product) and **loop** time (everything else the
sweep does: the shift, the 1-norm eigenvalue estimate, the
normalisation and the residual).  Two points:

* ν = 18, B = 16 — ``BlockPowerIteration`` on a per-column
  ``BatchedFmmp`` (the ``block-nu18-b16`` perfbench workload's loop);
* ν = 20, B = 1 — ``PowerIteration`` on a shifted ``Fmmp`` (the
  ``pi-fmmp-nu20`` loop).

A sweep's loop time is measured as a difference, so the start block,
the result building and the concentration conversion cancel out: the
solve runs ``SWEEPS`` and then 1 sweep (the tolerance is out of reach,
so no column deflates), the operator's product is timed inside both,
and ``loop = (Δ total − Δ kernel) / (SWEEPS − 1)``.  The median of
``REPEATS`` such pairs is reported.

The bench **fails** if the ν = 18, B = 16 loop time exceeds
``MAX_LOOP_SHARE`` of the kernel time measured in the same process.
Before the power loop's epilogue was tiled, that ratio read about 0.95.
Pin BLAS to one thread (``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1``)
when recording.

Run it as part of the perf gate tier::

    pytest benchmarks/bench_power_loop.py -m perf_smoke
"""

import os
import time

import numpy as np
import pytest

from conftest import report
from repro.landscapes import RandomLandscape
from repro.mutation import UniformMutation
from repro.operators import BatchedFmmp, Fmmp
from repro.operators.shifted import ShiftedOperator, conservative_shift
from repro.solvers import BlockPowerIteration, PowerIteration
from repro.util.blas import blas_limit, blas_thread_info

SWEEPS = 6
REPEATS = 5
MAX_LOOP_SHARE = 0.75


def _timed(fn, clock):
    def wrapped(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            clock[0] += time.perf_counter() - start

    return wrapped


def _block_point():
    nu, b = 18, 16
    mutation = UniformMutation(nu, 0.01)
    lands = [RandomLandscape(nu, c=4.0, sigma=1.0, seed=s) for s in range(b)]
    op = BatchedFmmp(mutation, lands, threads=1)
    shifts = [conservative_shift(mutation, land) for land in lands]
    clock = [0.0]
    op.matmat = _timed(op.matmat, clock)

    def solve(sweeps):
        BlockPowerIteration(op, shifts=shifts, tol=1e-300, max_iterations=sweeps).solve(
            raise_on_fail=False
        )

    return nu, b, solve, clock


def _scalar_point():
    nu = 20
    mutation = UniformMutation(nu, 0.01)
    land = RandomLandscape(nu, c=4.0, sigma=1.0, seed=0)
    base = Fmmp(mutation, land, threads=1)
    op = ShiftedOperator(base, conservative_shift(mutation, land))
    clock = [0.0]
    base.matvec = _timed(base.matvec, clock)
    start = land.start_vector()

    def solve(sweeps):
        PowerIteration(op, tol=1e-300, max_iterations=sweeps).solve(start, raise_on_fail=False)

    return nu, 1, solve, clock


def _split(point):
    """Median per-sweep ``(kernel_s, loop_s)`` of one point."""
    nu, b, solve, clock = point
    solve(1)  # warm-up
    kernel, loop = [], []
    for _ in range(REPEATS):
        totals = {}
        for sweeps in (SWEEPS, 1):
            clock[0] = 0.0
            start = time.perf_counter()
            solve(sweeps)
            totals[sweeps] = (time.perf_counter() - start, clock[0])
        (t_n, k_n), (t_1, k_1) = totals[SWEEPS], totals[1]
        kernel.append((k_n - k_1) / (SWEEPS - 1))
        loop.append(((t_n - t_1) - (k_n - k_1)) / (SWEEPS - 1))
    return nu, b, float(np.median(kernel)), float(np.median(loop))


@pytest.fixture(scope="module")
def splits():
    with blas_limit(1):
        return [_split(_block_point()), _split(_scalar_point())]


@pytest.mark.perf_smoke
def test_power_loop_split(splits):
    lines = [
        f"Power-loop split per sweep (median of {REPEATS}, {SWEEPS} vs 1 sweeps; "
        f"cpus={os.cpu_count()}, blas={blas_thread_info()['env']})",
        f"{'nu':>3} {'B':>3} {'kernel ms':>10} {'loop ms':>8} {'loop/kernel':>12}",
    ]
    for nu, b, kernel, loop in splits:
        lines.append(
            f"{nu:>3} {b:>3} {kernel * 1e3:>10.2f} {loop * 1e3:>8.2f} {loop / kernel:>12.2f}"
        )
    report("power_loop_split", "\n".join(lines))
    _, _, kernel, loop = splits[0]
    assert loop <= MAX_LOOP_SHARE * kernel, (
        f"nu=18, B=16 loop time {loop * 1e3:.1f} ms exceeds {MAX_LOOP_SHARE} x the "
        f"kernel time {kernel * 1e3:.1f} ms"
    )
