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

Run it as part of the perf gate tier::

    pytest benchmarks/bench_batched.py -m perf_smoke

or with the rest of the paper-reproduction benches
(``pytest benchmarks/``).
"""

import json
import os

import pytest

from conftest import report
from repro.perf import fmmp_costs, measure_batched_matmat
from repro.transforms.batched import MAX_RADIX, fused_stage_count
from repro.util.blas import blas_thread_info

NU = 18
BATCHES = (4, 16, 64)
ACCEPT_BATCH = 16
ACCEPT_SPEEDUP = 1.5
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_fmmp.json")


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
