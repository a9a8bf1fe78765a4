"""Batched Fmmp crossover bench → ``BENCH_fmmp.json``.

Measures ``B`` single-vector ``Fmmp.matvec`` products (the fused kernel
on an ``(N, 1)`` block) against one stage-fused multi-vector
``BatchedFmmp.matmat`` at ν = 18 for block widths B ∈ {4, 16, 64},
records effective bandwidths and per-vector speedups (next to the
bytes model's predictions against Algorithm 1) into ``BENCH_fmmp.json``
at the repository root, and **fails** if the B = 16 per-vector
throughput does not clear the 1.5× acceptance bar over fused B = 1.

Run it as part of the perf gate tier::

    pytest benchmarks/bench_batched.py -m perf_smoke

or with the rest of the paper-reproduction benches
(``pytest benchmarks/``).
"""

import json
import os

import pytest

from conftest import report
from repro.perf import (
    batched_fmmp_costs,
    fmmp_costs,
    measure_batched_matmat,
    modeled_crossover_batch,
    modeled_speedup,
)

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
        f"{'batched GB/s':>13} {'speedup/vec':>12} {'modeled':>8}",
    ]
    for b in BATCHES:
        m = measurements[b]
        model = modeled_speedup(NU, b)
        points.append({**m.to_dict(), "modeled_speedup": model})
        lines.append(
            f"{b:>4} {m.single_s * 1e3:>10.3f} {m.batched_s * 1e3:>11.3f} "
            f"{m.single_gbs:>12.2f} {m.batched_gbs:>13.2f} "
            f"{m.per_vector_speedup:>12.2f} {model:>8.2f}"
        )
    crossover = modeled_crossover_batch(NU, target_speedup=ACCEPT_SPEEDUP)
    payload = {
        "kind": "repro.BENCH_fmmp.v1",
        "nu": NU,
        "n": 1 << NU,
        "accept": {"batch": ACCEPT_BATCH, "per_vector_speedup": ACCEPT_SPEEDUP},
        "scalar_model_bytes": fmmp_costs(NU).bytes_moved,
        "single_model_bytes": batched_fmmp_costs(NU, 1).bytes_moved,
        "fused_model_bytes_b16": batched_fmmp_costs(NU, 16).bytes_moved,
        "modeled_crossover_batch": crossover,
        "points": points,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    lines.append(f"modeled crossover batch (>= {ACCEPT_SPEEDUP}x): {crossover}")
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
