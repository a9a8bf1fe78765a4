"""Thread-scaling bench of the fused kernel → ``BENCH_parallel.json``.

Measures the stage-fused kernel at ``threads=1`` against the same
kernel with every sweep shared among ``threads=T`` participants (the
engines of :mod:`repro.transforms.parallel`), with BLAS pinned to one
thread so the engine owns all parallelism.  The points run from below
the crossover (B = 1 at ν = 14–17; B = 8 and 16 at ν = 12–14), which is
where :data:`repro.operators.batched.THREADS_MIN_ELEMENTS` comes from,
up to ν = 20.  Records wall-clock, measured speedups, the thread count
the operators' size rule runs each block on, the bytes each product
moves (:func:`repro.operators.batched.plan_costs`
of the plan it runs) and effective bandwidth, plus the host's core/BLAS
metadata, into ``BENCH_parallel.json`` at the repository root.  The
harness (:func:`measure_parallel_matmat`) lives here, next to the only
bench that records it.

**Resolution.**  Each point times two independent ``threads=1`` series
beside the threaded ones, in rotating order, and their ratio is the
point's noise band: a T = 2 or T = 4 speedup within ``1 ± band`` is
marked ``unresolved``.  Every point runs :data:`MIN_ROUNDS` rounds, and
more while its band exceeds :data:`BAND` (±10 %), up to
:data:`MAX_ROUNDS`; the test fails if a point's band stays wider, so a
record never passes off noise as scaling.

Acceptance gate: a *measured* ≥ 1.8× speedup at 4 engine threads for
ν ≥ 18.  A host with fewer than 4 cores cannot measure it; there the
JSON records the gate as ``not_measured`` with the reason and the test
is skipped — no model stands in for the measurement.

Run as part of the perf tier::

    pytest benchmarks/bench_parallel.py -m perf_parallel
"""

import json
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

import repro.operators.batched as operators_batched
from conftest import report
from repro.landscapes import SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import BatchedFmmp
from repro.perf import plan_costs
from repro.transforms import batched_butterfly_transform, fused_stage_plan, shutdown_engines
from repro.util.blas import blas_limit, blas_thread_info

GATE_THREADS = 4
GATE_SPEEDUP = 1.8
GATE_NU = 18
THREAD_COUNTS = (1, 2, 4)
#: (nu, batch) points below the crossover, where sharing sweeps between
#: threads lost to one thread, or at best tied, on the recording host, so
#: the operators' size rule must run them on the caller alone.
BELOW_CROSSOVER = (
    (14, 1), (15, 1), (16, 1), (17, 1),
    (12, 8), (13, 8), (14, 8),
    (12, 16), (13, 16),
)
#: (nu, batch) measured points: the ones below the crossover, then
#: N·B = 2^18 and up (B = 16 only at ν = 14 and 18, so the bench stays
#: well under a minute).
POINTS = BELOW_CROSSOVER + ((14, 16), (18, 1), (19, 1), (20, 1), (18, 16))
OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_parallel.json")


#: widest serial-vs-serial spread a recorded point may show
BAND = 0.10
#: rounds every point runs, and the most it may run to bring its band
#: within :data:`BAND`
MIN_ROUNDS, MAX_ROUNDS = 15, 45
#: seconds one sample times the product for (an inner loop of calls)
SAMPLE_S = 0.05


@dataclass(frozen=True)
class ParallelMeasurement:
    """One measured point: two serial series and one per thread count.

    ``serial_a`` and ``serial_b`` are the medians of two series of the
    same ``threads=1`` product; their ratio is the point's noise band.
    ``threaded`` maps each ``T > 1`` to its median.
    """

    nu: int
    batch: int
    serial_a: float
    serial_b: float
    threaded: dict
    rounds: int
    bytes_moved: float

    @property
    def serial_s(self) -> float:
        """The serial time the speedups divide: the mean of both medians."""
        return 0.5 * (self.serial_a + self.serial_b)

    @property
    def band(self) -> float:
        """``|serial_a / serial_b − 1|``: what noise alone reads as a speedup."""
        return abs(self.serial_a / self.serial_b - 1.0)

    def speedup(self, threads: int) -> float:
        """Wall-clock speedup of ``threads`` participants over serial
        (``threads=1``: serial series a over series b)."""
        if threads == 1:
            return self.serial_a / self.serial_b
        return self.serial_s / self.threaded[threads]

    def resolved(self, threads: int) -> bool:
        """Whether the speedup at ``threads`` lies outside the noise band."""
        return abs(self.speedup(threads) - 1.0) > self.band

    def to_dicts(self) -> list[dict]:
        """One JSON row per thread count of :data:`THREAD_COUNTS`."""
        rows = []
        for t in THREAD_COUNTS:
            parallel_s = self.serial_b if t == 1 else self.threaded[t]
            rows.append({
                "nu": self.nu,
                "batch": self.batch,
                "threads": t,
                "operator_threads": operator_threads(self.nu, self.batch, t),
                "serial_s": self.serial_a if t == 1 else self.serial_s,
                "parallel_s": parallel_s,
                "bytes_moved": self.bytes_moved,
                "speedup": self.speedup(t),
                "band": self.band,
                "rounds": self.rounds,
                "resolved": None if t == 1 else self.resolved(t),
                "serial_gbs": self.bytes_moved / self.serial_s / 1e9,
                "parallel_gbs": self.bytes_moved / parallel_s / 1e9,
            })
        return rows


def measure_parallel_matmat(
    nu: int,
    batch: int,
    *,
    p: float = 0.01,
) -> ParallelMeasurement:
    """Time the fused kernel at ``threads=1`` (two series) and at each
    ``T > 1`` of :data:`THREAD_COUNTS` on one block (right form: the plan
    with a shared pre-scale).

    Every round takes one sample of each series, in an order rotated by
    the round, so a load that comes and goes hits all of them alike; a
    sample times an inner loop of calls lasting about :data:`SAMPLE_S`
    (the same count for every series).  After :data:`MIN_ROUNDS` rounds,
    more are added while the serial band exceeds :data:`BAND`, up to
    :data:`MAX_ROUNDS`.  BLAS is pinned to one thread for the duration, so
    the comparison is engine scaling, not BLAS scaling.
    """
    plan = fused_stage_plan(UniformMutation(nu, p).factors_per_bit())
    n = 1 << nu
    rng = np.random.default_rng(nu)
    block = np.ascontiguousarray(rng.random((n, batch)) + 0.5)
    pre = np.ascontiguousarray(rng.random(n) + 0.5)
    out = np.empty_like(block)
    scratch = np.empty_like(block)

    def product(threads: int):
        return lambda: batched_butterfly_transform(
            block, plan, pre_scale=pre, threads=threads, out=out, scratch=scratch
        )

    runs = {"a": product(1), "b": product(1)}
    runs.update({t: product(t) for t in THREAD_COUNTS if t > 1})
    names = list(runs)
    samples: dict = {name: [] for name in names}
    with blas_limit(1):
        for run in runs.values():
            run()  # warm-up: engines started, buffers touched
        t0 = time.perf_counter()
        runs["a"]()
        inner = max(1, int(SAMPLE_S / max(time.perf_counter() - t0, 1e-9)))
        k = 0
        while k < MIN_ROUNDS or (k < MAX_ROUNDS and _band(samples) > BAND):
            shift = k % len(names)
            for name in names[shift:] + names[:shift]:
                run = runs[name]
                t0 = time.perf_counter()
                for _ in range(inner):
                    run()
                samples[name].append((time.perf_counter() - t0) / inner)
            k += 1
    return ParallelMeasurement(
        nu=nu,
        batch=batch,
        serial_a=float(np.median(samples["a"])),
        serial_b=float(np.median(samples["b"])),
        threaded={t: float(np.median(samples[t])) for t in THREAD_COUNTS if t > 1},
        rounds=k,
        bytes_moved=plan_costs(plan, n, batch, pre.shape).bytes_moved,
    )


def _band(samples: dict) -> float:
    return abs(float(np.median(samples["a"]) / np.median(samples["b"])) - 1.0)


def operator_threads(nu: int, batch: int, threads: int) -> int:
    """The participants a ``BatchedFmmp(threads=threads)`` product of an
    ``(2**nu, batch)`` block runs on, observed on the kernel call."""
    seen = []
    real = operators_batched.batched_butterfly_transform

    def spy(block, plan, **kwargs):
        seen.append(kwargs["threads"])
        return real(block, plan, **kwargs)

    op = BatchedFmmp(UniformMutation(nu, 0.01), SinglePeakLandscape(nu), threads=threads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators_batched, "batched_butterfly_transform", spy)
        op.matmat(np.ones((1 << nu, batch)))
    return seen[0]


def _host_cores() -> int:
    return os.cpu_count() or 1


@pytest.fixture(scope="module")
def measurements():
    out = {(nu, batch): measure_parallel_matmat(nu, batch) for nu, batch in POINTS}
    yield out
    shutdown_engines()


@pytest.mark.perf_parallel
def test_thread_scaling_and_record(measurements):
    cores = _host_cores()
    lines = [
        f"Fused-kernel thread scaling (host cores={cores}, BLAS pinned to 1; "
        f"T = 1 rows time serial against serial, their ratio is the point's band)",
        f"{'nu':>3} {'B':>3} {'T':>2} {'op T':>4} {'serial ms':>10} "
        f"{'parallel ms':>12} {'speedup':>8} {'band':>6} {'rounds':>6} {'GB/s':>6}  status",
    ]
    points = []
    for (nu, batch), m in sorted(measurements.items()):
        for row in m.to_dicts():
            points.append(row)
            status = "" if row["resolved"] is None else (
                "resolved" if row["resolved"] else "unresolved"
            )
            lines.append(
                f"{nu:>3} {batch:>3} {row['threads']:>2} "
                f"{row['operator_threads']:>4} {row['serial_s'] * 1e3:>10.3f} "
                f"{row['parallel_s'] * 1e3:>12.3f} {row['speedup']:>8.2f} "
                f"{'±' + format(row['band'], '.1%'):>6} {row['rounds']:>6} "
                f"{row['parallel_gbs']:>6.2f}  {status}"
            )

    if cores >= GATE_THREADS:
        gate_mode = "measured"
        gate_reason = f"host has {cores} cores >= {GATE_THREADS}"
        gate_values = {
            f"{nu},{b}": measurements[(nu, b)].speedup(GATE_THREADS)
            for (nu, b) in POINTS
            if nu >= GATE_NU
        }
    else:
        gate_mode = "not_measured"
        gate_reason = (
            f"host has only {cores} core(s) < {GATE_THREADS}: a {GATE_THREADS}-thread "
            f"speedup cannot be measured here (measured points are still recorded)"
        )
        gate_values = {}

    payload = {
        "kind": "repro.BENCH_parallel.v1",
        "host": {"cpu_count": cores, "blas": blas_thread_info()},
        "gate": {
            "threads": GATE_THREADS,
            "min_nu": GATE_NU,
            "target_speedup": GATE_SPEEDUP,
            "mode": gate_mode,
            "reason": gate_reason,
            "values": gate_values,
        },
        "band": BAND,
        "plan_bytes": {f"{nu},{b}": measurements[(nu, b)].bytes_moved for (nu, b) in POINTS},
        "points": points,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    lines.append(
        f"gate: {gate_mode} >= {GATE_SPEEDUP}x at T={GATE_THREADS} ({gate_reason})"
    )
    lines.append(f"recorded: {os.path.abspath(OUT_PATH)}")
    report("bench_parallel", "\n".join(lines))

    wide = {key: round(m.band, 3) for key, m in measurements.items() if m.band > BAND}
    assert not wide, f"serial-vs-serial band above ±{BAND:.0%} after {MAX_ROUNDS} rounds: {wide}"
    if gate_mode == "not_measured":
        pytest.skip(gate_reason)
    for key, value in gate_values.items():
        assert value >= GATE_SPEEDUP, (
            f"measured {GATE_THREADS}-thread speedup at (nu,B)=({key}) is "
            f"only {value:.2f}x (acceptance bar: {GATE_SPEEDUP}x)"
        )


@pytest.mark.perf_parallel
def test_operator_rule_keeps_small_blocks_serial(measurements):
    """The operators' size rule must run tiny transforms, and every block
    below the measured crossover, on the caller alone (threading a
    barrier-dominated sweep would only lose)."""
    for nu in (2, 4, 8):
        assert operator_threads(nu, 1, GATE_THREADS) == 1
    for nu, batch in BELOW_CROSSOVER:
        for t in THREAD_COUNTS:
            assert operator_threads(nu, batch, t) == 1, (nu, batch, t)
    assert operator_threads(GATE_NU, 1, GATE_THREADS) == GATE_THREADS


@pytest.mark.perf_parallel
def test_parallel_results_match_serial_bitwise():
    """The engine's core contract, re-checked at bench scale (ν = 18)."""
    nu, b = 18, 4
    n = 1 << nu
    rng = np.random.default_rng(7)
    block = np.ascontiguousarray(rng.random((n, b)))
    pre = rng.random(n) + 0.5
    plan = fused_stage_plan(UniformMutation(nu, 0.01).factors_per_bit())
    ref = batched_butterfly_transform(block, plan, pre_scale=pre)
    got = batched_butterfly_transform(block, plan, pre_scale=pre, threads=GATE_THREADS)
    assert np.array_equal(ref, got)
