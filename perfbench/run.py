"""End-to-end benchmark of the quasispecies solver, with a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pi-fmmp-nu20 --seed 1 --seconds 30 --trace 0

It builds the workload's inputs from ``--seed``, sets up several times,
then runs operations (each followed by its warm repeat and an output
check outside the timed region) until ``--seconds`` have passed.  With
``--trace 0`` it reports the end-to-end metrics, timed with no tracer
installed; with ``--trace 1`` it installs the layer tracer, alternates
untraced and traced operations, and reports the per-layer metrics and
the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object.  The exit code is 0 only when
every operation passed its checks.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

import hostinfo

# BLAS reads its thread count when numpy loads, so pin it first.
for _var in hostinfo.BLAS_ENV_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: the modules a workload process imports before its first operation
IMPORTS = (
    "repro.model.quasispecies, repro.operators.batched, repro.solvers.power, "
    "repro.service, repro.io, scipy.linalg"
)

#: end-to-end metrics and their units, as reported to BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_tail_s": "s",
    "peak_rss_mib": "MiB",
}

#: printed but not gated: over ten runs on a shared 2-core host whose
#: speed drifted by up to 40%, the ~80 ms warm re-submit of
#: ``service-sweep`` spread beyond the largest allowed bound, 0.25
PRINTED_ONLY = {"warm_s": "s"}


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, not {SRC}")


def import_seconds() -> float:
    """Wall time for a fresh interpreter to start and import the solver."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import {IMPORTS}"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and
    its label; the maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max of {n} (fewer than 11 samples: no percentile has 10 beyond it)"
    k = n - 11
    return ordered[k], f"p{100.0 * (k + 1) / n:.1f} of {n} (10 samples beyond it)"


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seconds: float, tracer: layers.Tracer | None):
        self.workload = workload
        self.seconds = seconds
        self.tracer = tracer
        self.setup_roots: list[layers.Root] = []
        self.traced_ops: list[list[layers.Root]] = []
        self.reports: list = []
        self.solve_s: list[float] = []
        self.warm_s: list[float] = []
        self.traced_s: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def setup(self) -> float:
        """Set up ``SETUP_REPEATS`` times; returns the median set-up time."""
        totals = []
        for _ in range(SETUP_REPEATS):
            started = import_seconds()
            if self.tracer is not None:
                _, root = self.tracer.root("setup", self.workload.setup)
                self.setup_roots.append(root)
                build = root.wall
            else:
                t0 = time.perf_counter()
                self.workload.setup()
                build = time.perf_counter() - t0
            totals.append(started + build)
        return statistics.median(totals)

    def _operation(self, traced: bool) -> None:
        wl = self.workload
        wl.prepare()
        if traced:
            result, op_root = self.tracer.root("op", wl.op)
            warm, warm_root = self.tracer.root("warm", wl.warm, result)
            self.traced_ops.append([op_root, warm_root])
            self.traced_s.append(op_root.wall + warm_root.wall)
            self.reports += [r for r in (result, warm) if hasattr(r, "telemetry")]
        else:
            t0 = time.perf_counter()
            result = wl.op()
            t1 = time.perf_counter()
            warm = wl.warm(result)
            t2 = time.perf_counter()
            self.solve_s.append(t1 - t0)
            self.warm_s.append(t2 - t1)
        problems = wl.check(result, warm)
        if problems:
            self.failures.append(f"operation {self.attempted}: " + "; ".join(problems))

    def operate(self) -> None:
        """Run operations until ``seconds`` have passed (at least one,
        and in a traced run at least one untraced and one traced)."""
        minimum = 1 if self.tracer is None else 2
        start = time.perf_counter()
        while self.attempted < minimum or time.perf_counter() - start < self.seconds:
            traced = self.tracer is not None and self.attempted % 2 == 1
            try:
                self._operation(traced)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
                traceback.print_exc(file=sys.stderr)
                self.failures.append(f"operation {self.attempted}: {type(exc).__name__}: {exc}")
            self.attempted += 1


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(run: Run, setup_s: float) -> dict[str, float]:
    """Print and return the end-to-end metrics (empty if no operation
    finished)."""
    if not run.solve_s:
        return {}
    tail_s, tail_label = tail(run.solve_s)
    values = {
        "setup_s": setup_s,
        "solve_s": statistics.median(run.solve_s),
        "solve_tail_s": tail_s,
        "warm_s": statistics.median(run.warm_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups, import included",
        "solve_s": f"median of {len(run.solve_s)} operations",
        "solve_tail_s": tail_label,
        "warm_s": f"median of {len(run.warm_s)} warm repeats",
        "peak_rss_mib": "peak resident memory of this process",
    }
    for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        print(f"{name} = {_fmt(values[name])} {unit}  ({notes[name]})")
    return values


def per_layer(run: Run, stream_gbs: float) -> dict[str, float]:
    """Print and return the per-layer metrics and the tracing overhead."""
    untraced = [s + w for s, w in zip(run.solve_s, run.warm_s)]
    overhead = (
        statistics.median(run.traced_s) / statistics.median(untraced) - 1.0
        if untraced and run.traced_s else 0.0
    )
    values = layers.layer_metrics(
        run.setup_roots, run.traced_ops, run.reports,
        stream_gbs=stream_gbs, overhead_frac=overhead,
    )
    print(f"per-layer totals per operation and its warm repeat "
          f"({len(run.traced_ops)} traced operations; overhead against "
          f"{len(untraced)} untraced ones):")
    for name, (unit, _) in layers.LAYER_METRICS.items():
        line = f"{name} = {_fmt(values[name])} {unit}"
        if unit == "GB/s" and name != "host.stream_gbs" and stream_gbs > 0:
            line += f"  ({100.0 * values[name] / stream_gbs:.1f}% of stream copy)"
        print(line)
    return values


def main(argv: list[str] | None = None, *, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_repro()
    host = hostinfo.host_facts()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  size {size}")
    print(f"host: nproc {host['nproc']}  cpu {host['cpu_model']}  "
          f"llc {host['llc_bytes'] / 2**20:.1f} MiB  numpy {host['numpy']}")
    print("host: blas pin " + " ".join(f"{k}={v}" for k, v in host["blas_env"].items()))

    tracer = None
    stream_gbs = 0.0
    if args.trace:
        # the tests' tiny runs probe with the 64 MiB minimum arrays
        llc = host["llc_bytes"] if size == "full" else 0
        stream_gbs, stream_bytes = hostinfo.stream_copy_gbs(llc)
        print(f"host: stream copy {stream_gbs:.2f} GB/s over two arrays of "
              f"{stream_bytes / 2**20:.0f} MiB each (llc {host['llc_bytes'] / 2**20:.1f} MiB)")
        tracer = layers.Tracer()
        layers.install(tracer)

    workload = workloads.WORKLOADS[args.workload](args.seed, size)
    run = Run(workload, args.seconds, tracer)
    try:
        setup_s = run.setup()
        run.operate()
    finally:
        workload.cleanup()
        if tracer is not None:
            tracer.uninstall()

    failed = len(run.failures)
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"failed_frac = {failed / run.attempted:g} frac  "
          f"({failed} of {run.attempted} operations failed)")

    if args.trace:
        values = per_layer(run, stream_gbs)
        units = {n: u for n, (u, _) in layers.LAYER_METRICS.items()}
    else:
        values = end_to_end(run, setup_s)
        units = END_TO_END
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()} if values else {}

    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
