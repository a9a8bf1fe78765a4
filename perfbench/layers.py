"""Per-layer spans for the benchmark, recorded from outside the program.

The tracer wraps the public functions of each ``repro`` layer (see
:func:`install`) and records one span per call: name, thread, duration,
self time and a few attributes (computed bytes, iteration counts, ...).
A function that a caller bound with a module-level ``from ... import``
is patched under every name that refers to it in every loaded ``repro``
module, so the wrapper is found wherever the caller looks it up.

Spans are recorded only while ``Tracer.recording`` is set; otherwise the
wrappers call straight through.  The benchmark installs the wrappers
only for a traced run (``--trace 1``), never for the end-to-end run.

Self time is a span's duration minus the durations of the spans it
called on the same thread.  Work that the service pool hands to worker
threads is recorded on those threads: it counts as busy time of its
layer, while the calling thread's wait shows as the self time of
``pool.run``.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

__all__ = ["Span", "Root", "Tracer", "install", "layer_metrics", "LAYER_METRICS"]


@dataclass
class Span:
    """One completed call of a traced function."""

    name: str
    thread: int
    duration: float
    self_s: float
    attrs: dict


@dataclass
class Root:
    """A timed region (one set-up, one operation or one warm repeat) and
    every span recorded while it was open, on any thread."""

    kind: str
    wall: float
    self_s: float
    spans: list[Span]


class Tracer:
    """Collects spans while ``recording``; a pass-through otherwise."""

    def __init__(self) -> None:
        self.recording = False
        self._spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans
    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, before, after, args, kwargs):
        if not self.recording:
            return fn(*args, **kwargs)
        stack = self._stack()
        attrs = before(*args, **kwargs) if before is not None else {}
        children = [0.0]
        stack.append(children)
        ok = False
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += duration
            if ok and after is not None:
                attrs.update(after(result, *args, **kwargs))
            self._spans.append(
                Span(name, threading.get_ident(), duration, duration - children[0], attrs)
            )

    def root(self, kind: str, fn, *args, **kwargs):
        """Run ``fn`` as a recorded root region; returns ``(result, Root)``."""
        start = len(self._spans)
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        self.recording = True
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            self.recording = False
            stack.pop()
        spans = self._spans[start:]
        del self._spans[start:]
        return result, Root(kind, wall, wall - children[0], spans)

    # ---------------------------------------------------------- patching
    def _wrapper(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, before, after, args, kwargs)

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``cls.attr`` (looked up through the class on every call)."""
        self._set(cls, attr, self._wrapper(name, cls.__dict__[attr], before, after))

    def patch_function(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Trace ``module.attr`` under every name bound to it in ``repro``."""
        original = getattr(module, attr)
        wrapper = self._wrapper(name, original, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ------------------------------------------------------------ the layers
def computed_bytes(n: int, b: int) -> float:
    """Bytes one fused product of an ``(n, b)`` block moves, by the
    benchmark's own formula ``16·N·B·⌈ν/2⌉`` (one read and one write of
    the block per radix-4 sweep)."""
    nu = int(n).bit_length() - 1
    return 16.0 * n * b * math.ceil(nu / 2)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every measured layer."""
    # import_module, not ``import a.b as m``: ``repro.operators.dense_w``
    # is also the name of a function the package re-exports.
    concentrations = importlib.import_module("repro.model.concentrations")
    dense_w = importlib.import_module("repro.operators.dense_w")
    shifted = importlib.import_module("repro.operators.shifted")
    pool = importlib.import_module("repro.service.pool")
    scheduler = importlib.import_module("repro.service.scheduler")
    fused = importlib.import_module("repro.transforms.batched")
    results = importlib.import_module("repro.io.results")
    from repro.operators.batched import BatchedFmmp
    from repro.operators.fmmp import Fmmp
    from repro.service.cache import ResultCache
    from repro.service.jobspec import SolveJob
    from repro.service.service import SolverService
    from repro.solvers.power import BlockPowerIteration, PowerIteration
    from repro.solvers.reduced import ReducedSolver

    # build: landscapes, mutation models, operator and service constructors
    for attr in ("build_landscape", "build_mutation"):
        tracer.patch_method(SolveJob, attr, "build")
    for cls in (Fmmp, BatchedFmmp, SolverService):
        tracer.patch_method(cls, "__init__", "build")
    tracer.patch_function(shifted, "conservative_shift", "build")

    # kernels
    tracer.patch_method(
        Fmmp, "matvec", "fmmp.matvec",
        before=lambda op, v, *a, **k: {"bytes": computed_bytes(op.n, 1)},
    )
    tracer.patch_method(
        BatchedFmmp, "matmat", "batched.matmat",
        before=lambda op, block, *a, **k: {
            "cols": block.shape[1],
            "bytes": computed_bytes(op.n, block.shape[1]),
        },
    )
    tracer.patch_function(
        fused, "batched_butterfly_transform", "fused",
        before=lambda block, *a, **k: {"bytes": computed_bytes(*block.shape)},
    )

    # solvers and conversions
    tracer.patch_method(
        PowerIteration, "solve", "power.loop",
        after=lambda res, *a, **k: {"iterations": res.iterations},
    )
    tracer.patch_method(
        BlockPowerIteration, "solve", "power.loop",
        after=lambda res, *a, **k: {"sweeps": res.sweeps},
    )
    tracer.patch_function(dense_w, "convert_eigenvector", "convert")
    tracer.patch_function(concentrations, "class_concentrations", "classes")
    tracer.patch_method(ReducedSolver, "__init__", "reduced.setup")
    tracer.patch_method(ReducedSolver, "solve", "reduced")

    # service layers
    for attr in ("content_key", "cache_key", "operator_key"):
        tracer.patch_method(SolveJob, attr, "jobspec.hash")
    tracer.patch_function(
        scheduler, "plan_batch", "scheduler.plan",
        after=lambda plan, *a, **k: {"jobs": plan.n_jobs, "unique": plan.n_unique},
    )
    tracer.patch_function(
        scheduler, "plan_batched_jobs", "scheduler.plan",
        after=lambda blocks, *a, **k: {"blocks": len(blocks)},
    )
    tracer.patch_method(
        ResultCache, "lookup", "cache.lookup",
        after=lambda out, *a, **k: {"hits": int(out[0] is not None)},
    )
    tracer.patch_method(ResultCache, "store", "cache.store")
    tracer.patch_function(
        results, "save_job_result", "io.save",
        after=lambda _, path, *a, **k: {"bytes": os.path.getsize(path)},
    )
    tracer.patch_function(
        results, "load_job_result", "io.load",
        before=lambda path, *a, **k: {"bytes": os.path.getsize(path)},
    )
    for attr in ("run", "run_batched"):
        tracer.patch_method(pool.WorkerPool, attr, "pool.run")
    for attr in ("execute_job", "execute_batched_job"):
        tracer.patch_function(pool, attr, "pool.job")


# --------------------------------------------------------------- metrics
#: every per-layer metric, with its unit and whether higher is better
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "trace.overhead_frac": ("frac", "lower"),
    "trace.covered_frac": ("frac", "higher"),
    "trace.other_s": ("s", "lower"),
    "host.stream_gbs": ("GB/s", "higher"),
    "build.self_s": ("s", "lower"),
    "build.in_op.self_s": ("s", "lower"),
    "fmmp.matvec.calls": ("count", "lower"),
    "fmmp.matvec.self_s": ("s", "lower"),
    "fmmp.matvec.gbs": ("GB/s", "higher"),
    "fmmp.matvec.share": ("frac", "lower"),
    "batched.matmat.calls": ("count", "lower"),
    "batched.matmat.self_s": ("s", "lower"),
    "batched.matmat.gbs": ("GB/s", "higher"),
    "batched.cols_per_sweep": ("count", "higher"),
    "fused.calls": ("count", "lower"),
    "fused.self_s": ("s", "lower"),
    "fused.gbs": ("GB/s", "higher"),
    "power.iterations": ("count", "lower"),
    "power.sweeps": ("count", "lower"),
    "power.loop.self_s": ("s", "lower"),
    "convert.self_s": ("s", "lower"),
    "classes.self_s": ("s", "lower"),
    "reduced.calls": ("count", "lower"),
    "reduced.self_s": ("s", "lower"),
    "jobspec.hash.calls": ("count", "lower"),
    "jobspec.hash.self_s": ("s", "lower"),
    "scheduler.plan.self_s": ("s", "lower"),
    "scheduler.unique_ratio": ("frac", "lower"),
    "scheduler.blocks": ("count", "lower"),
    "cache.lookup.calls": ("count", "lower"),
    "cache.lookup.self_s": ("s", "lower"),
    "cache.hit_ratio": ("frac", "higher"),
    "cache.store.calls": ("count", "lower"),
    "cache.store.self_s": ("s", "lower"),
    "io.save.self_s": ("s", "lower"),
    "io.load.self_s": ("s", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.bytes_read": ("B", "lower"),
    "pool.run.self_s": ("s", "lower"),
    "pool.queue_s": ("s", "lower"),
    "pool.solve_s": ("s", "lower"),
    "pool.attempts_per_job": ("count", "lower"),
    "pool.fallbacks": ("count", "lower"),
    "pool.batched_jobs": ("count", "higher"),
}


class _Totals:
    """Sums of calls, self time, duration and attributes per span name."""

    def __init__(self, spans) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.duration: dict[str, float] = {}
        self.attrs: dict[tuple[str, str], float] = {}
        for s in spans:
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + s.self_s
            self.duration[s.name] = self.duration.get(s.name, 0.0) + s.duration
            for key, value in s.attrs.items():
                self.attrs[s.name, key] = self.attrs.get((s.name, key), 0.0) + value

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get((name, key), 0.0)

    def gbs(self, name: str) -> float:
        seconds = self.duration.get(name, 0.0)
        return self.attr(name, "bytes") / seconds / 1e9 if seconds > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    setups: list[Root],
    ops: list[list[Root]],
    reports: list,
    *,
    stream_gbs: float,
    overhead_frac: float,
) -> dict[str, float]:
    """Per-layer metrics as totals per operation.

    ``ops`` holds, per traced operation, its roots (the operation and its
    warm repeat); ``reports`` the service batch reports those roots
    returned (empty for workloads that bypass the service).  Kernel
    rates use a span's whole duration, so a kernel that moves its work
    into a traced child keeps its rate.  Layers a workload does not use
    read 0.
    """
    n_ops = max(1, len(ops))
    roots = [r for op in ops for r in op]
    t = _Totals(s for r in roots for s in r.spans)
    wall = sum(r.wall for r in roots)
    other = sum(r.self_s for r in roots)
    setup = _Totals(s for r in setups for s in r.spans)
    solved = [tele for rep in reports for tele in rep.telemetry if tele.status == "solved"]
    plan_jobs = t.attr("scheduler.plan", "jobs")

    def per_op(value: float) -> float:
        return value / n_ops

    return {
        "trace.overhead_frac": overhead_frac,
        "trace.covered_frac": _ratio(wall - other, wall),
        "trace.other_s": per_op(other),
        "host.stream_gbs": stream_gbs,
        "build.self_s": setup.self_s.get("build", 0.0) / max(1, len(setups)),
        "build.in_op.self_s": per_op(t.self_s.get("build", 0.0)),
        "fmmp.matvec.calls": per_op(t.calls.get("fmmp.matvec", 0)),
        "fmmp.matvec.self_s": per_op(t.self_s.get("fmmp.matvec", 0.0)),
        "fmmp.matvec.gbs": t.gbs("fmmp.matvec"),
        "fmmp.matvec.share": _ratio(t.duration.get("fmmp.matvec", 0.0), wall),
        "batched.matmat.calls": per_op(t.calls.get("batched.matmat", 0)),
        "batched.matmat.self_s": per_op(t.self_s.get("batched.matmat", 0.0)),
        "batched.matmat.gbs": t.gbs("batched.matmat"),
        "batched.cols_per_sweep": _ratio(
            t.attr("batched.matmat", "cols"), t.calls.get("batched.matmat", 0)
        ),
        "fused.calls": per_op(t.calls.get("fused", 0)),
        "fused.self_s": per_op(t.self_s.get("fused", 0.0)),
        "fused.gbs": t.gbs("fused"),
        "power.iterations": per_op(t.attr("power.loop", "iterations")),
        "power.sweeps": per_op(t.attr("power.loop", "sweeps")),
        "power.loop.self_s": per_op(t.self_s.get("power.loop", 0.0)),
        "convert.self_s": per_op(t.self_s.get("convert", 0.0)),
        "classes.self_s": per_op(t.self_s.get("classes", 0.0)),
        "reduced.calls": per_op(t.calls.get("reduced", 0)),
        "reduced.self_s": per_op(
            t.self_s.get("reduced", 0.0) + t.self_s.get("reduced.setup", 0.0)
        ),
        "jobspec.hash.calls": per_op(t.calls.get("jobspec.hash", 0)),
        "jobspec.hash.self_s": per_op(t.self_s.get("jobspec.hash", 0.0)),
        "scheduler.plan.self_s": per_op(t.self_s.get("scheduler.plan", 0.0)),
        "scheduler.unique_ratio": _ratio(t.attr("scheduler.plan", "unique"), plan_jobs),
        "scheduler.blocks": per_op(t.attr("scheduler.plan", "blocks")),
        "cache.lookup.calls": per_op(t.calls.get("cache.lookup", 0)),
        "cache.lookup.self_s": per_op(t.self_s.get("cache.lookup", 0.0)),
        "cache.hit_ratio": _ratio(
            t.attr("cache.lookup", "hits"), t.calls.get("cache.lookup", 0)
        ),
        "cache.store.calls": per_op(t.calls.get("cache.store", 0)),
        "cache.store.self_s": per_op(t.self_s.get("cache.store", 0.0)),
        "io.save.self_s": per_op(t.self_s.get("io.save", 0.0)),
        "io.load.self_s": per_op(t.self_s.get("io.load", 0.0)),
        "io.bytes_written": per_op(t.attr("io.save", "bytes")),
        "io.bytes_read": per_op(t.attr("io.load", "bytes")),
        "pool.run.self_s": per_op(t.self_s.get("pool.run", 0.0)),
        "pool.queue_s": per_op(sum(tele.queue_seconds for tele in solved)),
        "pool.solve_s": per_op(sum(tele.solve_seconds for tele in solved)),
        "pool.attempts_per_job": _ratio(sum(tele.attempts for tele in solved), len(solved)),
        "pool.fallbacks": per_op(sum(1 for tele in solved if tele.fallback_used)),
        "pool.batched_jobs": per_op(sum(1 for tele in solved if tele.batch > 1)),
    }
