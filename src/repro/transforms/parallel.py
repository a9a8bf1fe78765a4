"""Panel-parallel butterfly engine: the stage-fused kernel across cores.

The stage-fused batched kernel of :mod:`repro.transforms.batched` is
bandwidth-bound on a single core; this module runs the *identical*
sweep schedule on a persistent pool of worker threads, partitioning the
``(N, B)`` block into ``R = 2^r`` contiguous row **panels** on the high
index bits — the same layout under which
:class:`repro.distributed.partition.PartitionedVector` splits ranks.

Per fused sweep with group view ``(g, r, z)`` (``g`` butterfly groups of
``r`` rows of ``z = span·B`` contiguous doubles):

* **local sweeps** (``g >= R``, i.e. span ``r·h <= N/R``): every
  butterfly group lives inside one panel; panel ``p`` runs the serial
  kernel's own sweep (``_apply_fused``) on its contiguous rows — no
  sharing at all;
* **cross sweeps** (``g < R``): a butterfly group spans ``R/g`` panels;
  the group's ``z`` axis is cut into ``R/g`` whole-row chunks
  (``N/(r·R)`` rows each) and each work unit applies the full ``r×r``
  mix to its chunk, reading the partner panels' rows in place.

Both cuts slice :func:`numpy.matmul` along the group axis (local; for
a one-column span-1 sweep these are the rows of one 2-D GEMM) or along
the column axis in whole-row units (cross) — partitions NumPy/BLAS
evaluates with the very same per-element operation order as the
unsliced call, as long as every unit keeps the serial call's kernel
(see :func:`_stage_units`).  Together with barrier synchronization
between sweeps and the fixed ping-pong buffer parity of the serial
kernel, the result is **bit-identical** to
:func:`~repro.transforms.batched.batched_butterfly_transform` for every
panel count and thread count (asserted across the whole model/form grid
in the tests).  Slicing the *mix rows* of a single ``matmul`` would
*not* have this property (BLAS may pick a different micro-kernel per
shape), which is why the cross sweeps cut ``z`` and not the mix rows.

NumPy releases the GIL inside the large slice kernels, so the panels
genuinely overlap on multicore hosts; see ``docs/performance.md`` for
the measured scaling and the auto-``R`` heuristic.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence

import numpy as np

from repro.bitops.panels import panel_bounds, stage_is_local
from repro.exceptions import ValidationError
from repro.transforms.batched import (
    MAX_RADIX,
    FusedStage,
    _apply_fused,
    _plan_bits,
    _schedule,
    batched_butterfly_transform,
)

__all__ = [
    "PanelEngine",
    "parallel_butterfly_transform",
    "resolve_threads",
    "resolve_panels",
    "max_panels",
    "auto_panels",
    "get_engine",
    "shutdown_engines",
    "THREADS_ENV",
]

#: Environment variable consulted when ``threads=None`` is passed.
THREADS_ENV = "REPRO_NUM_THREADS"

#: Per-sweep barrier timeout (seconds).  Generous: a sweep is a handful
#: of milliseconds even at ν = 24; hitting this means a worker died.
BARRIER_TIMEOUT_S = 120.0


def resolve_threads(threads: int | None) -> int:
    """Resolve a thread count: explicit value, else ``REPRO_NUM_THREADS``,
    else 1 (serial)."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValidationError(
                f"{THREADS_ENV} must be an integer, got {raw!r}"
            ) from exc
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)):
        raise ValidationError(f"threads must be an integer, got {threads!r}")
    threads = int(threads)
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    return threads


def max_panels(nu: int, *, radix: int = MAX_RADIX) -> int:
    """Largest admissible panel count ``R`` for a ν-bit transform whose
    plan's largest stage radix is ``radix``.

    Every sweep needs ``R <= N/radix`` so a cross sweep can cut each
    butterfly group's ``z`` axis into whole-row chunks.  The default is
    the largest radix :func:`~repro.transforms.batched.fused_stage_plan`
    builds, a safe cap for every plan.
    """
    if nu < 1:
        raise ValidationError(f"nu must be >= 1, got {nu}")
    return max(1, (1 << nu) // radix)


def resolve_panels(panels: int, nu: int, *, radix: int = MAX_RADIX) -> int:
    """Validate an explicit panel count ``R`` (a positive power of two)
    and clamp it down to :func:`max_panels` (small ν simply cannot host
    many panels — the clamp keeps sweeps like ``R=4`` at ``ν=2``
    well-defined instead of erroring).  The automatic pick is
    :func:`auto_panels`.
    """
    if isinstance(panels, bool) or not isinstance(panels, (int, np.integer)):
        raise ValidationError(f"panels must be an integer, got {panels!r}")
    panels = int(panels)
    if panels < 1 or (panels & (panels - 1)) != 0:
        raise ValidationError(f"panels must be a positive power of two, got {panels}")
    return min(panels, max_panels(nu, radix=radix))


#: Smallest block (``N·B`` doubles) the automatic rule splits into
#: panels; below it the per-sweep barriers cost more than the panels save.
#: Measured with ``benchmarks/bench_parallel.py`` (2 cores, BLAS pinned,
#: alternating rounds): two panels lost at 2^14–2^16 (0.15–0.65×), at
#: best broke even at 2^17 (0.82–1.07×) and won from 2^18 (1.22–1.42×).
AUTO_PANELS_MIN_ELEMENTS = 1 << 18


def auto_panels(nu: int, batch: int, *, threads: int) -> int:
    """The one automatic panel count of a ``(2**ν, batch)`` product (what
    :func:`parallel_butterfly_transform` picks for ``panels=None``).

    ``R = min(largest power of two <= threads, max_panels(ν))`` once the
    block holds ``N·B >= 2^18`` doubles, else ``R = 1`` (the serial
    kernel).
    """
    threads = resolve_threads(threads)
    cap = max_panels(nu)  # also validates nu
    if (1 << nu) * batch < AUTO_PANELS_MIN_ELEMENTS:
        return 1
    return min(1 << (threads.bit_length() - 1), cap)


class _Aborted(BaseException):
    """Internal: a participant saw the barrier break — unwind quietly."""


class PanelEngine:
    """Persistent SPMD worker-thread pool with a per-sweep barrier.

    The engine owns ``threads − 1`` daemon workers; the caller itself is
    participant 0, so ``threads=1`` degenerates to a plain function call
    with no synchronization at all.  :meth:`run` hands every participant
    the same callable ``fn(t)``; inside it, participants call
    :meth:`barrier_wait` between sweeps.  An exception in any
    participant aborts the barrier, unwinds the others, and re-raises in
    the caller.

    Engines are cheap to keep alive (workers sleep on a condition
    variable between jobs) — use :func:`get_engine` for a shared,
    per-thread-count instance.
    """

    def __init__(self, threads: int):
        threads = resolve_threads(threads)
        self.threads = threads
        self._barrier = threading.Barrier(threads) if threads > 1 else None
        self._cond = threading.Condition()
        self._generation = 0
        self._fn = None
        self._pending = 0
        self._errors: list[BaseException] = []
        self._closed = False
        self._workers: list[threading.Thread] = []
        for t in range(1, threads):
            w = threading.Thread(
                target=self._worker_loop,
                args=(t,),
                daemon=True,
                name=f"repro-panel-{t}",
            )
            w.start()
            self._workers.append(w)

    # ------------------------------------------------------------- workers
    def _worker_loop(self, t: int) -> None:
        seen = 0
        while True:
            with self._cond:
                while self._generation == seen and not self._closed:
                    self._cond.wait()
                if self._closed:
                    return
                seen = self._generation
                fn = self._fn
            try:
                fn(t)
            except _Aborted:
                pass
            except BaseException as exc:  # noqa: BLE001 - forwarded to caller
                with self._cond:
                    self._errors.append(exc)
                if self._barrier is not None:
                    self._barrier.abort()
            finally:
                with self._cond:
                    self._pending -= 1
                    if self._pending == 0:
                        self._cond.notify_all()

    # ------------------------------------------------------------ dispatch
    def barrier_wait(self) -> None:
        """Sweep barrier: every participant must arrive before any may
        continue.  No-op for a single-threaded engine."""
        if self._barrier is None:
            return
        try:
            self._barrier.wait(timeout=BARRIER_TIMEOUT_S)
        except threading.BrokenBarrierError:
            raise _Aborted() from None

    def run(self, fn) -> None:
        """Execute ``fn(t)`` on every participant ``t in [0, threads)``
        and wait for all of them; re-raises the first participant error."""
        if self.threads == 1:
            fn(0)
            return
        with self._cond:
            if self._closed:
                raise ValidationError("PanelEngine is closed")
            if self._pending:
                raise ValidationError("PanelEngine is already running a job")
            self._fn = fn
            self._errors.clear()
            self._pending = self.threads - 1
            self._generation += 1
            self._cond.notify_all()
        caller_exc: BaseException | None = None
        try:
            fn(0)
        except _Aborted:
            pass
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            caller_exc = exc
            self._barrier.abort()
        with self._cond:
            while self._pending:
                self._cond.wait()
            errors = list(self._errors)
            self._errors.clear()
            self._fn = None
        broken = self._barrier.broken
        if broken:
            self._barrier.reset()
        if caller_exc is not None:
            raise caller_exc
        if errors:
            raise errors[0]
        if broken:
            raise ValidationError(
                "panel engine barrier broke without a recorded error "
                "(worker died or barrier timed out)"
            )

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        for w in self._workers:
            w.join(timeout=5.0)


_ENGINES: dict[int, PanelEngine] = {}
_ENGINES_LOCK = threading.Lock()


def get_engine(threads: int | None = None) -> PanelEngine:
    """Shared persistent engine for ``threads`` participants (workers
    sleep between jobs; repeated transforms reuse the same pool)."""
    threads = resolve_threads(threads)
    with _ENGINES_LOCK:
        engine = _ENGINES.get(threads)
        if engine is None:
            engine = PanelEngine(threads)
            _ENGINES[threads] = engine
        return engine


def shutdown_engines() -> None:
    """Close and drop every cached engine (tests / interpreter teardown)."""
    with _ENGINES_LOCK:
        engines = list(_ENGINES.values())
        _ENGINES.clear()
    for engine in engines:
        engine.close()


# ---------------------------------------------------------------- sweeps
def _scale_unit(
    src: np.ndarray, dst: np.ndarray, scale: np.ndarray, p: int, panels: int
) -> None:
    """Panel ``p``'s rows of the elementwise pre-scale sweep."""
    r0, r1 = panel_bounds(src.shape[0], panels, p)
    s = scale[r0:r1, None] if scale.ndim == 1 else scale[r0:r1]
    np.multiply(src[r0:r1], s, out=dst[r0:r1])


def _post_unit(out: np.ndarray, post: np.ndarray, p: int, panels: int) -> None:
    """Panel ``p``'s rows of the in-place post-scale epilogue."""
    r0, r1 = panel_bounds(out.shape[0], panels, p)
    s = post[r0:r1, None] if post.ndim == 1 else post[r0:r1]
    np.multiply(out[r0:r1], s, out=out[r0:r1])


def _stage_units(n: int, b: int, stage: FusedStage, panels: int) -> int:
    """Effective work-unit count for one fused sweep.

    Every unit must run the same BLAS kernel as the unsliced serial
    sweep, or its summation order (and so its bits) would differ:

    * a cross-sweep ``z`` chunk stays **at least two columns wide** — a
      single-column ``matmul`` operand drops BLAS onto the
      matrix-vector path;
    * a local unit of a ``z == 1`` sweep keeps **at least two groups**,
      so its rows stay on the one-column GEMM branch of the serial
      kernel instead of a single padded row.

    Narrow sweeps therefore run with fewer, wider units — still a power
    of two, still independent of the thread count, so the bits never
    depend on parallelism parameters.
    """
    r, h = stage.radix, stage.span
    g = n // (r * h)
    z = h * b
    u = panels
    while u > g and (h // (u // g)) * b < 2:
        u //= 2
    while u > 1 and z == 1 and g // u < 2:
        u //= 2
    return u


def _stage_unit(
    src: np.ndarray, dst: np.ndarray, stage: FusedStage, p: int, panels: int
) -> None:
    """Work unit ``p`` of a fused sweep: the serial sweep on the unit's
    own rows (local) or the partner-reading whole-row ``z`` chunk
    (cross)."""
    n, b = src.shape
    r, h = stage.radix, stage.span
    if stage_is_local(h, r, n, panels):  # ⇔ g >= panels
        # Local sweep: unit p owns a contiguous run of whole groups.
        r0, r1 = panel_bounds(n, panels, p)
        _apply_fused(src[r0:r1], dst[r0:r1], stage)
    else:
        # Cross sweep: R/g work units per group, each mixing the full
        # r×r factor over a whole-row z-chunk of N/(r·R) rows.
        g = n // (r * h)
        src3 = src.reshape(g, r, h * b)
        dst3 = dst.reshape(g, r, h * b)
        cpg = panels // g
        q, c = p // cpg, p % cpg
        zc = (h // cpg) * b
        sl = slice(c * zc, (c + 1) * zc)
        np.matmul(stage.matrix, src3[q][:, sl], out=dst3[q][:, sl])


def parallel_butterfly_transform(
    block: np.ndarray,
    plan: Sequence[FusedStage],
    *,
    pre_scale: np.ndarray | None = None,
    post_scale: np.ndarray | None = None,
    panels: int | None = None,
    threads: int | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Panel-parallel :func:`~repro.transforms.batched.batched_butterfly_transform`.

    Identical semantics, arguments and — by construction — *bits*:
    for every ``(panels, threads)`` combination the output equals the
    serial fused kernel's exactly.

    Parameters
    ----------
    block, plan, pre_scale, post_scale, out, scratch:
        As for the serial kernel.
    panels:
        Panel count ``R`` (power of two), clamped to :func:`max_panels`
        of the plan's largest radix; ``None`` picks :func:`auto_panels`
        of the block's shape and the thread count.  A plan with a stage
        of radix above ``MAX_RADIX`` always runs as one panel.
    threads:
        Participant count; ``None`` reads ``REPRO_NUM_THREADS``
        (default 1).  The product runs on the shared :func:`get_engine`
        pool for that count.
    """
    nu = _plan_bits(plan)
    threads_n = resolve_threads(threads)
    radix = max(stage.radix for stage in plan)
    if panels is None:
        b = np.shape(block)[1] if np.ndim(block) == 2 else 1  # _schedule rejects other shapes
        panels_n = auto_panels(nu, b, threads=threads_n)
    else:
        panels_n = resolve_panels(panels, nu, radix=radix)
    if panels_n == 1 or radix > MAX_RADIX:
        # One panel ⇒ the partitioned schedule is the serial schedule.  A
        # radix > 8 plan runs there too: the serial kernel takes it column
        # by column, the only schedule that keeps its bits.
        return batched_butterfly_transform(
            block,
            plan,
            pre_scale=pre_scale,
            post_scale=post_scale,
            out=out,
            scratch=scratch,
        )
    steps, out, post = _schedule(block, plan, pre_scale, post_scale, out, scratch)
    n, b = out.shape
    eng = get_engine(threads_n)
    nt = eng.threads

    def participant(t: int) -> None:
        # Fixed contiguous unit assignment: participant t executes work
        # units [t·R/T, (t+1)·R/T) of every sweep.  The unit→thread map
        # never affects the numbers (units are independent slices), so
        # any T gives the same bits.
        units = range(t * panels_n // nt, (t + 1) * panels_n // nt)
        for src, dst, op in steps:
            if isinstance(op, FusedStage):
                u = _stage_units(n, b, op, panels_n)
                for p in range(t * u // nt, (t + 1) * u // nt):
                    _stage_unit(src, dst, op, p, u)
            else:
                for p in units:
                    _scale_unit(src, dst, op, p, panels_n)
            eng.barrier_wait()
        if post is not None:
            for p in units:
                _post_unit(out, post, p, panels_n)

    eng.run(participant)
    return out
