"""Shared-memory engine of the fused butterfly: threads and one barrier.

:func:`~repro.transforms.batched.batched_butterfly_transform` with
``threads = T > 1`` runs each fused sweep's ordered chunk list on ``T``
participants: participant ``t`` runs the contiguous share
``chunks[t·c/T : (t+1)·c/T]`` of every sweep's ``c`` chunks, and one
barrier ends each sweep — the paper's Algorithm 2 host loop (launch a
stage across its work items, synchronise, next stage) on CPU threads.
The chunks, and the scales riding on them, are the serial kernel's own,
so every thread count gives the serial kernel's bits.

This module holds the machinery: :func:`resolve_threads` (the one
thread-count rule, ``REPRO_NUM_THREADS`` when unset), the persistent
:class:`PanelEngine` (``T − 1`` worker threads plus the caller, one
sweep barrier), and a free list of idle engines: every product checks
an engine of its size out with :func:`borrow_engine` and returns it
afterwards, so concurrent products never share a running engine and
sequential ones reuse the same workers.

NumPy releases the GIL inside the chunk kernels, so the shares
genuinely overlap on multicore hosts; see ``docs/performance.md`` for
the measured scaling.
"""

from __future__ import annotations

import contextlib
import os
import threading
from collections.abc import Iterator

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "PanelEngine",
    "resolve_threads",
    "borrow_engine",
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
    variable between jobs); one runs one job at a time, so products take
    theirs from :func:`borrow_engine`.
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


#: Idle engines by participant count.
_IDLE: dict[int, list[PanelEngine]] = {}
_ENGINES_LOCK = threading.Lock()


@contextlib.contextmanager
def borrow_engine(threads: int) -> Iterator[PanelEngine]:
    """Check an idle engine of ``threads`` participants out of the free
    list (or start one) for one product, and return it afterwards.

    A running engine belongs to one caller, so products on different
    threads each get their own; sequential products reuse the same
    engine and its workers (which sleep between jobs).
    """
    threads = resolve_threads(threads)
    with _ENGINES_LOCK:
        idle = _IDLE.get(threads)
        engine = idle.pop() if idle else PanelEngine(threads)
    try:
        yield engine
    finally:
        with _ENGINES_LOCK:
            _IDLE.setdefault(threads, []).append(engine)


def shutdown_engines() -> None:
    """Close every idle engine and empty the free list (tests /
    interpreter teardown); an engine borrowed at the time goes back to
    the list when its product ends."""
    with _ENGINES_LOCK:
        engines = [engine for idle in _IDLE.values() for engine in idle]
        _IDLE.clear()
    for engine in engines:
        engine.close()
