"""Stage-fused, cache-blocked butterfly kernels for multi-vector blocks.

A literal butterfly (Algorithm 1) streams ν stages over the vector,
each a handful of elementwise passes over ``N/2`` pairs.  The same
mathematics admits a far better memory schedule, for one vector (a
``B = 1`` block: ``Fmmp.matvec``, ``butterfly_transform``, ``fwht``) and
for ``B`` right-hand sides sharing the same Kronecker factors (the
batched sweeps of the service layer; the ``B`` columns of a
Walsh-spectrum block):

* **block layout** — vectors are the *columns* of an ``(N, B)`` C-order
  block, so the two butterfly partners of a stage with span ``h`` are
  contiguous runs of ``h·B`` doubles.  For ``h·B = 1`` (the span-1
  sweep of a one-column block) those runs are single doubles, so that
  sweep runs as one 2-D GEMM over the ``(N/r, r)`` rows of the block
  instead of ``N/r`` separate matrix–vector products (about 10× faster
  at ν = 20 on a 2-core host, see ``docs/performance.md``).
* **stage fusion** — each stage is one ``matmul`` per chunk (a single
  read stream and a single write stream) instead of several elementwise
  passes.
* **radix-8 fusion** — 2×2 stages acting on distinct bits commute, so
  a run of up to three adjacent bits ``s..s+2`` combines into one 8×8
  factor ``kron(M_{s+2}, M_{s+1}, M_s)`` applied to groups of 8,
  cutting the sweeps over the block from ``ν`` to ``⌈ν/3⌉``.  Radix 16
  would save one more sweep at ν ≥ 20 but is not bit-stable across
  batch widths, so :data:`MAX_RADIX` is 8.
* **chunked sweeps** — every sweep walks its ``(g, r, z)`` view as an
  ordered list of chunks of about 256 KiB (:func:`_chunks`), so a chunk
  stays in L2 from its read to its write and the widest-span sweep no
  longer runs as one huge, cache-hostile GEMM.
* **fused scales** — the ``F`` (and ``F^{1/2}``) scalings of the
  eigenproblem forms (Eqs. 3–5) ride on the chunks: the first sweep
  multiplies each input chunk by the pre-scale into a chunk-sized tile
  (a slot of the ping-pong buffer it leaves free), the last multiplies
  each output chunk by the post-scale right after its matmul, so
  neither costs a pass over the block or a buffer of its own.
* **two blocks** — the whole transform ping-pongs between the output
  block and a single reusable ``(N, B)`` scratch buffer.
* **one plan** — :func:`fused_stage_plan` (2×2 factors) or
  :func:`grouped_stage_plan` (the ``2^g×2^g`` group blocks of Eq. 11)
  builds the list of :class:`FusedStage` sweeps; a mutation model picks
  the builder for its own factors
  (:meth:`repro.mutation.base.MutationModel.plan`), once per operator.
  The kernel only runs it, :func:`repro.operators.batched.plan_costs`
  counts its bytes and flops from it, and the simulated device launches
  its radix-2 form stage by stage.
* **threads share every sweep** — with ``threads = T > 1`` participant
  ``t`` runs the contiguous share ``t·c/T … (t+1)·c/T`` of each sweep's
  ``c`` chunks on an engine of :mod:`repro.transforms.parallel`, with
  one barrier per sweep (Algorithm 2's stage loop); the chunks are the
  serial ones, so the bits do not depend on ``T``.
* **wide stages run column by column** — a radix > 8 stage (a group
  block of ≥ 4 bits) is not bit-stable across batch widths, so a plan
  holding one runs each column through the one-column schedule.

Stages acting on distinct bits commute (see
:mod:`repro.transforms.butterfly`), so every fusion above is *exact* up
to floating-point rounding; the differential-verification grids compare
this kernel against the Algorithm-2 device kernels, the distributed
butterfly (explicit cross-rank stages), Xmvp, the spectral product and
the dense matrix on every spec.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.exceptions import ValidationError
from repro.transforms.parallel import borrow_engine, resolve_threads

__all__ = [
    "FusedStage",
    "fused_stage_plan",
    "grouped_stage_plan",
    "fused_stage_count",
    "batched_butterfly_transform",
]


def _check_2x2(m: np.ndarray, what: str = "factor") -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (2, 2):
        raise ValidationError(f"{what} must be a 2x2 matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FusedStage:
    """One fused butterfly sweep over the block.

    Attributes
    ----------
    span:
        Pair distance of the *lowest* bit this sweep mixes (``2**s``).
    radix:
        ``2**k`` for the ``k`` adjacent bits the sweep mixes: 2, 4 or 8
        for fused 2×2 factors, ``2^g`` for a group block of ``g`` bits.
    matrix:
        The ``(radix, radix)`` mixing matrix, ``kron(M_{s+k-1}, …, M_s)``
        or the group block (the highest bit is the high bit of the
        combined index — exactly the C-order reshape convention).
    """

    span: int
    radix: int
    matrix: np.ndarray


#: Largest radix :func:`fused_stage_plan` accepts (and its default): a
#: radix-8 stage mixes three adjacent bits.  Radix 16 is rejected: its
#: ``(16, 16) × (16, z)`` products are not bit-stable across batch
#: widths (see ``docs/performance.md``); wider group blocks run column by column.
MAX_RADIX = 8


def _run_sizes(nu: int, max_radix: int) -> list[int]:
    """Sizes of the ``⌈ν/k⌉`` runs of adjacent bits (``k = log2(max_radix)``)
    one plan sweeps, in traversal order: as even as possible, the larger
    runs first."""
    if nu < 1:
        raise ValidationError(f"nu must be >= 1, got {nu}")
    k = {2: 1, 4: 2, MAX_RADIX: 3}.get(max_radix)
    if k is None:
        why = (
            " (radix-16 sweeps make a column's bits depend on the batch width)"
            if max_radix == 16
            else ""
        )
        raise ValidationError(f"max_radix must be 2, 4 or 8, got {max_radix!r}{why}")
    runs = -(-nu // k)
    size, extra = divmod(nu, runs)
    return [size + 1] * extra + [size] * (runs - extra)


def fused_stage_count(nu: int, *, max_radix: int = MAX_RADIX) -> int:
    """Number of fused sweeps over the block: ``⌈ν/log2(max_radix)⌉``
    (``⌈ν/3⌉`` at the default radix 8, ``ν`` at ``max_radix=2``)."""
    return len(_run_sizes(nu, max_radix))


def fused_stage_plan(
    factors: Sequence[np.ndarray],
    *,
    variant: str = "eq9",
    max_radix: int = MAX_RADIX,
) -> list[FusedStage]:
    """Build the fused sweep schedule for ``factors``.

    ``variant="eq9"`` traverses bits in ascending span order (Eq. 9 /
    Algorithm 1); ``variant="eq10"`` in descending order (Eq. 10).  The
    traversal is cut into ``⌈ν/k⌉`` runs of adjacent bits
    (``k = log2(max_radix)``) whose sizes differ by at most one, and each
    run of bits ``lo..hi`` becomes one radix-``2^(hi-lo+1)`` stage with
    matrix ``kron(M_hi, …, M_lo)``.  ``max_radix`` is 2 (Algorithm 1's
    ν radix-2 sweeps), 4 or 8.
    """
    if variant not in ("eq9", "eq10"):
        raise ValidationError(f"variant must be 'eq9' or 'eq10', got {variant!r}")
    nu = len(factors)
    if nu == 0:
        raise ValidationError("at least one factor is required")
    mats = [_check_2x2(m, f"factors[{i}]") for i, m in enumerate(factors)]
    plan: list[FusedStage] = []
    start = 0  # traversal position of the run's first bit
    for size in _run_sizes(nu, max_radix):
        lo = start if variant == "eq9" else nu - start - size
        matrix = mats[lo]
        for bit in range(lo + 1, lo + size):
            matrix = np.kron(mats[bit], matrix)
        plan.append(FusedStage(span=1 << lo, radix=1 << size, matrix=matrix))
        start += size
    return plan


def grouped_stage_plan(
    blocks: Sequence[np.ndarray], *, variant: str = "eq9"
) -> list[FusedStage]:
    """Build the sweep schedule of a grouped model ``⊗ Q_{G_i}`` (Eq. 11).

    ``blocks[0]`` acts on the most significant bits (the paper's ⊗ order,
    as in the reference matvec of :mod:`repro.transforms.kronecker`).
    Each ``2^g × 2^g`` block is one radix-``2^g`` stage, spanning
    ``2^(bits of the blocks after it)``.  ``variant="eq9"`` runs the
    groups in ascending span order, ``"eq10"`` in descending order.
    """
    if variant not in ("eq9", "eq10"):
        raise ValidationError(f"variant must be 'eq9' or 'eq10', got {variant!r}")
    if len(blocks) == 0:
        raise ValidationError("at least one group block is required")
    plan: list[FusedStage] = []
    span = 1
    for idx in reversed(range(len(blocks))):
        matrix = np.ascontiguousarray(blocks[idx], dtype=np.float64)
        r = matrix.shape[0]
        if matrix.shape != (r, r) or r < 2 or r & (r - 1):
            raise ValidationError(
                f"group block {idx} must be a 2^g x 2^g matrix, got shape {matrix.shape}"
            )
        plan.append(FusedStage(span=span, radix=r, matrix=matrix))
        span *= r
    return plan if variant == "eq9" else plan[::-1]


def _check_block(block: np.ndarray, n: int | None = None, name: str = "block") -> np.ndarray:
    arr = np.asarray(block)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D (N, B), got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValidationError(f"{name} must have {n} rows, got {arr.shape[0]}")
    if not np.issubdtype(arr.dtype, np.number) or np.issubdtype(arr.dtype, np.complexfloating):
        raise ValidationError(f"{name} must be a real numeric block, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=np.float64)


def _check_scale(scale, n: int, b: int, name: str) -> np.ndarray | None:
    if scale is None:
        return None
    arr = np.ascontiguousarray(scale, dtype=np.float64)
    if arr.shape == (n,):
        return arr
    if arr.shape == (n, b):
        return arr
    raise ValidationError(
        f"{name} must have shape ({n},) or ({n}, {b}), got {arr.shape}"
    )


#: Bytes of one chunk of a fused sweep: small enough that a chunk stays
#: in L2 between its pre-scale, its matmul and its post-scale, large
#: enough that the per-chunk call overhead stays small.  See "Chunked
#: sweeps" in ``docs/performance.md`` for the measured sizes.
_CHUNK_BYTES = 256 << 10


def _pow2_floor(x: int) -> int:
    return 1 << max(x.bit_length() - 1, 0)


def _chunks(n: int, b: int, stage: FusedStage) -> tuple[tuple[int, int, int, int], ...]:
    """The ordered chunk list of one sweep over an ``(n, b)`` block
    (built once per shape, stage size and :data:`_CHUNK_BYTES`).

    Chunk ``(q0, q1, h0, h1)`` is groups ``q0:q1`` of the ``(g, r, h, b)``
    view, rows ``h0:h1`` of each: a run of whole groups when one group
    fits :data:`_CHUNK_BYTES`, else one group's whole-row ``z`` range of
    a power-of-two number of rows; a block of fewer than eight chunks
    stays in cache and is one chunk.  Every chunk keeps the BLAS kernel
    of the unchunked sweep, so the bits never depend on the chunk size:
    no ``z`` range is one column wide (a matrix–vector product), a
    ``z == 1`` run keeps two groups (the rows of one 2-D GEMM), and a
    stage of radix above :data:`MAX_RADIX` is never cut along ``z`` (its
    products' bits depend on their column count).
    """
    return _chunk_list(n, b, stage.radix, stage.span, _CHUNK_BYTES)


@functools.lru_cache(maxsize=256)
def _chunk_list(n: int, b: int, r: int, h: int, chunk_bytes: int) -> tuple:
    g = n // (r * h)
    elems = chunk_bytes // 8
    if n * b < 8 * elems:
        elems = n * b
    if h * b == 1 or r > MAX_RADIX or r * h * b <= elems:
        k = min(g, max(2 if h * b == 1 else 1, _pow2_floor(elems // (r * h * b))))
        return tuple((q, q + k, 0, h) for q in range(0, g, k))
    rows = min(h, max(2 if b == 1 else 1, _pow2_floor(elems // (r * b))))
    return tuple((q, q + 1, c, c + rows) for q in range(g) for c in range(0, h, rows))


class _Sweep(NamedTuple):
    """One sweep of a product: ``dst = post ∘ M · (pre ∘ src)`` on the
    ``chunks`` (from :func:`_chunks`) of one plan ``stage``.  The pre-scale
    rides on a product's first sweep, the post-scale on its last;
    ``spare`` is the ping-pong buffer the first sweep leaves free, which
    holds its pre-scale tiles (``None``: allocate one)."""

    stage: FusedStage
    chunks: Sequence[tuple[int, int, int, int]]
    pre: np.ndarray | None = None
    post: np.ndarray | None = None
    spare: np.ndarray | None = None


def _apply_fused(src: np.ndarray, dst: np.ndarray, sweep: FusedStage | _Sweep) -> None:
    """One fused sweep on every chunk of ``sweep`` (a bare
    :class:`FusedStage` runs all its chunks, unscaled).

    The hot path of the kernel.  Per chunk: the pre-scale writes the
    chunk into a chunk-sized tile that every chunk of ``chunks`` reuses
    (the spare buffer's slot of its first chunk, so two shares of one
    sweep never share a tile), one ``matmul`` mixes it into ``dst``, and
    the post-scale multiplies the output chunk while it is still in
    cache.  With ``z = span·B`` contiguous doubles per group row the mix
    is a stack of small ``(r, r) × (r, z)`` products.  When ``z == 1``
    (the span-1 sweep of a one-column block) that stack would be
    separate matrix–vector products, so the chunk instead runs as one
    2-D GEMM ``(groups, r) × Mᵀ`` over its rows, with ``Mᵀ`` copied
    C-contiguous once per sweep: the transposed view sends OpenBLAS to a
    kernel that took over twice as long for the same bits.

    NumPy sends a one-row product to its matrix–vector path, whose
    summation order differs from the GEMM kernel's; the single group of
    a ``ν <= 3`` vector (one radix-``N`` stage) is therefore padded to
    two rows.  A column transformed alone is then bitwise the same column
    of a wider block (the tests compare against widths 2–5 and 16 for
    every ``ν >= 1`` and every ``max_radix``).
    """
    n, b = src.shape
    if isinstance(sweep, FusedStage):
        sweep = _Sweep(sweep, _chunks(n, b, sweep))
    stage, chunks, pre, post, spare = sweep
    r, h, m = stage.radix, stage.span, stage.matrix
    g, z = n // (r * h), h * b
    src3, dst3 = src.reshape(g, r, z), dst.reshape(g, r, z)
    if pre is not None and chunks:
        q0, q1, h0, h1 = chunks[0]  # every chunk of a sweep has this size
        size, at = (q1 - q0) * r * (h1 - h0) * b, (q0 * h + h0 * (q1 - q0)) * r * b
        tile = np.empty(size) if spare is None else spare.reshape(-1)[at : at + size]
        pre = pre.reshape(g, r, h, -1)
    if post is not None:
        post = post.reshape(g, r, h, -1)
    mt = np.ascontiguousarray(m.T) if z == 1 else None
    for q0, q1, h0, h1 in chunks:
        x, y = src3[q0:q1, :, h0 * b : h1 * b], dst3[q0:q1, :, h0 * b : h1 * b]
        groups = q1 - q0
        if pre is not None:
            x4 = x.reshape(groups, r, h1 - h0, b)
            x = np.multiply(x4, pre[q0:q1, :, h0:h1], out=tile.reshape(x4.shape)).reshape(x.shape)
        if z > 1:
            np.matmul(m, x, out=y)
        elif groups >= 2:
            np.matmul(x.reshape(groups, r), mt, out=y.reshape(groups, r))
        else:
            pad = np.zeros((2, r))
            pad[0] = x.reshape(r)
            y.reshape(r)[:] = (pad @ mt)[0]
        if post is not None:
            y4 = y.reshape(groups, r, h1 - h0, b)
            np.multiply(y4, post[q0:q1, :, h0:h1], out=y4)


def _plan_bits(plan: Sequence[FusedStage]) -> int:
    """Number of index bits ``plan`` mixes (its block has ``2**bits`` rows)."""
    if not plan:
        raise ValidationError("plan must have at least one stage")
    return sum(stage.radix.bit_length() - 1 for stage in plan)


def _schedule(block, plan, pre_scale, post_scale, out, scratch):
    """Validate one product of ``plan`` and lay out its ping-pong schedule.

    Returns ``(steps, out)``: ``steps`` lists ``(src, dst, sweep)`` in
    execution order, each ``sweep`` a :class:`_Sweep` over its stage's
    whole chunk list, the pre-scale on the first and the post-scale on
    the last.  Every thread count runs this schedule, so they all write
    the same buffers in the same order.
    """
    work_in = _check_block(block, None, "block")
    n, b = work_in.shape
    nu = _plan_bits(plan)
    if n != (1 << nu):
        raise ValidationError(f"block must have 2**{nu} = {1 << nu} rows, got {n}")
    pre = _check_scale(pre_scale, n, b, "pre_scale")
    post = _check_scale(post_scale, n, b, "post_scale")

    def _buffer(buf: np.ndarray | None, name: str) -> np.ndarray:
        if buf is None:
            return np.empty((n, b), dtype=np.float64)
        if buf.shape != (n, b) or buf.dtype != np.float64 or not buf.flags.c_contiguous:
            raise ValidationError(
                f"{name} must be a C-contiguous float64 array of shape ({n}, {b})"
            )
        if np.shares_memory(buf, block):
            raise ValidationError(f"{name} must not alias the input block")
        return buf

    out = _buffer(out, "out")
    # A one-sweep plan never touches scratch, but a passed buffer is
    # still held to the contract.
    if scratch is not None or len(plan) > 1:
        scratch = _buffer(scratch, "scratch")
        if scratch is out or np.shares_memory(scratch, out):
            raise ValidationError("scratch must not alias out")
    # Ping-pong so the last sweep lands in ``out``: sweep ``i`` writes
    # ``out`` when (len(plan)-1-i) is even, ``scratch`` otherwise.
    last = len(plan) - 1
    steps = []
    src = work_in
    for i, stage in enumerate(plan):
        dst = out if (last - i) % 2 == 0 else scratch
        scales = (pre if i == 0 else None, post if i == last else None)
        spare = (scratch if dst is out else out) if i == 0 else None
        steps.append((src, dst, _Sweep(stage, _chunks(n, b, stage), *scales, spare)))
        src = dst
    return steps, out


def batched_butterfly_transform(
    block: np.ndarray,
    plan: Sequence[FusedStage],
    *,
    pre_scale: np.ndarray | None = None,
    post_scale: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    threads: int | None = 1,
) -> np.ndarray:
    """Apply the full ν-stage butterfly to every column of ``block``.

    Parameters
    ----------
    block:
        ``(N, B)`` array; column ``j`` is an independent input vector of
        length ``N = 2**ν``.  Never modified.
    plan:
        The fused sweep schedule, built once by :func:`fused_stage_plan`
        from one 2×2 factor per bit (``factors[s]`` acts on bit ``s`` —
        same convention as
        :func:`repro.transforms.butterfly.butterfly_transform`) or by
        :func:`grouped_stage_plan` from group blocks; the stage order
        and radix are fixed there.  A plan with a stage of radix above
        :data:`MAX_RADIX` runs column by column, so every column has the
        bits it has alone.
    pre_scale, post_scale:
        Optional diagonal scalings folded into the first / last sweep:
        shape ``(N,)`` (shared by all columns) or ``(N, B)`` (per
        column).  ``out = post ∘ (M_ν ⊗ … ⊗ M_1) · (pre ∘ block)``.
    out:
        Optional ``(N, B)`` float64 C-contiguous output block.  Must not
        alias ``block``.
    scratch:
        Optional ``(N, B)`` float64 C-contiguous scratch block (the one
        auxiliary buffer the ping-pong schedule needs).  Must not alias
        ``block`` or ``out``.
    threads:
        Participants sharing every sweep (``None`` reads
        ``REPRO_NUM_THREADS``).  With ``T > 1``, participant ``t`` runs
        the contiguous share ``chunks[t·c/T : (t+1)·c/T]`` of each
        sweep's ``c`` chunks on an engine of
        :mod:`repro.transforms.parallel`, with one barrier per sweep.
        Taken literally (no size rule), and the bits are the same for
        every count.

    Returns
    -------
    numpy.ndarray
        The transformed ``(N, B)`` block (``out`` if given).
    """
    threads = resolve_threads(threads)
    steps, out = _schedule(block, plan, pre_scale, post_scale, out, scratch)
    n, b = out.shape
    if b > 1 and max(stage.radix for stage in plan) > MAX_RADIX:
        # Radix > 8 products are not bit-stable across batch widths: run
        # every column through the one-column schedule instead, on
        # contiguous (B, N) copies of the block and its per-column scales.
        work, pre, post = (
            a if a is None or a.ndim == 1 else np.ascontiguousarray(a.T)
            for a in (steps[0][0], steps[0][2].pre, steps[-1][2].post)
        )
        res, col_scratch = np.empty((b, n)), np.empty((n, 1))
        for j in range(b):
            pre_j, post_j = (s if s is None or s.ndim == 1 else s[j] for s in (pre, post))
            batched_butterfly_transform(
                work[j].reshape(n, 1),
                plan,
                pre_scale=pre_j,
                post_scale=post_j,
                out=res[j].reshape(n, 1),
                scratch=col_scratch,
                threads=threads,
            )
        out[:] = res.T
        return out
    if threads == 1:
        for src, dst, sweep in steps:
            _apply_fused(src, dst, sweep)
        return out

    def participant(t: int) -> None:
        # Chunks are independent slices of one sweep, so which
        # participant runs which share never changes the numbers.
        for src, dst, sweep in steps:
            c = len(sweep.chunks)
            mine = sweep.chunks[t * c // threads : (t + 1) * c // threads]
            _apply_fused(src, dst, sweep._replace(chunks=mine))
            engine.barrier_wait()

    with borrow_engine(threads) as engine:
        engine.run(participant)
    return out
