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
* **stage fusion** — each stage is one fused ``matmul``/``einsum`` call
  (a single read stream and a single write stream, ≤ 3 passes counting a
  folded diagonal scale) instead of several elementwise passes.
* **radix-8 fusion** — 2×2 stages acting on distinct bits commute, so
  a run of up to three adjacent bits ``s..s+2`` combines into one 8×8
  factor ``kron(M_{s+2}, M_{s+1}, M_s)`` applied to groups of 8,
  cutting the sweeps over the block from ``ν`` to ``⌈ν/3⌉``.  Radix 16
  would save one more sweep at ν ≥ 20 but is not bit-stable across
  batch widths, so :data:`MAX_RADIX` is 8.
* **diagonal folding** — the ``F`` (and ``F^{1/2}``) scalings of the
  eigenproblem forms (Eqs. 3–5) fold into the sweep schedule: the
  pre-scale becomes the leading write of the ping-pong chain (replacing
  the first sweep's read of the caller's block) and the post-scale an
  in-place epilogue on the output block, so neither needs a buffer of
  its own.
* **one scratch block** — the whole transform ping-pongs between the
  output block and a single reusable ``(N, B)`` scratch buffer.
* **one plan** — :func:`fused_stage_plan` builds the list of
  :class:`FusedStage` sweeps once per operator; the kernel only runs
  it, the panel engine (:mod:`repro.transforms.parallel`) runs the same
  list on row panels, and :func:`repro.operators.batched.plan_costs`
  counts its bytes and flops from it.

Stages acting on distinct bits commute (see
:mod:`repro.transforms.butterfly`), so every fusion above is *exact* up
to floating-point rounding; the differential-verification grids compare
this kernel against the Algorithm-2 device kernels, the distributed
butterfly (explicit cross-rank stages), Xmvp, the spectral product and
the dense matrix on every spec.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "FusedStage",
    "fused_stage_plan",
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
        ``2**k`` for ``k`` adjacent radix-2 stages fused into one sweep:
        2 for a plain stage, 4 or 8 for two or three fused bits.
    matrix:
        The ``(radix, radix)`` mixing matrix ``kron(M_{s+k-1}, …, M_s)``
        (the highest bit is the high bit of the combined index — exactly
        the C-order reshape convention).
    """

    span: int
    radix: int
    matrix: np.ndarray


#: Largest radix :func:`fused_stage_plan` accepts (and its default): a
#: radix-8 stage mixes three adjacent bits.  Radix 16 is rejected: its
#: ``(16, 16) × (16, z)`` products are not bit-stable across batch
#: widths (see ``docs/performance.md``).
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


def _apply_fused(src: np.ndarray, dst: np.ndarray, stage: FusedStage) -> None:
    """One fused sweep ``dst = M · src`` on every butterfly group.

    The hot path of the kernel: a single ``matmul`` — one read stream
    and one write stream over the whole block.  With ``z = span·B``
    contiguous doubles per group row, the general case is a stack of
    ``g`` small ``(r, r) × (r, z)`` products.  When ``z == 1`` (the
    span-1 sweep of a one-column block) that stack would be ``g``
    separate matrix–vector products, so the sweep instead runs as one
    2-D GEMM ``(g, r) × Mᵀ`` over the rows of the block.

    NumPy sends a one-row product to its matrix–vector path, whose
    summation order differs from the GEMM kernel's; the single group of
    a ``ν <= 3`` vector (one radix-``N`` stage) is therefore padded to
    two rows.  A column transformed alone is then bitwise the same column
    of a wider block (the tests compare against widths 2–5 and 16 for
    every ``ν >= 1`` and every ``max_radix``).
    """
    n, b = src.shape
    r, h = stage.radix, stage.span
    g = n // (r * h)
    z = h * b
    if z == 1 and g >= 2:
        np.matmul(src.reshape(g, r), stage.matrix.T, out=dst.reshape(g, r))
    elif z == 1:
        rows = np.zeros((2, r))
        rows[0] = src.reshape(r)
        dst.reshape(r)[:] = (rows @ stage.matrix.T)[0]
    else:
        np.matmul(stage.matrix, src.reshape(g, r, z), out=dst.reshape(g, r, z))


def _scale_into(dst: np.ndarray, src: np.ndarray, scale: np.ndarray) -> None:
    """``dst = scale ∘ src`` (column-broadcast for 1-D scales)."""
    np.multiply(src, scale[:, None] if scale.ndim == 1 else scale, out=dst)


def _plan_bits(plan: Sequence[FusedStage]) -> int:
    """Number of index bits ``plan`` mixes (its block has ``2**bits`` rows)."""
    if not plan:
        raise ValidationError("plan must have at least one stage")
    return sum(stage.radix.bit_length() - 1 for stage in plan)


def _schedule(block, plan, pre_scale, post_scale, out, scratch):
    """Validate one product of ``plan`` and lay out its ping-pong schedule.

    Returns ``(steps, out, post)``: ``steps`` lists ``(src, dst, op)`` in
    execution order, where ``op`` is a :class:`FusedStage` sweep or the
    pre-scale diagonal, and ``post`` is the scale of the in-place
    epilogue on ``out`` (``None`` if absent).  The serial kernel and the
    panel engine both run this schedule, so they write the same buffers
    in the same order.
    """
    work_in = _check_block(block, None, "block")
    n, b = work_in.shape
    nu = _plan_bits(plan)
    if n != (1 << nu):
        raise ValidationError(f"block must have 2**{nu} = {1 << nu} rows, got {n}")
    pre = _check_scale(pre_scale, n, b, "pre_scale")
    post = _check_scale(post_scale, n, b, "post_scale")
    # The pre-scale is folded into the schedule as the leading write of
    # the ping-pong chain (it replaces the first sweep's input read of
    # the caller's block); the post-scale is an in-place epilogue on the
    # output block (no extra buffer traffic).
    ops = ([] if pre is None else [pre]) + list(plan)

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
    # A one-step schedule never touches scratch, but a passed buffer is
    # still held to the contract.
    if scratch is not None or len(ops) > 1:
        scratch = _buffer(scratch, "scratch")
        if scratch is out or np.shares_memory(scratch, out):
            raise ValidationError("scratch must not alias out")
    # Ping-pong so the last step lands in ``out``: step ``i`` writes
    # ``out`` when (len(ops)-1-i) is even, ``scratch`` otherwise.
    steps = []
    src = work_in
    for i, op in enumerate(ops):
        dst = out if (len(ops) - 1 - i) % 2 == 0 else scratch
        steps.append((src, dst, op))
        src = dst
    return steps, out, post


def batched_butterfly_transform(
    block: np.ndarray,
    plan: Sequence[FusedStage],
    *,
    pre_scale: np.ndarray | None = None,
    post_scale: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
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
        :func:`repro.transforms.butterfly.butterfly_transform`); the
        stage order and radix are fixed there.
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

    Returns
    -------
    numpy.ndarray
        The transformed ``(N, B)`` block (``out`` if given).
    """
    steps, out, post = _schedule(block, plan, pre_scale, post_scale, out, scratch)
    for src, dst, op in steps:
        if isinstance(op, FusedStage):
            _apply_fused(src, dst, op)
        else:
            _scale_into(dst, src, op)
    if post is not None:
        out *= post[:, None] if post.ndim == 1 else post
    return out
