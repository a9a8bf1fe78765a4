"""Fused Xmvp kernel — the paper-style one-launch-per-matvec variant.

The per-mask :mod:`~repro.device.kernels.xmvp_kernel` re-reads and
re-writes the accumulator on every pass (24 B/item/mask).  A real OpenCL
implementation loops over the masks *inside* the work item, keeping the
accumulator in a register:

    acc = 0
    for (mask_k, q_k) in masks:            # all Σ C(ν,k) offsets
        acc += q_k · w[ID ^ mask_k]
    y[ID] = acc

— 8 bytes of traffic per mask per item (the gather) plus one write.
This kernel implements exactly that; its cost spec therefore depends on
the mask count (:func:`fused_xmvp_costs`), which
``PipelineCostModel(fused_xmvp=True)`` reads too.
"""

from __future__ import annotations

import numpy as np

from repro.device.kernel import Kernel, KernelCosts
from repro.exceptions import DeviceError

__all__ = ["fused_xmvp_costs", "make_fused_xmvp_kernel"]


def fused_xmvp_costs(mask_count: int) -> KernelCosts:
    """Per-item cost of the fused kernel over ``mask_count`` masks: one
    8-byte gather and 2 flops per mask, plus the 8-byte write."""
    return KernelCosts(bytes_per_item=8.0 * (mask_count + 1.0), flops_per_item=2.0 * mask_count)


def make_fused_xmvp_kernel(masks: np.ndarray, weights: np.ndarray) -> Kernel:
    """Build the fused kernel for a fixed mask/weight table.

    Parameters
    ----------
    masks:
        All XOR offsets (every popcount class, including the zero mask),
        ``int64``.
    weights:
        Matching ``QΓ_{popcount(mask)}`` weights.

    Returns
    -------
    Kernel
        Reads ``w``, writes ``y``; per-item cost
        :func:`fused_xmvp_costs` of ``len(masks)``.
    """
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if masks.shape != weights.shape or masks.size == 0:
        raise DeviceError("masks and weights must be equal-length and non-empty")

    def scalar(item_id: int, state, params) -> dict:
        w = state["w"]
        acc = 0.0
        for m, q in zip(masks, weights):
            acc += q * w[item_id ^ int(m)]
        return {("y", item_id): acc}

    def batch(ids: np.ndarray, buffers, params) -> None:
        w = buffers["w"]
        acc = np.zeros(len(ids))
        for m, q in zip(masks, weights):
            acc += q * w[ids ^ m]
        buffers["y"][ids] = acc

    return Kernel(
        name="xmvp_fused",
        scalar_fn=scalar,
        batch_fn=batch,
        costs=fused_xmvp_costs(masks.size),
        buffer_names=("y", "w"),
    )
