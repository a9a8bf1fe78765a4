"""Radix-4 butterfly stage — Algorithm 2 generalized to 2-bit groups.

A grouped mutation factor ``Q_G ∈ R^{4×4}`` (e.g. one RNA nucleotide,
Sec. 2.2/5.2) occupying bits ``[s, s+2)`` mixes, for span ``h = 2^s``,
every quadruple ``v[j], v[j+h], v[j+2h], v[j+3h]``.  One launch runs
``N/4`` work items; the index arithmetic extends the paper's bit trick:

    offset = ID & (h − 1)
    j      = 4·ID − 3·offset        # = 4h·⌊ID/h⌋ + ID mod h

Cost per item: 8 f64 memory operations (4 loads + 4 stores) and 28
flops (a dense 4×4 matvec) — still bandwidth-bound, like its radix-2
parent.
"""

from __future__ import annotations

import numpy as np

from repro.device.kernel import Kernel, KernelCosts
from repro.exceptions import DeviceError

__all__ = ["make_group4_stage_kernel"]


def _check_params(params) -> int:
    try:
        span = int(params["span"])
    except KeyError:
        raise DeviceError("group4_stage kernel missing parameter 'span'") from None
    if span < 1 or (span & (span - 1)) != 0:
        raise DeviceError(f"span must be a positive power of two, got {span}")
    return span


def make_group4_stage_kernel(block: np.ndarray) -> Kernel:
    """Build the radix-4 stage kernel for a fixed 4×4 block.

    The block is baked in (16 coefficients exceed comfortable scalar
    launch parameters); ``span`` arrives per launch.
    """
    m = np.asarray(block, dtype=np.float64)
    if m.shape != (4, 4):
        raise DeviceError(f"group block must be 4x4, got {m.shape}")

    def scalar(item_id: int, state, params) -> dict:
        span = _check_params(params)
        v = state["v"]
        j = 4 * item_id - 3 * (item_id & (span - 1))
        t = [v[j + k * span] for k in range(4)]
        return {
            ("v", j + r * span): sum(m[r, c] * t[c] for c in range(4))
            for r in range(4)
        }

    def batch(ids: np.ndarray, buffers, params) -> None:
        span = _check_params(params)
        v = buffers["v"]
        j = 4 * ids - 3 * (ids & (span - 1))
        t = [v[j + k * span] for k in range(4)]
        for r in range(4):
            v[j + r * span] = m[r, 0] * t[0] + m[r, 1] * t[1] + m[r, 2] * t[2] + m[r, 3] * t[3]

    return Kernel(
        name="group4_stage",
        scalar_fn=scalar,
        batch_fn=batch,
        costs=KernelCosts(bytes_per_item=64.0, flops_per_item=28.0),
        buffer_names=("v",),
    )
