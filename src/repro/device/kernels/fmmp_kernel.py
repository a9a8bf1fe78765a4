"""The Fmmp butterfly stage kernel — the paper's Algorithm 2, verbatim.

One launch of ``N/2`` work items performs one butterfly stage of span
``i`` in place.  Work item ``ID`` computes (Algorithm 2 lines 3–7)::

    j ← 2·ID − (ID & (i−1))        # = 2·i·⌊ID/i⌋ + ID mod i
    t1 ← v[j];  t2 ← v[j + i]
    v[j]     ← m00·t1 + m01·t2     # paper: (1−p)·t1 + p·t2
    v[j + i] ← m10·t1 + m11·t2     # paper: p·t1 + (1−p)·t2

The index identity ``2·ID − (ID & (i−1)) = 2·i·⌊ID/i⌋ + ID mod i`` (valid
because ``i`` is a power of two) is the paper's bit trick for replacing a
modulo with an AND; it is property-tested in
tests/test_device_kernels.py.  The host drives the stage loop:
:func:`plan_launcher` turns a mutation model's radix-2 plan
(:meth:`~repro.mutation.base.MutationModel.plan` with ``max_radix=2``)
into one launch per stage, for :mod:`repro.device.pipeline` and the
verification oracles alike.

Cost per work item: 4 memory operations on f64 (2 loads + 2 stores) and
6 flops (4 multiplies + 2 adds) — the ratio that makes the kernel
bandwidth-bound, as the paper observes.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.device.kernel import Kernel, KernelCosts
from repro.device.kernels.group_kernel import make_group4_stage_kernel
from repro.exceptions import DeviceError, ValidationError
from repro.transforms.batched import FusedStage

__all__ = ["fmmp_stage_kernel", "plan_launcher"]


def _params(params) -> tuple[int, float, float, float, float]:
    try:
        span = int(params["span"])
        m00 = float(params["m00"])
        m01 = float(params["m01"])
        m10 = float(params["m10"])
        m11 = float(params["m11"])
    except KeyError as exc:
        raise DeviceError(f"fmmp_stage kernel missing parameter {exc}") from None
    if span < 1 or (span & (span - 1)) != 0:
        raise DeviceError(f"span must be a positive power of two, got {span}")
    return span, m00, m01, m10, m11


def _scalar(item_id: int, state, params) -> dict:
    """Algorithm 2 lines 3–7 for a single work item."""
    span, m00, m01, m10, m11 = _params(params)
    v = state["v"]
    j = 2 * item_id - (item_id & (span - 1))  # line 3
    t1 = v[j]  # line 4
    t2 = v[j + span]  # line 5
    return {
        ("v", j): m00 * t1 + m01 * t2,  # line 6
        ("v", j + span): m10 * t1 + m11 * t2,  # line 7
    }


def _batch(ids: np.ndarray, buffers, params) -> None:
    span, m00, m01, m10, m11 = _params(params)
    v = buffers["v"]
    j = 2 * ids - (ids & (span - 1))
    t1 = v[j]
    t2 = v[j + span]
    v[j] = m00 * t1 + m01 * t2
    v[j + span] = m10 * t1 + m11 * t2


#: Singleton kernel object (stateless; parameters arrive per launch).
fmmp_stage_kernel = Kernel(
    name="fmmp_stage",
    scalar_fn=_scalar,
    batch_fn=_batch,
    costs=KernelCosts(bytes_per_item=32.0, flops_per_item=6.0),
    buffer_names=("v",),
)


def plan_launcher(plan: Sequence[FusedStage]) -> Callable[..., None]:
    """Algorithm 2's host stage loop over ``plan``, built once.

    Returns ``launch(device, buffer)``, which runs every stage in order,
    in place on the named device buffer: a radix-2 stage is one
    :data:`fmmp_stage_kernel` launch of ``N/2`` items, a radix-4 stage (a
    2-bit group block) one launch of ``N/4`` items of the
    :func:`~repro.device.kernels.group_kernel.make_group4_stage_kernel`
    kernel built here for it.  A wider stage has no device kernel and
    raises :class:`~repro.exceptions.ValidationError`.
    """
    n = math.prod(stage.radix for stage in plan)
    launches = []
    for stage in plan:
        m = stage.matrix
        if stage.radix == 2:
            params = {"m00": m[0, 0], "m01": m[0, 1], "m10": m[1, 0], "m11": m[1, 1]}
            launches.append((fmmp_stage_kernel, n // 2, {"span": stage.span, **params}))
        elif stage.radix == 4:
            launches.append((make_group4_stage_kernel(m), n // 4, {"span": stage.span}))
        else:
            raise ValidationError(
                f"device kernels cover radix-2 and radix-4 stages (groups of 1 and "
                f"2 bits); a radix-{stage.radix} stage needs a dedicated kernel"
            )

    def launch(device, buffer: str) -> None:
        for kernel, items, params in launches:
            device.launch(kernel, items, params, binding={"v": buffer})

    return launch
