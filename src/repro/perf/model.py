"""Roofline time predictions for matvecs and full power iterations.

The matvec model is the plain roofline formula from the cost descriptor.
The pipeline model (:class:`PipelineCostModel`) analytically mirrors the
kernel schedule of :class:`~repro.device.pipeline.DevicePowerIteration`
— launch by launch, each launch costed by the
:class:`~repro.device.kernel.KernelCosts` of the kernel the pipeline
launches — so that for any problem the analytic prediction and the
simulated device's accounting agree *exactly* (asserted in
tests/test_perf.py).  This is what lets the Fig. 3/4 benches extend to
ν = 25 without hours of simulated execution, precisely as the paper
extrapolated its reference curves.
"""

from __future__ import annotations

from repro.device.kernel import KernelCosts
from repro.device.kernels.elementwise import (
    abs_kernel,
    axpy_kernel,
    copy_kernel,
    diff_square_into_kernel,
    multiply_into_kernel,
    scale_kernel,
)
from repro.device.kernels.fmmp_kernel import fmmp_stage_kernel
from repro.device.kernels.reduce_kernel import reduce_add_stage_kernel
from repro.device.kernels.xmvp_fused import fused_xmvp_costs
from repro.device.kernels.xmvp_kernel import xmvp_pass_kernel
from repro.device.profile import HardwareProfile
from repro.exceptions import ValidationError
from repro.operators.base import OperatorCosts
from repro.perf.costs import xmvp_mask_count

__all__ = ["predict_matvec_time", "predict_power_iteration_time", "PipelineCostModel"]

#: One aggregated launch group: (per-item costs, work items, launches).
_Launch = tuple[KernelCosts, float, int]


def predict_matvec_time(profile: HardwareProfile, costs: OperatorCosts) -> float:
    """Roofline duration of one matvec on ``profile`` (no launch splits)."""
    return profile.kernel_time(costs.bytes_moved, costs.flops)


class PipelineCostModel:
    """Analytic mirror of the on-device power iteration.

    Parameters
    ----------
    nu:
        Chain length; ``N = 2**nu``.
    operator:
        ``"fmmp"`` or ``"xmvp"``.
    dmax:
        Cut-off for ``xmvp``.
    shifted:
        Whether the shift axpy is part of each iteration.

    Notes
    -----
    The launch schedule is kept in sync with
    :class:`repro.device.pipeline.DevicePowerIteration`; the unit test
    locks the two together by comparing against a real simulated run.
    """

    def __init__(
        self,
        nu: int,
        operator: str = "fmmp",
        dmax: int | None = None,
        *,
        shifted: bool = False,
        fused_xmvp: bool = False,
    ):
        if operator not in ("fmmp", "xmvp"):
            raise ValidationError(f"operator must be 'fmmp' or 'xmvp', got {operator!r}")
        self.nu = int(nu)
        self.n = 1 << self.nu
        self.operator = operator
        self.dmax = int(dmax) if dmax is not None else self.nu
        self.shifted = bool(shifted)
        #: ``False`` (default) models our simulated device verbatim: one
        #: gather-add kernel launch per XOR mask (accumulator re-read and
        #: re-written each pass).  ``True`` models the paper's natural
        #: OpenCL implementation: a single kernel per matvec whose work
        #: item loops over all masks with the accumulator in a register —
        #: 8 bytes per mask per item instead of 24, and one launch.
        self.fused_xmvp = bool(fused_xmvp)

    # ------------------------------------------------------------ schedule
    def _iteration_kernels(self) -> list[_Launch]:
        """Launch schedule as ``(costs, items, count)`` triples.

        Identical launches are aggregated with a multiplier — the total
        time is exactly linear in the count (per-launch overhead and
        roofline both scale), and this keeps the model O(1) even for the
        tens of millions of mask passes of an exact Xmvp at ν = 25.
        """
        n = float(self.n)
        launches: list[_Launch] = [(multiply_into_kernel.costs, n, 1)]  # w = F·x
        # Q·w
        if self.operator == "fmmp":
            launches.append((fmmp_stage_kernel.costs, n / 2.0, self.nu))
        elif self.fused_xmvp:
            launches.append((fused_xmvp_costs(xmvp_mask_count(self.nu, self.dmax)), n, 1))
        else:
            launches.append((copy_kernel.costs, n, 1))
            launches.append((scale_kernel.costs, n, 1))  # by QΓ0
            passes = xmvp_mask_count(self.nu, self.dmax) - 1  # k >= 1 masks
            launches.append((xmvp_pass_kernel.costs, n, passes))
            launches.append((copy_kernel.costs, n, 1))  # acc -> w
        if self.shifted:
            launches.append((axpy_kernel.costs, n, 1))
        # λ: abs map + tree reduction
        launches.append((abs_kernel.costs, n, 1))
        launches.extend(self._reduction_stages())
        launches.append((scale_kernel.costs, n, 1))  # normalize
        # residual: diff-square map + tree reduction
        launches.append((diff_square_into_kernel.costs, n, 1))
        launches.extend(self._reduction_stages())
        launches.append((copy_kernel.costs, n, 1))  # x <- w
        return launches

    def _reduction_stages(self) -> list[_Launch]:
        stages = []
        half = self.n // 2
        while half >= 1:
            stages.append((reduce_add_stage_kernel.costs, float(half), 1))
            half //= 2
        return stages

    # ----------------------------------------------------------- predictions
    def launches_per_iteration(self) -> int:
        return sum(count for _, _, count in self._iteration_kernels())

    def iteration_time(self, profile: HardwareProfile) -> float:
        """Modeled duration of one full power-iteration step."""
        return sum(
            count * profile.kernel_time(costs.bytes_per_item * items, costs.flops_per_item * items)
            for costs, items, count in self._iteration_kernels()
        )

    def scalar_readback_time(self, profile: HardwareProfile) -> float:
        """Two 8-byte reductions results polled per iteration."""
        return 2.0 * profile.transfer_time(8.0)

    def transfer_time(self, profile: HardwareProfile) -> float:
        """Initial f + x uploads and the final x download."""
        return 3.0 * profile.transfer_time(8.0 * self.n)

    def total_time(self, profile: HardwareProfile, iterations: int) -> float:
        """End-to-end modeled time for ``iterations`` steps, transfers
        included — the quantity Fig. 3 plots."""
        if iterations < 1:
            raise ValidationError("iterations must be >= 1")
        per_iter = self.iteration_time(profile) + self.scalar_readback_time(profile)
        return self.transfer_time(profile) + iterations * per_iter


def predict_power_iteration_time(
    profile: HardwareProfile,
    nu: int,
    iterations: int,
    *,
    operator: str = "fmmp",
    dmax: int | None = None,
    shifted: bool = False,
) -> float:
    """Convenience wrapper around :class:`PipelineCostModel`."""
    model = PipelineCostModel(nu, operator, dmax, shifted=shifted)
    return model.total_time(profile, iterations)
