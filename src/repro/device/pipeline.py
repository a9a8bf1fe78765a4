"""Full on-device power iteration (the paper's Sec. 4 pipeline).

Runs the entire ``Pi(Fmmp)`` / ``Pi(Xmvp(dmax))`` loop through device
kernels: host code only drives stage loops, polls scalar reduction
results, and performs the initial/final transfers — exactly the
structure of the paper's OpenCL implementation ("the i-loop runs at the
host, in each iteration of the i-loop the kernel is called with N/2
threads").

The returned :class:`DeviceRunReport` carries both the numerical
:class:`~repro.solvers.result.SolveResult` (real, validated numerics)
and the modeled time breakdown — including the split between matvec
kernels and reduction kernels that backs the paper's remark that the
summation "has almost no influence on the overall execution time".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitops.classes import masks_up_to_distance
from repro.device.kernels.elementwise import (
    abs_kernel,
    axpy_kernel,
    copy_kernel,
    diff_square_into_kernel,
    multiply_into_kernel,
    scale_kernel,
)
from repro.device.kernels.fmmp_kernel import plan_launcher
from repro.device.kernels.reduce_kernel import tree_reduce_sum
from repro.device.kernels.xmvp_kernel import xmvp_pass_kernel
from repro.device.runtime import Device
from repro.exceptions import ConvergenceError, DeviceError, ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.mutation.uniform import UniformMutation
from repro.solvers.result import IterationRecord, SolveResult

__all__ = ["DevicePowerIteration", "DeviceRunReport"]

_MATVEC_KERNELS = {"fmmp_stage", "xmvp_pass", "xmvp_fused", "multiply_into"}
_REDUCTION_KERNELS = {"reduce_add_stage", "abs_into", "diff_square_into", "square_into"}


@dataclass
class DeviceRunReport:
    """Outcome of one on-device solve.

    Attributes
    ----------
    result:
        The numerical eigenpair (identical semantics to the host
        solvers).
    modeled_total_s:
        Modeled end-to-end time, transfers included (what Fig. 3 plots).
    modeled_kernel_s / modeled_transfer_s:
        Kernel vs host↔device split.
    time_by_class:
        Modeled seconds per kernel class: ``matvec``, ``reduction``,
        ``other``.
    launches:
        Total kernel launches.
    """

    result: SolveResult
    modeled_total_s: float
    modeled_kernel_s: float
    modeled_transfer_s: float
    time_by_class: dict = field(default_factory=dict)
    launches: int = 0

    @property
    def reduction_fraction(self) -> float:
        """Share of kernel time spent in reductions (paper: ≈ negligible)."""
        total = sum(self.time_by_class.values()) or 1.0
        return self.time_by_class.get("reduction", 0.0) / total


class DevicePowerIteration:
    """Power iteration executed through the simulated device.

    Parameters
    ----------
    device:
        The simulated :class:`~repro.device.runtime.Device`.
    mutation:
        The mutation model.  ``"fmmp"`` launches its radix-2 plan
        (:meth:`~repro.mutation.base.MutationModel.plan` with
        ``max_radix=2``) stage by stage; a stage above radix 4 (a group
        of three or more bits) has no device kernel and raises
        :class:`~repro.exceptions.ValidationError`.
    landscape:
        The fitness landscape.
    operator:
        ``"fmmp"`` or ``"xmvp"``.
    dmax:
        Cut-off distance for ``xmvp``.
    tol, max_iterations:
        Stopping criterion ``‖Wx − λx‖₂ < tol``.
    shift:
        Optional scalar shift μ (applied as one extra axpy per
        iteration, exactly its real cost).
    fused_xmvp:
        Run Xmvp as the paper-style single fused kernel per matvec
        (register accumulator) instead of one launch per XOR mask —
        see :mod:`repro.device.kernels.xmvp_fused`.
    """

    def __init__(
        self,
        device: Device,
        mutation: MutationModel,
        landscape: FitnessLandscape,
        *,
        operator: str = "fmmp",
        dmax: int | None = None,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
        shift: float = 0.0,
        fused_xmvp: bool = False,
    ):
        if mutation.nu != landscape.nu:
            raise ValidationError("mutation and landscape chain lengths disagree")
        if operator not in ("fmmp", "xmvp"):
            raise ValidationError(f"operator must be 'fmmp' or 'xmvp', got {operator!r}")
        if operator == "xmvp" and not isinstance(mutation, UniformMutation):
            raise ValidationError("xmvp requires the uniform mutation model")
        self.device = device
        self.mutation = mutation
        self.landscape = landscape
        self.operator = operator
        self.nu = mutation.nu
        self.n = mutation.n
        self.dmax = int(dmax) if dmax is not None else self.nu
        if operator == "xmvp" and not 1 <= self.dmax <= self.nu:
            raise ValidationError(f"dmax must be in [1, {self.nu}]")
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.shift = float(shift)
        self.fused_xmvp = bool(fused_xmvp)
        if operator == "fmmp":
            self._launch_q = plan_launcher(mutation.plan(max_radix=2))
        else:
            self._masks = masks_up_to_distance(self.nu, self.dmax)
            self._q_class = mutation.class_values()
            if self.fused_xmvp:
                from repro.device.kernels.xmvp_fused import make_fused_xmvp_kernel

                all_masks = np.concatenate(self._masks)
                weights = np.concatenate(
                    [np.full(len(m), self._q_class[k]) for k, m in enumerate(self._masks)]
                )
                self._fused_kernel = make_fused_xmvp_kernel(all_masks, weights)

    # -------------------------------------------------------------- helpers
    def _apply_q_xmvp(self, src: str, dst: str) -> None:
        """Accumulate XOR passes: ``dst = Σ_k QΓ_k Σ_m src[· ^ m]``."""
        # dst = QΓ_0 · src  (the k = 0 identity mask)
        self.device.launch(copy_kernel, self.n, binding={"dst": dst, "src": src})
        self.device.launch(scale_kernel, self.n, {"alpha": self._q_class[0]}, binding={"v": dst})
        for k in range(1, self.dmax + 1):
            qk = float(self._q_class[k])
            for m in self._masks[k]:
                self.device.launch(
                    xmvp_pass_kernel,
                    self.n,
                    {"mask": int(m), "q": qk},
                    binding={"acc": dst, "w": src},
                )

    def _sum_into_scratch(self, kernel, bindings: dict) -> float:
        """Map into the scratch buffer, then tree-reduce it to a scalar."""
        self.device.launch(kernel, self.n, binding=bindings)
        return tree_reduce_sum(self.device, "scratch", self.n)

    # ----------------------------------------------------------------- run
    def run(self, start: np.ndarray | None = None, *, raise_on_fail: bool = True) -> DeviceRunReport:
        """Execute the full pipeline and return the report.

        Allocates buffers ``x`` (iterate), ``w`` (product), ``f``
        (fitness), ``scratch`` (reductions) and, for xmvp, ``acc``.
        """
        dev = self.device
        n = self.n
        for name in ("x", "w", "f", "scratch") + (("acc",) if self.operator == "xmvp" else ()):
            dev.alloc(name, n)
        try:
            return self._run_inner(start, raise_on_fail)
        finally:
            for name in ("x", "w", "f", "scratch") + (("acc",) if self.operator == "xmvp" else ()):
                try:
                    dev.free(name)
                except DeviceError:  # pragma: no cover - defensive cleanup
                    pass

    def _run_inner(self, start, raise_on_fail) -> DeviceRunReport:
        dev = self.device
        n = self.n
        x0 = self.landscape.start_vector() if start is None else np.asarray(start, float)
        if x0.shape != (n,):
            raise ValidationError(f"start vector must have shape ({n},)")
        x0 = x0 / np.abs(x0).sum()

        dev.to_device("f", self.landscape.values())
        dev.to_device("x", x0)

        history: list[IterationRecord] = []
        lam = 0.0
        residual = np.inf
        iterations = 0
        # The buffer holding the product W·x each iteration: the fused
        # Xmvp kernel writes straight into "acc" (no copy-back, matching
        # its cost model); every other path lands in "w".
        prod = "acc" if (self.operator == "xmvp" and self.fused_xmvp) else "w"
        for iterations in range(1, self.max_iterations + 1):
            # w = F·x
            dev.launch(multiply_into_kernel, n, binding={"dst": "w", "a": "x", "b": "f"})
            # prod = Q·w
            if self.operator == "fmmp":
                self._launch_q(dev, "w")
            elif self.fused_xmvp:
                dev.launch(self._fused_kernel, n, binding={"y": "acc", "w": "w"})
            else:
                self._apply_q_xmvp("w", "acc")
                dev.launch(copy_kernel, n, binding={"dst": "w", "src": "acc"})
            # optional shift: prod -= μ·x
            if self.shift != 0.0:
                dev.launch(axpy_kernel, n, {"alpha": -self.shift}, binding={"y": prod, "x": "x"})
            # λ = ‖prod‖₁ (≥ 0 for the Perron iterate; abs for faithfulness)
            lam = self._sum_into_scratch(abs_kernel, {"dst": "scratch", "src": prod})
            if lam <= 0.0:
                raise ConvergenceError("device iterate collapsed to zero", iterations=iterations)
            dev.launch(scale_kernel, n, {"alpha": 1.0 / lam}, binding={"v": prod})
            # residual² = Σ (prod − x)²   (scaled by λ afterwards)
            r2 = self._sum_into_scratch(
                diff_square_into_kernel, {"dst": "scratch", "a": prod, "b": "x"}
            )
            residual = lam * float(np.sqrt(max(r2, 0.0)))
            dev.launch(copy_kernel, n, binding={"dst": "x", "src": prod})
            history.append(IterationRecord(iterations, lam + self.shift, residual))
            if residual < self.tol:
                break

        converged = residual < self.tol
        if not converged and raise_on_fail:
            raise ConvergenceError(
                f"device power iteration did not reach tol={self.tol}",
                iterations=iterations,
                residual=residual,
            )

        x = dev.from_device("x")
        x = np.abs(x)
        x /= x.sum()
        acct = dev.accounting
        by_class = {"matvec": 0.0, "reduction": 0.0, "other": 0.0}
        for rec in acct.records:
            if rec.kernel in _MATVEC_KERNELS:
                by_class["matvec"] += rec.modeled_time_s
            elif rec.kernel in _REDUCTION_KERNELS:
                by_class["reduction"] += rec.modeled_time_s
            else:
                by_class["other"] += rec.modeled_time_s

        if self.operator == "fmmp":
            op_label = "Fmmp"
        else:
            op_label = f"Xmvp({self.dmax}{', fused' if self.fused_xmvp else ''})"
        result = SolveResult(
            eigenvalue=lam + self.shift,
            eigenvector=x,
            concentrations=x,
            iterations=iterations,
            residual=residual,
            converged=converged,
            method=f"Device-Pi({op_label}) on {dev.profile.name}",
            history=history,
        )
        return DeviceRunReport(
            result=result,
            modeled_total_s=acct.total_time_s,
            modeled_kernel_s=acct.kernel_time_s,
            modeled_transfer_s=acct.transfer_time_s,
            time_by_class=by_class,
            launches=acct.launches,
        )
