"""Distributed power iteration over the partitioned fast matvec.

The numerics run on the one power loop
(:class:`~repro.solvers.power.PowerIteration`: start check, fail-fast
λ, residual, history).  Its product scatters the iterate over the
ranks, scales each rank's block by its block of ``F``, runs the
distributed butterfly (:class:`~repro.distributed.fmmp.DistributedFmmp`:
local stages + hypercube exchanges) and gathers the result.  Time is
modeled per iteration: per-rank roofline compute for the diagonal
product, the butterfly and the loop's block-local passes (abs-sum,
scale, residual map, copy), plus the α–β cost of the exchanges and of
the two allreduces (λ and the residual).

This realizes the paper's stated future direction — the *memory* wall
falls as ``N/R`` per rank while the communication cost grows only like
``log₂ R`` exchanges per matvec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributed.cluster import ClusterProfile
from repro.distributed.fmmp import DistributedFmmp
from repro.distributed.partition import PartitionedVector
from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.persite import PerSiteMutation
from repro.mutation.uniform import UniformMutation
from repro.operators.base import ImplicitOperator, OperatorCosts
from repro.perf.costs import fmmp_costs
from repro.solvers.power import PowerIteration
from repro.solvers.result import SolveResult

__all__ = ["DistributedPowerIteration", "DistributedRunReport"]


@dataclass
class DistributedRunReport:
    """Outcome of a distributed solve.

    Attributes
    ----------
    result:
        The numerical eigenpair (identical to the serial solvers).
    ranks:
        Cluster size used.
    modeled_total_s:
        Modeled end-to-end wall-clock.
    modeled_compute_s / modeled_comm_s:
        Per-rank compute vs communication split.
    comm_bytes_per_rank:
        Total bytes each rank sent.
    memory_per_rank_bytes:
        Peak state per rank (the quantity the paper wants scaled down).
    """

    result: SolveResult
    ranks: int
    modeled_total_s: float
    modeled_compute_s: float
    modeled_comm_s: float
    comm_bytes_per_rank: float
    memory_per_rank_bytes: float

    @property
    def comm_fraction(self) -> float:
        total = self.modeled_total_s or 1.0
        return self.modeled_comm_s / total


class DistributedPowerIteration:
    """Power iteration on ``W = Q·F`` over a simulated cluster.

    Parameters
    ----------
    cluster:
        Simulated cluster profile (``R`` must divide ``N/2``).
    mutation:
        Uniform or per-site mutation model (per-bit butterfly factors).
    landscape:
        The fitness landscape.
    tol, max_iterations:
        Stopping criterion on ``‖Wx − λx‖₂``.
    """

    def __init__(
        self,
        cluster: ClusterProfile,
        mutation: UniformMutation | PerSiteMutation,
        landscape: FitnessLandscape,
        *,
        tol: float = 1e-12,
        max_iterations: int = 100_000,
    ):
        if not isinstance(mutation, (UniformMutation, PerSiteMutation)):
            raise ValidationError("distributed pipeline needs per-bit 2x2 factors")
        if mutation.nu != landscape.nu:
            raise ValidationError("mutation and landscape chain lengths disagree")
        self.cluster = cluster
        self.mutation = mutation
        self.landscape = landscape
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.op = DistributedFmmp(cluster, mutation.factors_per_bit())
        self.n = mutation.n

    # ----------------------------------------------------------------- run
    def run(self, start: np.ndarray | None = None, *, raise_on_fail: bool = True) -> DistributedRunReport:
        """Execute the solve; numerics real, time modeled."""
        cl = self.cluster
        r = cl.ranks
        b = float(self.op.block_size)

        # ---- per-iteration modeled costs (ranks are symmetric) --------
        node = cl.node
        # diagonal product + abs-sum + scale + residual map + copy: all
        # block-local streaming passes.
        local_passes_bytes = (24.0 + 24.0 + 16.0 + 32.0 + 16.0) * b
        local_passes_flops = (1.0 + 1.0 + 1.0 + 2.0) * b
        compute_per_iter = (
            self.op.compute_time_per_matvec()
            + node.kernel_time(local_passes_bytes, local_passes_flops)
            + 5.0 * node.launch_overhead_s
        )
        comm_per_iter = self.op.comm_time_per_matvec() + 2.0 * cl.allreduce_time()

        solver = PowerIteration(
            _DistributedW(self.op, self.landscape.values()),
            tol=self.tol,
            max_iterations=self.max_iterations,
            record_history=True,
        )
        result = solver.solve(
            self.landscape.start_vector() if start is None else start,
            raise_on_fail=raise_on_fail,
            method_name=f"Distributed-Pi(Fmmp) on {r} x {node.name}",
        )
        iterations = result.iterations
        return DistributedRunReport(
            result=result,
            ranks=r,
            modeled_total_s=iterations * (compute_per_iter + comm_per_iter),
            modeled_compute_s=iterations * compute_per_iter,
            modeled_comm_s=iterations * comm_per_iter,
            comm_bytes_per_rank=iterations * self.op.comm_bytes_per_matvec(),
            memory_per_rank_bytes=8.0 * b * 3.0,  # x, w, f blocks
        )


class _DistributedW(ImplicitOperator):
    """``W·v = Q·(F∘v)`` on the simulated cluster: scatter ``v``, scale
    each rank's block by its ``F`` block, apply the distributed
    butterfly, gather."""

    def __init__(self, op: DistributedFmmp, f: np.ndarray):
        self.op = op
        self.n = op.n
        self._f = PartitionedVector.scatter(f, op.cluster.ranks)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        x = PartitionedVector.scatter(self.check(v), self.op.cluster.ranks)
        w = PartitionedVector([xb * fb for xb, fb in zip(x.blocks, self._f.blocks)])
        return self.op.apply(w).gather()

    @property
    def is_symmetric(self) -> bool:
        return False

    def costs(self) -> OperatorCosts:
        """The paper's radix-2 plan over all ``N`` elements, with the
        ``F`` pre-scale as its own pass."""
        return fmmp_costs(self.op.nu)
