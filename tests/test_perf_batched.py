"""One cost function, derived from the plan.

The contract: every Fmmp byte/flop count is ``plan_costs`` of a
``FusedStage`` plan.  ``Fmmp.costs``, ``BatchedFmmp.costs`` and
``TransposedFmmp.costs`` count the plan their own product runs; the
paper model (``fmmp_costs``, ``operator_costs("fmmp")``) and
``DistributedFmmp``'s compute time count the radix-2 plan, and must
equal the closed forms they replaced exactly.
"""

import numpy as np
import pytest

from repro.distributed.cluster import gpu_cluster
from repro.distributed.fmmp import DistributedFmmp
from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators import BatchedFmmp, Fmmp
from repro.operators.base import OperatorCosts
from repro.operators.batched import form_scales
from repro.perf import fmmp_costs, operator_costs, plan_costs
from repro.solvers import TransposedFmmp
from repro.transforms.batched import fused_stage_count, fused_stage_plan


def factors(nu):
    return UniformMutation(nu, 0.01).factors_per_bit()


def scale_shapes(form, shape):
    return form_scales(form, shape, shape)


class TestPlanCosts:
    @pytest.mark.parametrize("nu", [2, 3, 8, 18])
    @pytest.mark.parametrize("batch", [1, 4, 16])
    def test_bytes_track_the_sweep_schedule(self, nu, batch):
        n = 1 << nu
        costs = plan_costs(fused_stage_plan(factors(nu)), n, batch, (n,))
        b = float(batch)
        sweeps = fused_stage_count(nu)
        assert sweeps == -(-nu // 3)  # radix ≤ 8 sweeps
        # fused sweeps + the read of a shared (N,) pre-scale riding on the first
        expected = 16.0 * n * b * sweeps + 8.0 * n
        assert costs.bytes_moved == pytest.approx(expected)
        assert costs.batch == batch

    @pytest.mark.parametrize("nu", range(1, 13))
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("max_radix,bits", [(2, 1), (4, 2), (8, 3)])
    def test_each_stage_moves_16_n_b(self, nu, batch, max_radix, bits):
        """One read and one write of the block per sweep, whatever its
        radix: ``16·N·B·⌈ν/k⌉`` bytes for ``k = log2(max_radix)``.
        (perfbench's ``fused.gbs`` still divides by its own fixed
        ``16·N·B·⌈ν/2⌉``.)"""
        n = 1 << nu
        plan = fused_stage_plan(factors(nu), max_radix=max_radix)
        for stage in plan:
            assert plan_costs([stage], n, batch).bytes_moved == 16.0 * n * batch
        assert plan_costs(plan, n, batch).bytes_moved == 16.0 * n * batch * -(-nu // bits)

    def test_form_scale_passes(self):
        n = 1 << 8
        plan = fused_stage_plan(factors(8))
        right, sym, left = (
            plan_costs(plan, n, 4, *scale_shapes(form, (n,)))
            for form in ("right", "symmetric", "left")
        )
        assert right.bytes_moved == left.bytes_moved  # one scale read each
        assert sym.bytes_moved > right.bytes_moved  # pre AND post

    @pytest.mark.parametrize("max_radix,sweeps", [(2, 8), (4, 4), (8, 3)])
    def test_sweep_bytes_drop_with_the_radix(self, max_radix, sweeps):
        n, b = 1 << 8, 16
        fused = plan_costs(fused_stage_plan(factors(8), max_radix=max_radix), n, b)
        default = plan_costs(fused_stage_plan(factors(8)), n, b)
        # ν = 8: 8 radix-2, 4 radix-4 or 3 radix-8 sweeps of 16·N·B bytes
        assert fused.bytes_moved == 16.0 * n * b * sweeps
        assert fused.bytes_moved - default.bytes_moved == 16.0 * n * b * (sweeps - 3)

    def test_per_column_scale_read_is_counted(self):
        n, b = 1 << 6, 5
        plan = fused_stage_plan(factors(6))
        shared = plan_costs(plan, n, b, (n,))
        per_column = plan_costs(plan, n, b, (n, b))
        assert per_column.bytes_moved - shared.bytes_moved == 8.0 * n * (b - 1)
        assert per_column.storage_bytes == 8.0 * n * b

    def test_per_vector_amortization(self):
        op = Fmmp(UniformMutation(10, 0.01), SinglePeakLandscape(10))
        c16, c1 = op.costs(batch=16), op.costs(batch=1)
        assert c16.per_vector().bytes_moved < c1.per_vector().bytes_moved
        assert c16.per_vector().batch == 1

    def test_validation(self):
        plan = fused_stage_plan(factors(3))
        with pytest.raises(ValidationError):
            plan_costs(plan, 8, 0)
        with pytest.raises(ValidationError, match="pre"):
            plan_costs(plan, 8, 4, (4,))
        with pytest.raises(ValidationError, match="post"):
            plan_costs(plan, 8, 4, None, (8, 3))


class TestCostReconciliation:
    """Each operator's ``costs`` is ``plan_costs`` of the plan its
    product runs — at every batch width, ``B = 1`` included."""

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("batch", [1, 2, 16])
    def test_fmmp_costs_batch_delegates_to_model(self, form, variant, batch):
        nu = 8
        n = 1 << nu
        mutation = UniformMutation(nu, 0.01)
        op = Fmmp(mutation, SinglePeakLandscape(nu), form=form, variant=variant)
        plan = fused_stage_plan(mutation.factors_per_bit(), variant=variant)
        assert op.costs(batch=batch) == plan_costs(plan, n, batch, *scale_shapes(form, (n,)))

    def test_single_vector_bytes_are_the_fused_kernel_bytes(self):
        """``Fmmp.matvec`` at ν = 8, right form: three radix ≤ 8 sweeps
        (8, 8, 4) and the read of the pre-scale riding on the first (four
        radix-4 sweeps would be 18,432; the stage-by-stage count with its
        separate scale pass is 38,912)."""
        op = Fmmp(UniformMutation(8, 0.01), SinglePeakLandscape(8))
        assert op.costs().bytes_moved == 16.0 * 256 * 3 + 8.0 * 256 == 14336.0

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_per_column_batched_operator_costs(self, form):
        nu, b = 7, 3
        n = 1 << nu
        mutation = PerSiteMutation.from_error_rates(np.linspace(0.01, 0.2, nu))
        op = BatchedFmmp(mutation, [RandomLandscape(nu, seed=s) for s in range(b)], form=form)
        plan = fused_stage_plan(mutation.factors_per_bit())
        assert op.costs() == plan_costs(plan, n, b, *scale_shapes(form, (n, b)))
        assert op.costs(batch=2) == plan_costs(plan, n, 2, *scale_shapes(form, (n, 2)))

    def test_shared_batched_operator_costs_match_fmmp(self):
        nu = 7
        mutation = UniformMutation(nu, 0.02)
        land = RandomLandscape(nu, seed=1)
        op = BatchedFmmp(mutation, land, form="symmetric")
        assert op.costs() == Fmmp(mutation, land, form="symmetric").costs()
        assert op.costs(batch=4) == Fmmp(mutation, land, form="symmetric").costs(batch=4)

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_transposed_costs_use_its_own_plan(self, form):
        nu = 6
        n = 1 << nu
        mutation = PerSiteMutation.from_error_rates(np.linspace(0.01, 0.3, nu))
        land = RandomLandscape(nu, seed=2)
        plan = fused_stage_plan([f.T for f in mutation.factors_per_bit()])
        adjoint = {"right": "left", "symmetric": "symmetric", "left": "right"}[form]
        got = TransposedFmmp(mutation, land, form=form).costs()
        assert got == plan_costs(plan, n, 1, *scale_shapes(adjoint, (n,)))
        assert got == Fmmp(mutation, land, form=form).costs()

    def test_scalar_costs_unchanged_at_batch_1(self):
        nu = 8
        op = Fmmp(UniformMutation(nu, 0.01), SinglePeakLandscape(nu))
        assert op.costs().batch == 1
        assert op.costs().bytes_moved == pytest.approx(op.costs(batch=1).bytes_moved)

    def test_grouped_mutation_costs_scale_linearly(self):
        nu = 4
        mutation = GroupedMutation([site_factor(0.1) for _ in range(nu)])
        op = Fmmp(mutation, SinglePeakLandscape(nu))
        c1, c4 = op.costs(batch=1), op.costs(batch=4)
        assert c4.flops == pytest.approx(4.0 * c1.flops)
        assert c4.batch == 4

    def test_grouped_costs_shared_by_every_operator(self):
        nu = 4
        mutation = GroupedMutation([site_factor(0.1) for _ in range(nu)])
        land = SinglePeakLandscape(nu)
        fmmp = Fmmp(mutation, land, form="symmetric")
        assert BatchedFmmp(mutation, land, form="symmetric").costs() == fmmp.costs()
        assert TransposedFmmp(mutation, land, form="symmetric").costs() == fmmp.costs()

    def test_operator_costs_per_vector(self):
        c = OperatorCosts(flops=80.0, bytes_moved=160.0, storage_bytes=8.0, batch=4)
        pv = c.per_vector()
        assert pv.flops == 20.0 and pv.bytes_moved == 40.0 and pv.batch == 1
        assert pv.storage_bytes == 8.0


def paper_fmmp_costs(nu, scale_passes):
    """The closed form ``fmmp_costs`` used before it was derived from
    the plan: ν stages of N/2 butterflies × (4 memory ops + 6 flops)."""
    n = float(1 << nu)
    return OperatorCosts(
        flops=6.0 * (n / 2.0) * nu + scale_passes * n,
        bytes_moved=8.0 * (4.0 * (n / 2.0) * nu + 3.0 * scale_passes * n),
        storage_bytes=8.0 * n,
    )


def paper_distributed_compute_time(op):
    """The closed form of ``DistributedFmmp.compute_time_per_matvec``
    used before it was derived from the plan."""
    b = float(op.block_size)
    bytes_moved = 32.0 * (b / 2.0) * op.local_stages + 32.0 * b * op.cross_stages / 2.0
    flops = 6.0 * (b / 2.0) * op.local_stages + 6.0 * b * op.cross_stages / 2.0
    t = op.cluster.node.kernel_time(bytes_moved, flops)
    t += (op.local_stages + op.cross_stages - 1) * op.cluster.node.launch_overhead_s
    return t


class TestPaperModelParity:
    """The plan-derived paper model is bit-identical to the closed forms
    it replaced, so the Fig. 3/4 and distributed outputs cannot move."""

    @pytest.mark.parametrize("nu", range(1, 26))
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("scale_passes", [1, 2])
    def test_fmmp_costs_equal_closed_form(self, nu, variant, scale_passes):
        want = paper_fmmp_costs(nu, scale_passes)
        n = 1 << nu
        plan = fused_stage_plan([np.eye(2)] * nu, variant=variant, max_radix=2)
        post = (n,) if scale_passes == 2 else None
        # the fused kernel's scales ride on its sweeps: no block traffic of their own
        fused = plan_costs(plan, n, 1, (n,), post)
        assert fused.flops == want.flops
        assert fused.bytes_moved == want.bytes_moved - scale_passes * 16.0 * n
        if scale_passes == 1:
            assert fmmp_costs(nu) == want
            assert operator_costs("fmmp", nu) == want

    @pytest.mark.parametrize("nu", range(1, 26))
    def test_distributed_compute_time_equals_closed_form(self, nu):
        ranks = 1
        while ranks <= (1 << nu) // 2 and ranks <= 64:
            op = DistributedFmmp(gpu_cluster(ranks), factors(nu))
            assert op.compute_time_per_matvec() == paper_distributed_compute_time(op)
            ranks *= 2


class TestMeasurement:
    def test_scalar_model_still_available(self):
        # Algorithm 1's stage-by-stage bytes model stays available
        assert fmmp_costs(8).bytes_moved > 0.0
