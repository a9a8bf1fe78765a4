"""Tests for the full on-device power iteration."""

import numpy as np
import pytest

from repro.device import (
    Device,
    DevicePowerIteration,
    INTEL_I5_750_SINGLE_CORE,
    TESLA_C2050,
)
from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import PerSiteMutation, UniformMutation
from repro.solvers import dense_solve


@pytest.fixture
def problem():
    nu, p = 7, 0.01
    mut = UniformMutation(nu, p)
    ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=13)
    return mut, ls, dense_solve(mut, ls)


class TestNumericalFidelity:
    def test_fmmp_pipeline_matches_dense(self, problem):
        mut, ls, ref = problem
        dev = Device(TESLA_C2050, validate=True)
        rep = DevicePowerIteration(dev, mut, ls, operator="fmmp", tol=1e-13).run()
        assert rep.result.converged
        assert rep.result.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-10)
        np.testing.assert_allclose(rep.result.concentrations, ref.concentrations, atol=1e-9)

    def test_xmvp_full_pipeline_matches_dense(self, problem):
        mut, ls, ref = problem
        dev = Device(TESLA_C2050, validate=True)
        rep = DevicePowerIteration(
            dev, mut, ls, operator="xmvp", dmax=mut.nu, tol=1e-13
        ).run()
        np.testing.assert_allclose(rep.result.concentrations, ref.concentrations, atol=1e-9)

    def test_device_and_host_solvers_identical(self, problem):
        """The GPU pipeline and the host Pi(Fmmp) deliver the same result
        — 'the reference computation and the fastest combination deliver
        the same results' (paper, Sec. 4)."""
        from repro.operators import Fmmp
        from repro.solvers import PowerIteration

        mut, ls, _ = problem
        host = PowerIteration(Fmmp(mut, ls), tol=1e-13).solve(ls.start_vector())
        dev = Device(TESLA_C2050)
        rep = DevicePowerIteration(dev, mut, ls, operator="fmmp", tol=1e-13).run()
        assert rep.result.iterations == host.iterations
        np.testing.assert_allclose(
            rep.result.concentrations, host.concentrations, atol=1e-12
        )

    def test_per_site_mutation_pipeline(self):
        rates = [0.01, 0.02, 0.015, 0.03, 0.01, 0.02]
        mut = PerSiteMutation.from_error_rates(rates)
        ls = RandomLandscape(6, seed=3)
        ref = dense_solve(mut, ls)
        dev = Device(TESLA_C2050, validate=True)
        rep = DevicePowerIteration(dev, mut, ls, tol=1e-13).run()
        np.testing.assert_allclose(rep.result.concentrations, ref.concentrations, atol=1e-9)

    def test_shifted_pipeline(self, problem):
        from repro.operators.shifted import conservative_shift

        mut, ls, ref = problem
        mu = conservative_shift(mut, ls)
        dev_plain = Device(TESLA_C2050)
        plain = DevicePowerIteration(dev_plain, mut, ls, tol=1e-12).run()
        dev_shift = Device(TESLA_C2050)
        shifted = DevicePowerIteration(dev_shift, mut, ls, tol=1e-12, shift=mu).run()
        assert shifted.result.iterations < plain.result.iterations
        assert shifted.result.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-9)


class TestModeledPerformance:
    def test_gpu_faster_than_single_core_model(self):
        """Same algorithm, different hardware ⇒ shifted (parallel) time
        curves.  The GPU wins once the data volume outweighs its launch
        overhead (at tiny ν the zero-overhead CPU is rightly faster —
        also a real phenomenon)."""
        nu = 14
        mut = UniformMutation(nu, 0.01)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=13)
        rep_gpu = DevicePowerIteration(Device(TESLA_C2050), mut, ls, tol=1e-12).run()
        rep_cpu = DevicePowerIteration(
            Device(INTEL_I5_750_SINGLE_CORE), mut, ls, tol=1e-12
        ).run()
        assert rep_gpu.modeled_kernel_s < rep_cpu.modeled_kernel_s

    def test_xmvp_models_slower_than_fmmp(self, problem):
        mut, ls, _ = problem
        fmmp = DevicePowerIteration(Device(TESLA_C2050), mut, ls, operator="fmmp", tol=1e-12).run()
        xmvp = DevicePowerIteration(
            Device(TESLA_C2050), mut, ls, operator="xmvp", dmax=mut.nu, tol=1e-12
        ).run()
        assert fmmp.modeled_total_s < xmvp.modeled_total_s

    def test_transfer_time_included(self, problem):
        mut, ls, _ = problem
        rep = DevicePowerIteration(Device(TESLA_C2050), mut, ls, tol=1e-12).run()
        assert rep.modeled_transfer_s > 0.0
        assert rep.modeled_total_s == pytest.approx(
            rep.modeled_kernel_s + rep.modeled_transfer_s
        )

    def test_reduction_fraction_reported(self, problem):
        mut, ls, _ = problem
        rep = DevicePowerIteration(Device(TESLA_C2050), mut, ls, tol=1e-12).run()
        assert 0.0 <= rep.reduction_fraction <= 1.0

    def test_buffers_freed_after_run(self, problem):
        from repro.exceptions import DeviceError

        mut, ls, _ = problem
        dev = Device(TESLA_C2050)
        DevicePowerIteration(dev, mut, ls, tol=1e-12).run()
        with pytest.raises(DeviceError):
            dev.buffer("x")


class TestValidationErrors:
    def test_rejects_oversized_grouped_mutation(self):
        """2-bit groups run through the radix-4 kernel; larger blocks
        have no device kernel and must be rejected."""
        from repro.mutation import GroupedMutation

        rng = np.random.default_rng(0)
        b = rng.random((8, 8))
        b /= b.sum(axis=0, keepdims=True)
        with pytest.raises(ValidationError):
            DevicePowerIteration(
                Device(TESLA_C2050), GroupedMutation([b]), RandomLandscape(3, seed=0)
            )

    def test_rejects_xmvp_with_persite(self):
        mut = PerSiteMutation.from_error_rates([0.01, 0.02])
        with pytest.raises(ValidationError):
            DevicePowerIteration(
                Device(TESLA_C2050), mut, RandomLandscape(2, seed=0), operator="xmvp"
            )

    def test_rejects_bad_operator(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            DevicePowerIteration(Device(TESLA_C2050), mut, ls, operator="magic")

    def test_max_iterations_exhausted(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ConvergenceError):
            DevicePowerIteration(
                Device(TESLA_C2050), mut, ls, tol=1e-15, max_iterations=2
            ).run()

    def test_no_raise_mode(self, problem):
        mut, ls, _ = problem
        rep = DevicePowerIteration(
            Device(TESLA_C2050), mut, ls, tol=1e-15, max_iterations=2
        ).run(raise_on_fail=False)
        assert not rep.result.converged


def _grouped(sizes, seed=0):
    """A grouped model with random column-stochastic blocks of ``sizes`` bits."""
    from repro.mutation import GroupedMutation

    rng = np.random.default_rng(seed)
    blocks = []
    for g in sizes:
        b = rng.random((1 << g, 1 << g)) + 0.1
        blocks.append(b / b.sum(axis=0, keepdims=True))
    return GroupedMutation(blocks)


_DEVICE_MODELS = {
    "uniform": lambda: UniformMutation(7, 0.02),
    "persite": lambda: PerSiteMutation.from_error_rates([0.01 * (s + 1) for s in range(7)]),
    "grouped-1-2": lambda: _grouped([2, 1, 2, 1, 1]),
    "grouped-2": lambda: _grouped([2, 2, 2], seed=1),
}


def _old_stage_launcher(mutation, n):
    """The device's stage list as it was built before the model's plan
    drove it: ``(kind, span, payload)`` from the LSB up, launched in order."""
    from repro.device.kernels.fmmp_kernel import fmmp_stage_kernel
    from repro.device.kernels.group_kernel import make_group4_stage_kernel
    from repro.mutation import GroupedMutation

    stages = []
    if isinstance(mutation, GroupedMutation):
        lo = 0
        for block, g in zip(reversed(mutation.blocks()), reversed(mutation.group_sizes)):
            if g == 1:
                stages.append(("2", 1 << lo, np.asarray(block)))
            else:
                stages.append(("4", 1 << lo, make_group4_stage_kernel(block)))
            lo += g
    else:
        for s, f in enumerate(mutation.factors_per_bit()):
            stages.append(("2", 1 << s, np.asarray(f)))

    def launch(device, buf):
        for kind, span, payload in stages:
            if kind == "2":
                m = payload
                device.launch(
                    fmmp_stage_kernel,
                    n // 2,
                    {"span": span, "m00": m[0, 0], "m01": m[0, 1], "m10": m[1, 0], "m11": m[1, 1]},
                    binding={"v": buf},
                )
            else:
                device.launch(payload, n // 4, {"span": span}, binding={"v": buf})

    return launch


class TestDeviceRunsModelPlan:
    """The device butterfly is the model's radix-2 plan, launched stage by
    stage, with the bits of the stage list it replaced."""

    @pytest.mark.parametrize("kind", sorted(_DEVICE_MODELS))
    def test_one_matvec_launches_the_plan(self, kind, monkeypatch):
        mut = _DEVICE_MODELS[kind]()
        ls = RandomLandscape(mut.nu, seed=3)
        seen = []
        launch = Device.launch

        def spy(self, kernel, global_size, params=None, binding=None):
            seen.append((kernel.name, global_size, (params or {}).get("span")))
            return launch(self, kernel, global_size, params, binding)

        monkeypatch.setattr(Device, "launch", spy)
        dev = Device(TESLA_C2050)
        DevicePowerIteration(dev, mut, ls, max_iterations=1).run(raise_on_fail=False)
        names = {2: "fmmp_stage", 4: "group4_stage"}
        want = [(names[st.radix], mut.n // st.radix, st.span) for st in mut.plan(max_radix=2)]
        assert [s for s in seen if s[0] in ("fmmp_stage", "group4_stage")] == want
        recorded = [r.kernel for r in dev.accounting.records if r.kernel in names.values()]
        assert recorded == [name for name, _, _ in want]

    @pytest.mark.parametrize("kind", sorted(_DEVICE_MODELS))
    def test_run_is_bitwise_the_old_stage_list(self, kind):
        mut = _DEVICE_MODELS[kind]()
        ls = RandomLandscape(mut.nu, c=5.0, sigma=1.0, seed=4)
        reports = []
        for old in (False, True):
            it = DevicePowerIteration(Device(TESLA_C2050), mut, ls, tol=1e-13, shift=0.25)
            if old:
                it._launch_q = _old_stage_launcher(mut, mut.n)
            reports.append(it.run())
        new, old = reports
        assert new.result.eigenvalue == old.result.eigenvalue
        np.testing.assert_array_equal(new.result.eigenvector, old.result.eigenvector)
        assert new.launches == old.launches
        assert new.modeled_total_s == old.modeled_total_s
        assert new.result.iterations == old.result.iterations > 1

    def test_wide_stage_rejected_by_the_plan(self):
        """A 3-bit group is a radix-8 stage of the plan: no device kernel."""
        mut = _grouped([1, 3])
        with pytest.raises(ValidationError, match="radix-8"):
            DevicePowerIteration(Device(TESLA_C2050), mut, RandomLandscape(4, seed=0))

    def test_model_without_a_plan_rejected_by_name(self):
        from repro.mutation.base import MutationModel

        class IdentityMutation(MutationModel):
            nu, n, is_symmetric = 3, 8, True

            def dense(self):
                return np.eye(self.n)

        with pytest.raises(ValidationError, match="IdentityMutation"):
            DevicePowerIteration(
                Device(TESLA_C2050), IdentityMutation(), RandomLandscape(3, seed=0)
            )
