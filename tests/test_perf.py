"""Tests for the performance models, measurement, and extrapolation."""

import numpy as np
import pytest

from repro.device import Device, DevicePowerIteration, TESLA_C2050
from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import UniformMutation
from repro.operators import Fmmp, Xmvp
from repro.perf import (
    ComplexityLaw,
    PipelineCostModel,
    fit_and_extend,
    fit_scale,
    fmmp_costs,
    measure_operator_matvec,
    measure_series,
    operator_costs,
    plan_costs,
    predict,
    predict_matvec_time,
    predict_power_iteration_time,
    smvp_costs,
    speedup_series,
    xmvp_costs,
    xmvp_mask_count,
)
from repro.perf.speedup import SpeedupTable, theoretical_guideline
from repro.transforms.batched import fused_stage_plan


class TestCosts:
    def test_mask_count(self):
        assert xmvp_mask_count(5, 5) == 32
        assert xmvp_mask_count(10, 1) == 11
        assert xmvp_mask_count(20, 5) == 1 + 20 + 190 + 1140 + 4845 + 15504

    def test_formulas_match_operator_objects(self):
        """``fmmp_costs`` is the paper's radix-2 plan; ``Fmmp.costs`` is
        the fused plan its ``matvec`` runs — both via ``plan_costs``."""
        nu = 9
        mut = UniformMutation(nu, 0.01)
        ls = RandomLandscape(nu, seed=0)
        n = 1 << nu
        paper = plan_costs(fused_stage_plan(mut.factors_per_bit(), radix4=False), n, 1, (n,))
        fused = plan_costs(fused_stage_plan(mut.factors_per_bit()), n, 1, (n,))
        assert fmmp_costs(nu) == paper
        assert Fmmp(mut, ls).costs() == fused
        assert xmvp_costs(nu, 4).flops == Xmvp(mut, ls, 4).costs().flops

    def test_smvp_quadratic(self):
        assert smvp_costs(10).flops == 2.0 * (1 << 10) ** 2

    def test_dispatch(self):
        assert operator_costs("fmmp", 8).flops == fmmp_costs(8).flops
        with pytest.raises(ValidationError):
            operator_costs("xmvp", 8)  # missing dmax
        with pytest.raises(ValidationError):
            operator_costs("gemm", 8)

    def test_fmmp_scales_n_log_n(self):
        r = fmmp_costs(20).flops / fmmp_costs(10).flops
        assert r == pytest.approx((1 << 20) * 20 / ((1 << 10) * 10), rel=0.3)


class TestPipelineModel:
    def test_exactly_matches_simulated_device(self):
        """The analytic model must reproduce the simulated accounting to
        machine precision — they encode the same schedule."""
        nu = 7
        mut = UniformMutation(nu, 0.01)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=2)
        for operator, dmax in (("fmmp", None), ("xmvp", 3)):
            dev = Device(TESLA_C2050)
            rep = DevicePowerIteration(
                dev, mut, ls, operator=operator, dmax=dmax, tol=1e-12
            ).run()
            model = PipelineCostModel(nu, operator, dmax)
            predicted = model.total_time(TESLA_C2050, rep.result.iterations)
            assert predicted == pytest.approx(rep.modeled_total_s, rel=1e-12)

    def test_shifted_adds_axpy(self):
        base = PipelineCostModel(10, "fmmp")
        shifted = PipelineCostModel(10, "fmmp", shifted=True)
        assert shifted.launches_per_iteration() == base.launches_per_iteration() + 1

    def test_wrapper(self):
        t = predict_power_iteration_time(TESLA_C2050, 12, 100, operator="fmmp")
        assert t > 0

    def test_iterations_validated(self):
        with pytest.raises(ValidationError):
            PipelineCostModel(8, "fmmp").total_time(TESLA_C2050, 0)

    def test_matvec_prediction_positive_and_monotone(self):
        t10 = predict_matvec_time(TESLA_C2050, fmmp_costs(10))
        t20 = predict_matvec_time(TESLA_C2050, fmmp_costs(20))
        assert 0 < t10 < t20


class TestMeasurement:
    def test_measure_single_matvec(self):
        nu = 8
        op = Fmmp(UniformMutation(nu, 0.01), RandomLandscape(nu, seed=1))
        res = measure_operator_matvec(op, repeats=3, min_time=0.001)
        assert res.median > 0

    def test_measure_series_skips_infeasible(self):
        """The dense operator refuses large ν — the series must simply
        stop there, like the truncated curves in Fig. 2."""
        from repro.operators import Smvp

        def factory(nu):
            mut = UniformMutation(nu, 0.01)
            return Smvp(mut, RandomLandscape(nu, seed=0), max_nu=8)

        series = measure_series("Smvp", [6, 7, 8, 9, 10], factory, repeats=1, min_time=0.0)
        assert series.nus == [6, 7, 8]

    def test_budget_stops_series(self):
        def factory(nu):
            return Fmmp(UniformMutation(nu, 0.01), RandomLandscape(nu, seed=0))

        series = measure_series(
            "Fmmp", [6, 8, 10], factory, repeats=1, min_time=0.0, budget_s=0.0
        )
        assert len(series.nus) == 1


class TestExtrapolation:
    def test_fit_recovers_known_scale(self):
        nus = [10, 12, 14, 16]
        times = [3e-9 * (1 << nu) ** 2 for nu in nus]
        a = fit_scale(ComplexityLaw.N_SQUARED, nus, times)
        assert a == pytest.approx(3e-9, rel=1e-6)

    def test_predict_extends(self):
        out = predict(ComplexityLaw.N_LOG2_N, 1e-9, [10, 20])
        assert out[1] / out[0] == pytest.approx((1 << 20) * 20 / ((1 << 10) * 10))

    def test_fit_and_extend_keeps_measured(self):
        nus = [10, 11, 12]
        times = [1.0, 2.1, 4.4]
        out = fit_and_extend(ComplexityLaw.N_SQUARED, nus, times, [10, 11, 12, 13])
        np.testing.assert_allclose(out[:3], times)
        assert out[3] > out[2]

    def test_callable_law(self):
        law = lambda nu: ComplexityLaw.xmvp_growth(nu, 5)
        a = fit_scale(law, [12, 14, 16], [law(n) * 2e-9 for n in (12, 14, 16)])
        assert a == pytest.approx(2e-9, rel=1e-6)

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            fit_scale(ComplexityLaw.N_SQUARED, [10], [])
        with pytest.raises(ValidationError):
            fit_scale(ComplexityLaw.N_SQUARED, [10], [-1.0])


class TestSpeedup:
    def test_basic_series(self):
        ref = {10: 100.0, 12: 1000.0}
        cand = {10: 1.0, 12: 5.0, 14: 9.0}
        out = speedup_series(ref, cand)
        assert out == {10: 100.0, 12: 200.0}

    def test_disjoint_rejected(self):
        with pytest.raises(ValidationError):
            speedup_series({10: 1.0}, {12: 1.0})

    def test_guideline(self):
        g = theoretical_guideline([10, 20])
        assert g[0] == pytest.approx(1024 / 10)
        assert g[1] == pytest.approx((1 << 20) / 20)

    def test_table_build_and_slope(self):
        nus = range(10, 21)
        ref = {nu: 1e-9 * (1 << nu) ** 2 for nu in nus}
        fast = {nu: 1e-9 * (1 << nu) * nu for nu in nus}
        table = SpeedupTable.build("ref", ref, {"fast": fast})
        # Speedup of an N log N algorithm over N² grows ~ +0.27 decades/ν.
        assert table.slope("fast") > 0.2
        assert table.at("fast", 20) == pytest.approx((1 << 20) / 20)
        # The guide line has the same slope as the fast algorithm.
        assert table.slope("N^2/(N log2 N)") == pytest.approx(table.slope("fast"), rel=0.05)

    def test_same_algorithm_parallel_curves(self):
        """Two hardware platforms running the same algorithm: constant
        ratio ⇒ identical slopes (paper's Fig. 4 observation)."""
        nus = range(10, 18)
        ref = {nu: 1e-9 * (1 << nu) ** 2 for nu in nus}
        slow_hw = {nu: 1e-8 * (1 << nu) * nu for nu in nus}
        fast_hw = {nu: 1e-10 * (1 << nu) * nu for nu in nus}
        table = SpeedupTable.build("ref", ref, {"slow": slow_hw, "fast": fast_hw})
        assert table.slope("slow") == pytest.approx(table.slope("fast"), rel=1e-9)
