"""Tests for the stage-fused multi-vector butterfly kernel."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mutation import PerSiteMutation, UniformMutation
from repro.transforms import (
    batched_butterfly_transform,
    butterfly_transform,
    butterfly_transform_reference,
    fused_stage_count,
    fused_stage_plan,
)


def random_factors(nu, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((2, 2)) + 2.0 * np.eye(2) for _ in range(nu)]


class TestFusedStagePlan:
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 8])
    def test_radix4_halves_sweep_count(self, nu):
        plan = fused_stage_plan(random_factors(nu), radix4=True)
        assert len(plan) == nu // 2 + nu % 2
        assert fused_stage_count(nu) == len(plan)

    @pytest.mark.parametrize("nu", [1, 3, 5])
    def test_odd_nu_keeps_one_radix2_stage(self, nu):
        plan = fused_stage_plan(random_factors(nu), radix4=True)
        radices = sorted(stage.radix for stage in plan)
        assert radices.count(2) == 1
        assert radices.count(4) == nu // 2

    def test_radix4_disabled_keeps_all_stages(self):
        plan = fused_stage_plan(random_factors(6), radix4=False)
        assert len(plan) == 6
        assert all(stage.radix == 2 for stage in plan)

    def test_radix4_factor_is_kron_of_adjacent_stages(self):
        factors = random_factors(2, seed=3)
        plan = fused_stage_plan(factors, radix4=True)
        assert len(plan) == 1 and plan[0].radix == 4
        np.testing.assert_allclose(plan[0].matrix, np.kron(factors[1], factors[0]))


class TestBatchedButterflyCorrectness:
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 6, 7])
    def test_matches_column_stacked_scalar(self, nu, variant):
        factors = random_factors(nu, seed=nu)
        n = 1 << nu
        rng = np.random.default_rng(nu + 10)
        block = rng.standard_normal((n, 5))
        got = batched_butterfly_transform(block, fused_stage_plan(factors, variant=variant))
        want = np.stack(
            [butterfly_transform(block[:, j], factors) for j in range(5)], axis=1
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    def test_matches_paper_reference_triple_loop(self):
        factors = random_factors(4, seed=7)
        rng = np.random.default_rng(42)
        block = rng.standard_normal((16, 3))
        got = batched_butterfly_transform(block, fused_stage_plan(factors))
        for j in range(3):
            want = butterfly_transform_reference(block[:, j], factors)
            np.testing.assert_allclose(got[:, j], want, rtol=1e-12, atol=1e-13)

    def test_radix2_and_radix4_agree(self):
        factors = random_factors(5, seed=1)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((32, 4))
        a = batched_butterfly_transform(block, fused_stage_plan(factors, radix4=True))
        b = batched_butterfly_transform(block, fused_stage_plan(factors, radix4=False))
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_input_block_never_mutated(self):
        factors = random_factors(3)
        block = np.random.default_rng(0).standard_normal((8, 2))
        saved = block.copy()
        batched_butterfly_transform(
            block,
            fused_stage_plan(factors),
            pre_scale=np.arange(1.0, 9.0),
            post_scale=np.ones(8),
        )
        np.testing.assert_array_equal(block, saved)

    @pytest.mark.parametrize("shape", ["shared", "per-column"])
    def test_scale_folding_is_exact(self, shape):
        factors = random_factors(4, seed=9)
        n, b = 16, 3
        rng = np.random.default_rng(9)
        block = rng.standard_normal((n, b))
        if shape == "shared":
            pre = rng.uniform(0.5, 2.0, n)
            post = rng.uniform(0.5, 2.0, n)
            pre_cols = np.repeat(pre[:, None], b, axis=1)
            post_cols = np.repeat(post[:, None], b, axis=1)
        else:
            pre_cols = pre = rng.uniform(0.5, 2.0, (n, b))
            post_cols = post = rng.uniform(0.5, 2.0, (n, b))
        got = batched_butterfly_transform(
            block, fused_stage_plan(factors), pre_scale=pre, post_scale=post
        )
        want = np.stack(
            [
                post_cols[:, j]
                * butterfly_transform(pre_cols[:, j] * block[:, j], factors)
                for j in range(b)
            ],
            axis=1,
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)


class TestBatchWidthInvariance:
    """A column's bits never depend on the width of the block it rides
    in: column ``j`` transformed alone equals column ``j`` of a 16-column
    block, bitwise.  This holds down to ``ν = 1``: the one-column span-1
    sweep runs as a 2-D GEMM, and the single group of a ``ν <= 2``
    vector is padded onto that GEMM too (see ``_apply_fused``)."""

    @pytest.mark.parametrize("nu", range(1, 11))
    @pytest.mark.parametrize("kind", ["uniform", "persite"])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_single_column_equals_column_of_b16_block(self, nu, kind, variant, form):
        rng = np.random.default_rng(nu)
        if kind == "uniform":
            mutation = UniformMutation(nu, float(rng.uniform(1e-3, 0.4)))
        else:
            mutation = PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
        factors = mutation.factors_per_bit()
        n = 1 << nu
        block = rng.standard_normal((n, 16))
        f = rng.uniform(0.5, 2.0, (n, 16))
        pre, post = {
            "right": (f, None),
            "symmetric": (np.sqrt(f), np.sqrt(f)),
            "left": (None, f),
        }[form]
        full = batched_butterfly_transform(
            block, fused_stage_plan(factors, variant=variant), pre_scale=pre, post_scale=post
        )
        for j in range(16):
            one = batched_butterfly_transform(
                block[:, j : j + 1],
                fused_stage_plan(factors, variant=variant),
                pre_scale=None if pre is None else pre[:, j],
                post_scale=None if post is None else post[:, j],
            )
            assert np.array_equal(one[:, 0], full[:, j]), f"column {j}"


class TestBufferContract:
    def test_out_and_scratch_reuse(self):
        factors = random_factors(4)
        rng = np.random.default_rng(2)
        block = rng.standard_normal((16, 4))
        out = np.empty((16, 4))
        scratch = np.empty((16, 4))
        plan = fused_stage_plan(factors)
        got = batched_butterfly_transform(block, plan, out=out, scratch=scratch)
        assert got is out
        np.testing.assert_allclose(got, batched_butterfly_transform(block, plan))

    def test_out_must_not_alias_input(self):
        factors = random_factors(3)
        block = np.zeros((8, 2))
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(block, fused_stage_plan(factors), out=block)

    def test_scratch_must_not_alias_out(self):
        factors = random_factors(3)
        block = np.ones((8, 2))
        out = np.empty((8, 2))
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(block, fused_stage_plan(factors), out=out, scratch=out)

    def test_wrong_shape_buffers_rejected(self):
        factors = random_factors(3)
        block = np.ones((8, 2))
        with pytest.raises(ValidationError, match="shape"):
            batched_butterfly_transform(block, fused_stage_plan(factors), out=np.empty((8, 3)))


class TestValidation:
    def test_rejects_1d_and_3d_blocks(self):
        factors = random_factors(3)
        with pytest.raises(ValidationError, match="2-D"):
            batched_butterfly_transform(np.zeros(8), fused_stage_plan(factors))
        with pytest.raises(ValidationError, match="2-D"):
            batched_butterfly_transform(np.zeros((8, 1, 1)), fused_stage_plan(factors))

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            batched_butterfly_transform(np.zeros((9, 2)), fused_stage_plan(random_factors(3)))

    def test_rejects_empty_plan(self):
        with pytest.raises(ValidationError, match="factor"):
            fused_stage_plan([])
        with pytest.raises(ValidationError, match="stage"):
            batched_butterfly_transform(np.zeros((1, 1)), [])

    def test_rejects_bad_scale_shape(self):
        factors = random_factors(3)
        with pytest.raises(ValidationError, match="pre_scale"):
            batched_butterfly_transform(
                np.zeros((8, 2)), fused_stage_plan(factors), pre_scale=np.ones(4)
            )
