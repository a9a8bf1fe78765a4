"""Tests for the stage-fused multi-vector butterfly kernel."""

import numpy as np
import pytest

import repro.transforms.batched as kernel
from repro.exceptions import ValidationError
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation
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
    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 6, 7, 8, 20])
    @pytest.mark.parametrize("max_radix,bits", [(2, 1), (4, 2), (8, 3)])
    def test_max_radix_sets_sweep_count(self, nu, max_radix, bits):
        plan = fused_stage_plan(random_factors(nu), max_radix=max_radix)
        assert len(plan) == -(-nu // bits)
        assert fused_stage_count(nu, max_radix=max_radix) == len(plan)
        assert fused_stage_count(nu) == fused_stage_count(nu, max_radix=8)

    @pytest.mark.parametrize("nu", range(1, 13))
    @pytest.mark.parametrize("max_radix", [2, 4, 8])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    def test_runs_are_balanced_and_cover_every_bit(self, nu, max_radix, variant):
        plan = fused_stage_plan(random_factors(nu), variant=variant, max_radix=max_radix)
        radices = [stage.radix for stage in plan]
        assert max(radices) <= max_radix
        assert max(radices) <= 2 * min(radices)  # run sizes differ by <= 1
        bits = [
            stage.span.bit_length() - 1 + k
            for stage in plan
            for k in range(stage.radix.bit_length() - 1)
        ]
        assert sorted(bits) == list(range(nu))
        spans = [stage.span for stage in plan]
        assert spans == sorted(spans, reverse=(variant == "eq10"))

    @pytest.mark.parametrize("nu,radices", [(4, [4, 4]), (5, [8, 4]), (7, [8, 4, 4])])
    def test_larger_runs_come_first(self, nu, radices):
        plan = fused_stage_plan(random_factors(nu))
        assert [stage.radix for stage in plan] == radices

    def test_max_radix_2_keeps_all_stages(self):
        plan = fused_stage_plan(random_factors(6), max_radix=2)
        assert len(plan) == 6
        assert all(stage.radix == 2 for stage in plan)

    def test_radix4_factor_is_kron_of_adjacent_stages(self):
        factors = random_factors(2, seed=3)
        plan = fused_stage_plan(factors, max_radix=4)
        assert len(plan) == 1 and plan[0].radix == 4
        np.testing.assert_allclose(plan[0].matrix, np.kron(factors[1], factors[0]))

    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    def test_radix8_factor_is_kron_of_three_adjacent_stages(self, variant):
        factors = random_factors(6, seed=4)
        plan = fused_stage_plan(factors, variant=variant)
        assert [stage.radix for stage in plan] == [8, 8]
        lo, hi = (plan[0], plan[1]) if variant == "eq9" else (plan[1], plan[0])
        assert (lo.span, hi.span) == (1, 8)
        np.testing.assert_allclose(
            lo.matrix, np.kron(factors[2], np.kron(factors[1], factors[0]))
        )
        np.testing.assert_allclose(
            hi.matrix, np.kron(factors[5], np.kron(factors[4], factors[3]))
        )

    def test_radix_16_is_rejected_by_name(self):
        with pytest.raises(ValidationError, match="16.*batch width"):
            fused_stage_plan(random_factors(8), max_radix=16)
        with pytest.raises(ValidationError, match="16.*batch width"):
            fused_stage_count(8, max_radix=16)

    @pytest.mark.parametrize("max_radix", [0, 1, 3, 6, 12, 32, True, "8"])
    def test_other_radices_are_rejected(self, max_radix):
        with pytest.raises(ValidationError, match="max_radix"):
            fused_stage_plan(random_factors(4), max_radix=max_radix)
        with pytest.raises(ValidationError, match="max_radix"):
            fused_stage_count(4, max_radix=max_radix)


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

    @pytest.mark.parametrize("nu", [5, 7])
    def test_radix2_4_and_8_agree(self, nu):
        factors = random_factors(nu, seed=1)
        rng = np.random.default_rng(1)
        block = rng.standard_normal((1 << nu, 4))
        a = batched_butterfly_transform(block, fused_stage_plan(factors, max_radix=8))
        for max_radix in (2, 4):
            b = batched_butterfly_transform(
                block, fused_stage_plan(factors, max_radix=max_radix)
            )
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
    in: column ``j`` transformed alone equals column ``j`` of a block of
    any width, bitwise, for every plan radix.  This holds down to
    ``ν = 1``: the one-column span-1 sweep runs as a 2-D GEMM, and the
    single group of a ``ν <= 3`` vector is padded onto that GEMM too (see
    ``_apply_fused``).  A radix-16 plan breaks it at widths 2–5, which is
    why ``fused_stage_plan`` stops at radix 8."""

    WIDTHS = (2, 3, 4, 5, 16)

    @pytest.mark.parametrize("nu", range(1, 11))
    @pytest.mark.parametrize("kind", ["uniform", "persite"])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    @pytest.mark.parametrize("max_radix", [2, 4, 8])
    def test_single_column_equals_column_of_wider_block(
        self, nu, kind, variant, form, max_radix
    ):
        rng = np.random.default_rng(nu)
        if kind == "uniform":
            mutation = UniformMutation(nu, float(rng.uniform(1e-3, 0.4)))
        else:
            mutation = PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
        plan = fused_stage_plan(
            mutation.factors_per_bit(), variant=variant, max_radix=max_radix
        )
        n, width = 1 << nu, max(self.WIDTHS)
        block = rng.standard_normal((n, width))
        f = rng.uniform(0.5, 2.0, (n, width))
        pre, post = {
            "right": (f, None),
            "symmetric": (np.sqrt(f), np.sqrt(f)),
            "left": (None, f),
        }[form]

        def columns(cols):
            return batched_butterfly_transform(
                block[:, cols],
                plan,
                pre_scale=None if pre is None else pre[:, cols],
                post_scale=None if post is None else post[:, cols],
            )

        lone = [columns(slice(j, j + 1))[:, 0] for j in range(width)]
        for b in self.WIDTHS:
            full = columns(slice(0, b))
            for j in range(b):
                assert np.array_equal(lone[j], full[:, j]), f"B={b}, column {j}"


def chunk_test_mutation(kind, nu, rng):
    """A uniform, per-site or grouped model; the grouped one cycles
    through 4-, 3-, 2- and 1-bit groups, so from ν = 4 on its plan has a
    radix-16 stage (the column-by-column path)."""
    if kind == "uniform":
        return UniformMutation(nu, float(rng.uniform(1e-3, 0.4)))
    if kind == "persite":
        return PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
    sizes, left = [], nu
    while left:
        sizes.append(min((4, 3, 2, 1)[len(sizes) % 4], left))
        left -= sizes[-1]
    blocks = [rng.uniform(0.1, 1.0, (1 << g, 1 << g)) for g in sizes]
    return GroupedMutation([blk / blk.sum(axis=0) for blk in blocks])


def chunk_test_scales(form, shape, rng):
    f = rng.uniform(0.5, 2.0, shape)
    return {"right": (f, None), "symmetric": (np.sqrt(f), np.sqrt(f)), "left": (None, f)}[form]


class TestChunkSizeInvariance:
    """A product's bits never depend on the chunk size of its sweeps:
    tiny chunks (down to one double, which forces the narrowest ``z``
    ranges and the two-group ``z == 1`` runs) and the default size give
    the bits of a one-chunk run, and every column equals the column run
    alone.  ``ν`` 1–12, ``B`` 1, 2, 3, 5 and 16 (1 and 16 above ν = 9),
    both variants (alternating with ``ν``), shared and per-column scales
    (alternating with ``ν + B``)."""

    CHUNK_BYTES = (8, 1024, kernel._CHUNK_BYTES)
    WIDTHS = (1, 2, 3, 5, 16)

    @pytest.mark.parametrize("kind", ["uniform", "persite", "grouped"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_bits_do_not_depend_on_the_chunk_size(self, kind, form, monkeypatch):
        rng = np.random.default_rng(len(kind) + len(form))
        for nu in range(1, 13):
            variant = ("eq9", "eq10")[nu % 2]
            plan = chunk_test_mutation(kind, nu, rng).plan(variant)
            n = 1 << nu
            for b in self.WIDTHS if nu <= 9 else (1, 16):
                block = rng.standard_normal((n, b))
                per_column = (nu + b) % 2 == 1
                pre, post = chunk_test_scales(form, (n, b) if per_column else n, rng)

                def run(cols=slice(None)):
                    return batched_butterfly_transform(
                        block[:, cols],
                        plan,
                        pre_scale=pre[:, cols] if per_column and pre is not None else pre,
                        post_scale=post[:, cols] if per_column and post is not None else post,
                    )

                monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1 << 60)
                one_chunk = run()
                lone = [run(slice(j, j + 1))[:, 0] for j in range(b)]
                for size in self.CHUNK_BYTES:
                    monkeypatch.setattr(kernel, "_CHUNK_BYTES", size)
                    got = run()
                    where = f"nu={nu} B={b} chunk={size}"
                    assert np.array_equal(got, one_chunk), where
                    for j in range(b):
                        assert np.array_equal(got[:, j], lone[j]), f"{where} column {j}"

    def test_chunk_lists_are_reused_per_shape_and_chunk_size(self, monkeypatch):
        """A product reuses each sweep's chunk list; a new ``_CHUNK_BYTES``
        gets its own list, not the one built under the old size."""
        nu, b = 12, 2
        stage = max(fused_stage_plan(random_factors(nu)), key=lambda st: st.span)
        first = kernel._chunks(1 << nu, b, stage)
        assert kernel._chunks(1 << nu, b, stage) is first
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1024)
        small = kernel._chunks(1 << nu, b, stage)
        assert len(small) > len(first)
        assert small == kernel._chunk_list.__wrapped__(1 << nu, b, stage.radix, stage.span, 1024)
        monkeypatch.undo()
        assert kernel._chunks(1 << nu, b, stage) is first

    def test_chunk_lists_keep_the_bit_rules(self, monkeypatch):
        """Every chunk list covers its sweep once, in order, with equal
        chunks; a ``z`` range is never one column wide nor cuts a
        radix-16 stage, and a ``z == 1`` run keeps two groups unless the
        sweep has only one group."""
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 8)
        rng = np.random.default_rng(3)
        for nu in range(1, 11):
            for b in (1, 2, 3):
                mutation = chunk_test_mutation(("persite", "grouped")[nu % 2], nu, rng)
                for stage in mutation.plan("eq10"):
                    r, h = stage.radix, stage.span
                    g = (1 << nu) // (r * h)
                    chunks = kernel._chunks(1 << nu, b, stage)
                    covered = [(q, c) for q0, q1, h0, h1 in chunks
                               for q in range(q0, q1) for c in range(h0, h1)]
                    assert covered == [(q, c) for q in range(g) for c in range(h)]
                    assert len({(q1 - q0, h1 - h0) for q0, q1, h0, h1 in chunks}) == 1
                    q0, q1, h0, h1 = chunks[0]
                    if h1 - h0 < h:
                        assert (h1 - h0) * b >= 2 and r <= kernel.MAX_RADIX
                    if h * b == 1 and g > 1:
                        assert q1 - q0 >= 2


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

    @pytest.mark.parametrize("nu", [1, 2, 3, 4])
    def test_scratch_must_not_alias_out(self, nu):
        """Checked even when the plan is one sweep (ν <= 3) and never
        touches scratch."""
        n = 1 << nu
        block = np.ones((n, 2))
        out = np.empty((n, 2))
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(
                block, fused_stage_plan(random_factors(nu)), out=out, scratch=out
            )

    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_one_sweep_plan_validates_scratch(self, nu):
        n = 1 << nu
        block = np.ones((n, 2))
        plan = fused_stage_plan(random_factors(nu))
        assert len(plan) == 1
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(block, plan, scratch=block)
        with pytest.raises(ValidationError, match="shape"):
            batched_butterfly_transform(block, plan, scratch=np.empty((n, 3)))
        scratch = np.empty((n, 2))
        got = batched_butterfly_transform(block, plan, scratch=scratch)
        np.testing.assert_array_equal(got, batched_butterfly_transform(block, plan))

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
