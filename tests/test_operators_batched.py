"""Batched multi-vector operator tests.

The load-bearing property: for every mutation model, eigenproblem form
and stage order, :meth:`BatchedFmmp.matmat` on an ``(N, B)`` block is
bit-for-bit-tolerance equal to stacking the scalar :meth:`Fmmp.matvec`
column by column.  A Hypothesis sweep drives the property over
``ν ∈ [2, 10]``; deterministic tests cover the per-column landscape
mode, column subsetting, and the scalar products' per-thread scratch
(reused on one thread, never shared between threads).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
import repro.operators.batched as batched_module
from repro.operators import BatchedFmmp, Fmmp
from repro.solvers import TransposedFmmp
from repro.transforms.parallel import auto_panels

common = settings(max_examples=12, deadline=None)


def build_mutation(kind, nu, p, seed):
    if kind == "uniform":
        return UniformMutation(nu, p)
    if kind == "persite":
        rng = np.random.default_rng(seed)
        return PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
    # grouped: one 4-dim stochastic block plus 2x2 site factors (one site
    # factor alone at nu = 1)
    if nu == 1:
        return GroupedMutation([site_factor(p)])
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.1, 1.0, (4, 4))
    block /= block.sum(axis=0, keepdims=True)
    blocks = [block] + [site_factor(p) for _ in range(nu - 2)]
    return GroupedMutation(blocks)


def grouped_mutation(groups, seed):
    """Random column-stochastic group blocks of ``groups`` bits (MSB first)."""
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(0.1, 1.0, (1 << g, 1 << g)) for g in groups]
    return GroupedMutation([b / b.sum(axis=0, keepdims=True) for b in blocks])


class TestBatchedMatchesScalar:
    """Hypothesis sweep: matmat == column-stacked matvec, all models/forms."""

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite", "grouped"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.integers(0, 1_000),
    )
    def test_matmat_equals_stacked_matvec(self, nu, p, kind, form, seed):
        mutation = build_mutation(kind, nu, p, seed)
        rng = np.random.default_rng(seed + 1)
        b = int(rng.integers(1, 5))
        lands = [
            RandomLandscape(nu, c=4.0, sigma=1.0, seed=seed + j) for j in range(b)
        ]
        batched = BatchedFmmp(mutation, lands, form=form)
        block = rng.standard_normal((1 << nu, b))
        got = batched.matmat(block)
        want = np.stack(
            [
                Fmmp(mutation, lands[j], form=form).matvec(block[:, j])
                for j in range(b)
            ],
            axis=1,
        )
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)

    @common
    @given(st.integers(2, 8), st.floats(1e-4, 0.45), st.sampled_from(["eq9", "eq10"]))
    def test_variants_match_scalar(self, nu, p, variant):
        mutation = UniformMutation(nu, p)
        land = SinglePeakLandscape(nu, f_peak=3.0)
        batched = BatchedFmmp(mutation, land, variant=variant)
        rng = np.random.default_rng(nu)
        block = rng.standard_normal((1 << nu, 3))
        got = batched.matmat(block)
        scalar = Fmmp(mutation, land, variant=variant)
        for j in range(3):
            np.testing.assert_allclose(
                got[:, j], scalar.matvec(block[:, j]), rtol=1e-12, atol=1e-13
            )


class TestBatchWidthBits:
    """``Fmmp.matvec`` is bitwise the same column of a per-column
    ``BatchedFmmp``: batch width changes wall time, never bits."""

    @pytest.mark.parametrize("nu", range(1, 11))
    @pytest.mark.parametrize("kind", ["uniform", "persite", "grouped"])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_matvec_equals_column_of_b16_matmat(self, nu, kind, variant, form):
        mutation = build_mutation(kind, nu, 0.05, seed=nu)
        lands = [
            RandomLandscape(nu, c=4.0, sigma=1.0, seed=nu + j) for j in range(16)
        ]
        block = np.random.default_rng(nu).standard_normal((1 << nu, 16))
        got = BatchedFmmp(mutation, lands, form=form, variant=variant).matmat(block)
        for j in range(16):
            scalar = Fmmp(mutation, lands[j], form=form, variant=variant)
            assert np.array_equal(scalar.matvec(block[:, j]), got[:, j]), f"column {j}"


class TestGroupedPlanBits:
    """Grouped models (Eq. 11) run their own plan, one sweep per block.
    Blocks of ≥ 4 bits make radix ≥ 16 stages, which run column by
    column; either way a lone column is bitwise the same column of every
    wider block, serial or threaded."""

    GROUPS = [
        [1] * 10,
        [2] * 5,
        [3, 3, 3, 1],
        [4, 4, 2],
        [5, 5],
        [6, 4],
        [6, 3, 1],
        [1, 4, 2, 3],
        [3, 5, 2],
    ]

    @pytest.mark.parametrize("groups", GROUPS, ids=lambda g: "-".join(map(str, g)))
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("form", ["right", "symmetric"])
    def test_lone_column_equals_every_width_and_threads(self, groups, variant, form):
        mutation = grouped_mutation(groups, seed=sum(groups) + len(groups))
        nu = mutation.nu
        lands = [RandomLandscape(nu, c=4.0, sigma=1.0, seed=j) for j in range(16)]
        block = np.random.default_rng(len(groups)).standard_normal((1 << nu, 16))
        lone = [
            Fmmp(mutation, lands[j], form=form, variant=variant).matvec(block[:, j])
            for j in range(16)
        ]
        threaded = BatchedFmmp(mutation, lands, form=form, variant=variant, threads=2)
        assert auto_panels(nu, 16, threads=2) == 2
        products = {"threads=2": threaded.matmat(block)}
        for b in (2, 3, 4, 5, 9, 16):
            op = BatchedFmmp(mutation, lands[:b], form=form, variant=variant)
            products[f"B={b}"] = op.matmat(block[:, :b])
        for name, got in products.items():
            for j in range(got.shape[1]):
                assert np.array_equal(lone[j], got[:, j]), f"{name} column {j}"
        scalar = Fmmp(mutation, lands[0], form=form, variant=variant, threads=2)
        assert np.array_equal(scalar.matvec(block[:, 0]), lone[0])

    def test_wide_plan_runs_column_by_column(self, monkeypatch):
        """A radix > 8 plan sends every column of a block through the
        one-column schedule; a radix ≤ 8 plan runs the block in one call."""
        import repro.transforms.batched as kernel

        calls = []
        real = kernel._apply_fused

        def spy(src, dst, stage):
            calls.append(src.shape[1])
            return real(src, dst, stage)

        monkeypatch.setattr(kernel, "_apply_fused", spy)
        lands = [RandomLandscape(8, seed=j) for j in range(3)]
        block = np.ones((256, 3))
        BatchedFmmp(grouped_mutation([4, 4], seed=0), lands).matmat(block)
        assert calls == [1, 1] * 3
        calls.clear()
        BatchedFmmp(grouped_mutation([3, 3, 2], seed=0), lands).matmat(block)
        assert calls == [3, 3, 3]


class TestPerColumnMode:
    def setup_method(self):
        self.nu = 5
        self.mutation = UniformMutation(self.nu, 0.03)
        self.lands = [
            SinglePeakLandscape(self.nu, f_peak=2.0),
            RandomLandscape(self.nu, c=4.0, sigma=1.0, seed=0),
            RandomLandscape(self.nu, c=4.0, sigma=1.0, seed=1),
        ]
        self.op = BatchedFmmp(self.mutation, self.lands, form="right")

    def test_batch_and_flags(self):
        assert self.op.batch == 3
        assert self.op.per_column
        shared = BatchedFmmp(self.mutation, self.lands[0])
        assert shared.batch == 1 and not shared.per_column

    def test_each_column_uses_its_own_landscape(self):
        rng = np.random.default_rng(2)
        block = rng.standard_normal((self.op.n, 3))
        got = self.op.matmat(block)
        for j, land in enumerate(self.lands):
            want = Fmmp(self.mutation, land).matvec(block[:, j])
            np.testing.assert_allclose(got[:, j], want, rtol=1e-12, atol=1e-13)

    def test_column_subsetting_after_deflation(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((self.op.n, 2))
        got = self.op.matmat(block, columns=[2, 0])
        np.testing.assert_allclose(
            got[:, 0], Fmmp(self.mutation, self.lands[2]).matvec(block[:, 0])
        )
        np.testing.assert_allclose(
            got[:, 1], Fmmp(self.mutation, self.lands[0]).matvec(block[:, 1])
        )

    def test_matvec_selects_a_column(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal(self.op.n)
        np.testing.assert_allclose(
            self.op.matvec(v, column=1),
            Fmmp(self.mutation, self.lands[1]).matvec(v),
            rtol=1e-12,
        )

    def test_column_count_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="columns"):
            self.op.matmat(np.zeros((self.op.n, 2)))

    def test_columns_kwarg_rejected_in_shared_mode(self):
        shared = BatchedFmmp(self.mutation, self.lands[0])
        with pytest.raises(ValidationError, match="per-column"):
            shared.matmat(np.zeros((shared.n, 1)), columns=[0])

    def test_landscape_nu_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="nu"):
            BatchedFmmp(self.mutation, [SinglePeakLandscape(self.nu + 1)])

    def test_empty_landscape_list_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            BatchedFmmp(self.mutation, [])

    def test_buffer_reuse_matches_fresh_allocation(self):
        rng = np.random.default_rng(5)
        block = rng.standard_normal((self.op.n, 3))
        out = np.empty_like(block)
        scratch = np.empty_like(block)
        got = self.op.matmat(block, out=out, scratch=scratch)
        assert got is out
        np.testing.assert_array_equal(got, self.op.matmat(block))

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_repeated_selection_reuses_gathered_scales(self, form):
        op = BatchedFmmp(self.mutation, self.lands, form=form)
        first = op._scales([2, 0])
        again = op._scales(np.array([2, 0]))
        assert all(a is b for a, b in zip(again, first))  # no second gather
        changed = op._scales([2])
        assert all(c is None or c is not a for c, a in zip(changed, first))
        fresh = BatchedFmmp(self.mutation, self.lands, form=form)._scales([2])
        for c, f in zip(changed, fresh):
            assert (c is None) == (f is None)
            if c is not None:
                np.testing.assert_array_equal(c, f)
        # a repeated product is bitwise a fresh operator's
        rng = np.random.default_rng(6)
        block = rng.standard_normal((op.n, 1))
        want = BatchedFmmp(self.mutation, self.lands, form=form).matmat(block, columns=[2])
        for _ in range(2):
            np.testing.assert_array_equal(op.matmat(block, columns=[2]), want)


class TestDefaultMatmat:
    """The base-class matmat loops matvec — every operator gains it."""

    def test_base_matmat_loops_matvec(self):
        mutation = UniformMutation(4, 0.05)
        land = SinglePeakLandscape(4)
        op = Fmmp(mutation, land)
        rng = np.random.default_rng(6)
        block = rng.standard_normal((16, 3))
        got = op.matmat(block)
        want = np.stack([op.matvec(block[:, j]) for j in range(3)], axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_base_matmat_validates_shape(self):
        op = Fmmp(UniformMutation(3, 0.1), SinglePeakLandscape(3))
        with pytest.raises(ValidationError):
            op.matmat(np.zeros(8))
        with pytest.raises(ValidationError):
            op.matmat(np.zeros((7, 2)))

    def test_base_matmat_empty_block(self):
        op = Fmmp(UniformMutation(3, 0.1), SinglePeakLandscape(3))
        out = op.matmat(np.zeros((8, 0)))
        assert out.shape == (8, 0)


class TestColumnScratch:
    """One-column products run in a scratch block the operator keeps per
    calling thread: reused across calls on a thread, never shared, so
    concurrent callers may share one operator (a shared pair of buffers
    once made concurrent matvec calls corrupt each other)."""

    @staticmethod
    def _hammer(op):
        rng = np.random.default_rng(7)
        vecs = [rng.standard_normal(op.n) for _ in range(8)]
        expected = [op.matvec(v) for v in vecs]

        results = [[None] * len(vecs) for _ in range(4)]
        errors = []

        def worker(tid):
            try:
                for rep in range(5):
                    for i, v in enumerate(vecs):
                        results[tid][i] = op.matvec(v)
            except Exception as exc:  # pragma: no cover - failure capture
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for tid in range(4):
            for i in range(len(vecs)):
                assert np.array_equal(results[tid][i], expected[i])

    def test_concurrent_transposed_matvec_is_correct(self):
        nu = 9
        mutation = PerSiteMutation.from_error_rates(np.linspace(0.01, 0.2, nu))
        land = RandomLandscape(nu, c=4.0, sigma=1.0, seed=0)
        self._hammer(TransposedFmmp(mutation, land, form="symmetric"))

    def test_repeated_matvec_reuses_one_scratch_per_thread(self, monkeypatch):
        nu = 8
        op = Fmmp(UniformMutation(nu, 0.02), RandomLandscape(nu, seed=1))
        real = batched_module.batched_butterfly_transform
        seen = []

        def spy(block, plan, **kwargs):
            seen.append((threading.get_ident(), kwargs["scratch"]))
            return real(block, plan, **kwargs)

        monkeypatch.setattr(batched_module, "batched_butterfly_transform", spy)
        v = op.landscape.start_vector()
        want = [op.matvec(v) for _ in range(3)]
        worker = threading.Thread(target=op.matvec, args=(v,))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(seen) == 4
        (main, first), (_, second), (_, third), (other, theirs) = seen
        assert first.shape == (op.n, 1)
        assert second is first and third is first
        assert other != main and theirs is not first
        assert all(np.array_equal(w, want[0]) for w in want)

    def test_concurrent_matvec_is_correct(self):
        nu = 9
        mutation = UniformMutation(nu, 0.02)
        land = RandomLandscape(nu, c=4.0, sigma=1.0, seed=0)
        self._hammer(Fmmp(mutation, land))
