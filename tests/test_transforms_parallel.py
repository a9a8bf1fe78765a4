"""Panel-parallel butterfly engine tests.

The load-bearing contract: :func:`parallel_butterfly_transform` is
**bit-identical** to the serial stage-fused kernel for every panel
count ``R`` and thread count ``T`` — the partitioned schedule reorders
*which participant* touches which rows, never the arithmetic each row
sees.  A Hypothesis sweep drives the property over ``ν ∈ [2, 10]``,
all three eigenproblem forms and ``R ∈ {1, 2, 4, 8}``; deterministic
tests pin down engine error handling and the one automatic panel rule.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators import Fmmp
from repro.operators.batched import mutation_plan
from repro.transforms import batched_butterfly_transform, fused_stage_plan
from repro.transforms.parallel import (
    PanelEngine,
    auto_panels,
    get_engine,
    max_panels,
    parallel_butterfly_transform,
    resolve_panels,
    resolve_threads,
    shutdown_engines,
)

common = settings(max_examples=15, deadline=None)


@pytest.fixture(scope="module", autouse=True)
def _teardown_engines():
    yield
    shutdown_engines()


def build_mutation(kind, nu, p, seed):
    if kind == "uniform":
        return UniformMutation(nu, p)
    if kind == "persite":
        rng = np.random.default_rng(seed)
        return PerSiteMutation.from_error_rates(rng.uniform(0.0, 0.4, nu))
    rng = np.random.default_rng(seed)
    block = rng.uniform(0.1, 1.0, (4, 4))
    block /= block.sum(axis=0, keepdims=True)
    return GroupedMutation([block] + [site_factor(p) for _ in range(nu - 2)])


def form_scales(form, n, rng):
    """(pre, post) diagonal scalings matching the three Fmmp forms."""
    f = rng.uniform(0.5, 2.0, n)
    if form == "right":
        return f, None
    if form == "left":
        return None, f
    root = np.sqrt(f)
    return root, root


class TestBitIdentity:
    """Threaded == serial, to the last bit, for every (R, T)."""

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.sampled_from([1, 2, 4, 8]),
        st.integers(0, 1_000),
    )
    def test_kernel_matches_serial_bitwise(self, nu, p, kind, form, panels, seed):
        mutation = build_mutation(kind, nu, p, seed)
        factors = mutation.factors_per_bit()
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 4))
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, b)))
        pre, post = form_scales(form, 1 << nu, rng)
        want = batched_butterfly_transform(
            block, fused_stage_plan(factors), pre_scale=pre, post_scale=post
        )
        for threads in (1, 2):
            got = parallel_butterfly_transform(
                block,
                fused_stage_plan(factors),
                pre_scale=pre,
                post_scale=post,
                panels=panels,
                threads=threads,
            )
            assert np.array_equal(want, got), (
                f"bit mismatch at nu={nu} kind={kind} form={form} "
                f"R={panels} T={threads}"
            )

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite", "grouped"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.sampled_from([2, 4]),
        st.integers(0, 1_000),
    )
    def test_operator_matches_serial_bitwise(self, nu, p, kind, form, threads, seed):
        """Fmmp(threads=T) == Fmmp(threads=1), bitwise — and both equal
        the panel engine run with the operator's own panel count, for
        grouped models too (their own plan, one sweep per block)."""
        mutation = build_mutation(kind, nu, p, seed)
        land = RandomLandscape(nu, c=4.0, sigma=1.0, seed=seed)
        rng = np.random.default_rng(seed + 1)
        v = rng.standard_normal(1 << nu)
        want = Fmmp(mutation, land, form=form).matvec(v)
        op = Fmmp(mutation, land, form=form, threads=threads)
        got = op.matvec(v)
        assert np.array_equal(want, got)
        f = land.values()
        pre, post = {
            "right": (f, None),
            "symmetric": (np.sqrt(f), np.sqrt(f)),
            "left": (None, f),
        }[form]
        engine = parallel_butterfly_transform(
            v.reshape(-1, 1),
            mutation_plan(mutation),
            pre_scale=pre,
            post_scale=post,
            panels=auto_panels(nu, 1, threads=threads),
            threads=threads,
        )
        assert np.array_equal(got, engine.reshape(-1))

    @pytest.mark.parametrize("nu", [3, 4, 5])
    @pytest.mark.parametrize("panels", [2, 4, 8])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("form", [None, "right", "symmetric", "left"])
    def test_one_column_local_sweeps_match_serial_bitwise(
        self, nu, panels, variant, form
    ):
        """B = 1 at small ν: the span-1 sweep's local units are runs of
        only a few GEMM rows, so each must keep at least two groups to
        stay on the serial kernel's GEMM branch."""
        factors = PerSiteMutation.from_error_rates(
            np.random.default_rng(nu).uniform(0.0, 0.4, nu)
        ).factors_per_bit()
        rng = np.random.default_rng(panels)
        block = rng.standard_normal((1 << nu, 1))
        pre, post = (None, None) if form is None else form_scales(form, 1 << nu, rng)
        want = batched_butterfly_transform(
            block,
            fused_stage_plan(factors, variant=variant),
            pre_scale=pre,
            post_scale=post,
        )
        for threads in (1, 2):
            got = parallel_butterfly_transform(
                block,
                fused_stage_plan(factors, variant=variant),
                pre_scale=pre,
                post_scale=post,
                panels=panels,
                threads=threads,
            )
            assert np.array_equal(want, got), f"T={threads}"

    def test_eq10_variant_matches_serial_bitwise(self):
        nu = 7
        factors = UniformMutation(nu, 0.05).factors_per_bit()
        rng = np.random.default_rng(0)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 3)))
        want = batched_butterfly_transform(block, fused_stage_plan(factors, variant="eq10"))
        got = parallel_butterfly_transform(
            block, fused_stage_plan(factors, variant="eq10"), panels=4, threads=2
        )
        assert np.array_equal(want, got)

    def test_repeated_threaded_runs_are_byte_identical(self):
        """Determinism: same input, same panels — same bytes every run,
        regardless of thread count."""
        nu = 9
        factors = PerSiteMutation.from_error_rates(
            np.random.default_rng(1).uniform(0.0, 0.3, nu)
        ).factors_per_bit()
        rng = np.random.default_rng(2)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 2)))
        pre = rng.uniform(0.5, 2.0, 1 << nu)
        runs = [
            parallel_butterfly_transform(
                block,
                fused_stage_plan(factors),
                pre_scale=pre,
                panels=4,
                threads=t,
            )
            for t in (1, 2, 4, 2, 1)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    @pytest.mark.parametrize("max_radix", [2, 4, 8])
    @pytest.mark.parametrize("b", [1, 2, 16])
    def test_every_panel_count_matches_serial_bitwise(self, max_radix, b):
        """``R`` up to 64 (clamped to the plan's cap) at every small ν:
        the work units of ``_stage_units`` keep each sweep on the serial
        kernel's BLAS call, whatever the radix."""
        rng = np.random.default_rng(b)
        for nu in range(1, 9):
            factors = PerSiteMutation.from_error_rates(
                rng.uniform(0.0, 0.4, nu)
            ).factors_per_bit()
            plan = fused_stage_plan(factors, max_radix=max_radix)
            block = rng.standard_normal((1 << nu, b))
            pre = rng.uniform(0.5, 2.0, 1 << nu)
            want = batched_butterfly_transform(block, plan, pre_scale=pre)
            for panels in (2, 4, 8, 16, 32, 64):
                got = parallel_butterfly_transform(
                    block, plan, pre_scale=pre, panels=panels, threads=2
                )
                assert np.array_equal(want, got), f"nu={nu} R={panels}"

    def test_out_and_scratch_buffers_reused(self):
        nu = 6
        factors = UniformMutation(nu, 0.03).factors_per_bit()
        rng = np.random.default_rng(3)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 2)))
        out = np.empty_like(block)
        scratch = np.empty_like(block)
        plan = fused_stage_plan(factors)
        got = parallel_butterfly_transform(
            block, plan, panels=2, threads=2, out=out, scratch=scratch
        )
        assert got is out
        assert np.array_equal(got, batched_butterfly_transform(block, plan))

    def test_aliased_buffers_rejected(self):
        nu = 5
        factors = UniformMutation(nu, 0.03).factors_per_bit()
        block = np.zeros((1 << nu, 1))
        buf = np.empty_like(block)
        with pytest.raises(ValidationError, match="alias"):
            parallel_butterfly_transform(
                block, fused_stage_plan(factors), panels=2, out=buf, scratch=buf
            )


class TestResolution:
    def test_resolve_panels_clamps_to_max(self):
        assert max_panels(2) == 1
        assert resolve_panels(4, 2) == 1
        assert resolve_panels(4, 10) == 4
        assert resolve_panels(256, 10) == max_panels(10) == 128

    @pytest.mark.parametrize("nu, batch, threads, want", [
        (17, 2, 3, 2),  # N·B = 2^18: largest power of two <= 3 threads
        (17, 1, 3, 1),  # N·B = 2^17: the serial kernel
        (18, 1, 4, 4),
        (14, 16, 8, 8),
    ])
    def test_no_panels_means_auto_panels_of_the_block(self, nu, batch, threads, want, monkeypatch):
        """``panels=None`` is the one automatic rule, :func:`auto_panels`
        of the block's shape — the rule the operators run with."""
        import repro.transforms.parallel as parallel

        seen = []

        def spy(*args, **kwargs):
            seen.append(auto_panels(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(parallel, "auto_panels", spy)
        plan = fused_stage_plan(UniformMutation(nu, 0.03).factors_per_bit())
        block = np.random.default_rng(nu).standard_normal((1 << nu, batch))
        got = parallel_butterfly_transform(block, plan, threads=threads)
        assert seen == [want]
        assert np.array_equal(got, batched_butterfly_transform(block, plan))

    @pytest.mark.parametrize("radix", [2, 4, 8])
    def test_cap_is_n_over_the_largest_radix(self, radix):
        assert max_panels(6, radix=radix) == 64 // radix
        assert resolve_panels(64, 6, radix=radix) == 64 // radix
        assert max_panels(6) == max_panels(6, radix=8)

    @pytest.mark.parametrize("max_radix", [2, 4, 8])
    def test_transform_caps_panels_by_its_plan(self, max_radix, monkeypatch):
        """The cap comes from the plan's largest radix — an all-radix-8
        plan caps at N/8, not N/2."""
        import repro.transforms.parallel as parallel

        seen = []
        real = parallel.resolve_panels

        def spy(panels, nu, **kw):
            seen.append(real(panels, nu, **kw))
            return seen[-1]

        monkeypatch.setattr(parallel, "resolve_panels", spy)
        factors = UniformMutation(6, 0.03).factors_per_bit()
        plan = fused_stage_plan(factors, max_radix=max_radix)
        block = np.random.default_rng(0).standard_normal((64, 2))
        got = parallel_butterfly_transform(block, plan, panels=64, threads=2)
        assert seen == [64 // max_radix]
        assert np.array_equal(got, batched_butterfly_transform(block, plan))

    def test_resolve_panels_rejects_non_power_of_two(self):
        with pytest.raises(ValidationError, match="power of two"):
            resolve_panels(3, 8)

    def test_resolve_threads_validates(self):
        assert resolve_threads(2) == 2
        with pytest.raises(ValidationError):
            resolve_threads(0)
        with pytest.raises(ValidationError):
            resolve_threads(True)


class TestPanelEngine:
    def test_worker_exception_propagates_and_engine_survives(self):
        eng = PanelEngine(2)
        try:

            def boom(t):
                if t == 1:
                    raise RuntimeError("worker died on purpose")
                eng.barrier_wait()

            with pytest.raises(RuntimeError, match="on purpose"):
                eng.run(boom)

            # The engine must be reusable after an abort.
            hits = []
            lock = threading.Lock()

            def ok(t):
                with lock:
                    hits.append(t)
                eng.barrier_wait()

            eng.run(ok)
            assert sorted(hits) == [0, 1]
        finally:
            eng.close()

    def test_caller_exception_propagates(self):
        eng = PanelEngine(2)
        try:

            def boom(t):
                if t == 0:
                    raise ValueError("caller died")
                eng.barrier_wait()

            with pytest.raises(ValueError, match="caller died"):
                eng.run(boom)
        finally:
            eng.close()

    def test_closed_engine_rejects_jobs(self):
        eng = PanelEngine(2)
        eng.close()
        eng.close()  # idempotent
        with pytest.raises(ValidationError, match="closed"):
            eng.run(lambda t: None)

    def test_single_thread_engine_is_a_plain_call(self):
        eng = PanelEngine(1)
        seen = []
        eng.run(seen.append)
        assert seen == [0]

    def test_get_engine_caches_per_thread_count(self):
        a = get_engine(2)
        assert get_engine(2) is a
        assert get_engine(3) is not a


class TestAutoPanels:
    """``R = min(largest power of two <= T, max_panels(ν))`` once the
    block holds ``N·B >= 2^18`` doubles, else the serial kernel."""

    def test_serial_for_small_transforms(self):
        for nu in (2, 4, 6, 8):
            assert auto_panels(nu, 1, threads=4) == 1

    def test_parallel_for_paper_sizes(self):
        assert auto_panels(18, 1, threads=4) > 1
        assert auto_panels(20, 16, threads=4) > 1

    def test_one_thread_never_panels(self):
        assert auto_panels(18, 1, threads=1) == 1

    def test_respects_max_panels_cap(self):
        assert auto_panels(18, 1, threads=64) <= max_panels(18)
        assert auto_panels(2, 1 << 18, threads=8) == max_panels(2) == 1

    def test_threshold_and_power_of_two_rule(self):
        assert auto_panels(17, 1, threads=8) == 1  # N·B = 2^17
        assert auto_panels(17, 2, threads=8) == 8  # N·B = 2^18
        assert auto_panels(18, 1, threads=3) == 2
        assert auto_panels(14, 16, threads=4) == 4


class TestPanelReducer:
    """Row-panel contract of the panel engine: power-of-two panel counts
    only, whole ``2**ν``-row blocks only, and the same bytes whether the
    worker threads or the caller alone fill the panels."""

    def test_engine_and_serial_fill_are_byte_identical(self):
        nu = 12
        factors = UniformMutation(nu, 0.02).factors_per_bit()
        rng = np.random.default_rng(7)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 1)))
        pre = rng.uniform(0.5, 2.0, 1 << nu)
        serial = parallel_butterfly_transform(
            block, fused_stage_plan(factors), pre_scale=pre, panels=4, threads=1
        )
        threaded = parallel_butterfly_transform(
            block, fused_stage_plan(factors), pre_scale=pre, panels=4, threads=2
        )
        assert serial.tobytes() == threaded.tobytes()

    def test_indivisible_length_rejected(self):
        factors = UniformMutation(2, 0.02).factors_per_bit()
        with pytest.raises(ValidationError, match="rows"):
            parallel_butterfly_transform(
                np.zeros((6, 1)), fused_stage_plan(factors), panels=4, threads=2
            )

    def test_bad_panel_counts_rejected(self):
        factors = UniformMutation(6, 0.02).factors_per_bit()
        block = np.zeros((1 << 6, 1))
        with pytest.raises(ValidationError):
            parallel_butterfly_transform(block, fused_stage_plan(factors), panels=3)
        with pytest.raises(ValidationError):
            parallel_butterfly_transform(block, fused_stage_plan(factors), panels=0)
