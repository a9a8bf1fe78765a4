"""Threaded butterfly tests: every sweep shared among ``threads``.

The load-bearing contract: :func:`batched_butterfly_transform` with
``threads = T`` is **bit-identical** to ``threads = 1`` for every ``T`` —
sharing each sweep's chunk list reorders *which participant* touches
which chunk, never the arithmetic a chunk sees.  A Hypothesis sweep
drives the property over ``ν ∈ [2, 10]``, all three eigenproblem forms
and ``T ∈ {2, 3, 4}``; deterministic tests pin down that every
participant works, that concurrent callers never share a running
engine, and the engine's error handling.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.transforms.batched as kernel
from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators import Fmmp
from repro.operators.batched import mutation_plan
from repro.transforms import batched_butterfly_transform, fused_stage_plan
from repro.transforms.parallel import (
    PanelEngine,
    borrow_engine,
    resolve_threads,
    shutdown_engines,
)

common = settings(max_examples=15, deadline=None)
THREADS = (2, 3, 4)


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
    """Threaded == serial, to the last bit, for every thread count."""

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.sampled_from([8, 1024, kernel._CHUNK_BYTES]),
        st.integers(0, 1_000),
    )
    def test_kernel_matches_serial_bitwise(self, nu, p, kind, form, chunk_bytes, seed):
        mutation = build_mutation(kind, nu, p, seed)
        factors = mutation.factors_per_bit()
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 4))
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, b)))
        pre, post = form_scales(form, 1 << nu, rng)
        plan = fused_stage_plan(factors)
        want = batched_butterfly_transform(block, plan, pre_scale=pre, post_scale=post)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel, "_CHUNK_BYTES", chunk_bytes)
            for threads in THREADS:
                got = batched_butterfly_transform(
                    block, plan, pre_scale=pre, post_scale=post, threads=threads
                )
                assert np.array_equal(want, got), (
                    f"bit mismatch at nu={nu} kind={kind} form={form} "
                    f"chunk={chunk_bytes} T={threads}"
                )

    @common
    @given(
        st.integers(2, 10),
        st.floats(1e-4, 0.45),
        st.sampled_from(["uniform", "persite", "grouped"]),
        st.sampled_from(["right", "symmetric", "left"]),
        st.sampled_from(THREADS),
        st.integers(0, 1_000),
    )
    def test_operator_matches_serial_bitwise(self, nu, p, kind, form, threads, seed):
        """Fmmp(threads=T) == Fmmp(threads=1), bitwise — and both equal
        the kernel run on ``T`` participants, for grouped models too
        (their own plan, one sweep per block)."""
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
        shared = batched_butterfly_transform(
            v.reshape(-1, 1),
            mutation_plan(mutation),
            pre_scale=pre,
            post_scale=post,
            threads=threads,
        )
        assert np.array_equal(got, shared.reshape(-1))

    @pytest.mark.parametrize("nu", [3, 4, 5])
    @pytest.mark.parametrize("threads", THREADS)
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    @pytest.mark.parametrize("form", [None, "right", "symmetric", "left"])
    def test_one_column_local_sweeps_match_serial_bitwise(
        self, nu, threads, variant, form, monkeypatch
    ):
        """B = 1 at small ν with the smallest chunks: the span-1 sweep's
        shares are runs of only a few GEMM rows, so each chunk must keep
        at least two groups to stay on the serial kernel's GEMM branch."""
        factors = PerSiteMutation.from_error_rates(
            np.random.default_rng(nu).uniform(0.0, 0.4, nu)
        ).factors_per_bit()
        rng = np.random.default_rng(threads)
        block = rng.standard_normal((1 << nu, 1))
        pre, post = (None, None) if form is None else form_scales(form, 1 << nu, rng)
        plan = fused_stage_plan(factors, variant=variant)
        want = batched_butterfly_transform(block, plan, pre_scale=pre, post_scale=post)
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 8)
        got = batched_butterfly_transform(
            block, plan, pre_scale=pre, post_scale=post, threads=threads
        )
        assert np.array_equal(want, got)

    def test_eq10_variant_matches_serial_bitwise(self):
        nu = 7
        factors = UniformMutation(nu, 0.05).factors_per_bit()
        rng = np.random.default_rng(0)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 3)))
        plan = fused_stage_plan(factors, variant="eq10")
        want = batched_butterfly_transform(block, plan)
        got = batched_butterfly_transform(block, plan, threads=3)
        assert np.array_equal(want, got)

    def test_repeated_threaded_runs_are_byte_identical(self):
        """Determinism: same input — same bytes every run, regardless of
        thread count."""
        nu = 9
        factors = PerSiteMutation.from_error_rates(
            np.random.default_rng(1).uniform(0.0, 0.3, nu)
        ).factors_per_bit()
        rng = np.random.default_rng(2)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 2)))
        pre = rng.uniform(0.5, 2.0, 1 << nu)
        runs = [
            batched_butterfly_transform(
                block, fused_stage_plan(factors), pre_scale=pre, threads=t
            )
            for t in (1, 2, 4, 3, 2, 1)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    @pytest.mark.parametrize("max_radix", [2, 4, 8])
    @pytest.mark.parametrize("b", [1, 2, 16])
    def test_every_thread_count_matches_serial_bitwise(self, max_radix, b, monkeypatch):
        """Thread counts up to more than the chunks of a sweep, with
        1 KiB chunks, at every small ν: the shares of each sweep's chunk
        list keep it on the serial kernel's BLAS calls, whatever the
        radix."""
        rng = np.random.default_rng(b)
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1024)
        for nu in range(1, 9):
            factors = PerSiteMutation.from_error_rates(
                rng.uniform(0.0, 0.4, nu)
            ).factors_per_bit()
            plan = fused_stage_plan(factors, max_radix=max_radix)
            block = rng.standard_normal((1 << nu, b))
            pre = rng.uniform(0.5, 2.0, 1 << nu)
            want = batched_butterfly_transform(block, plan, pre_scale=pre)
            for threads in (2, 3, 4, 5, 8):
                got = batched_butterfly_transform(block, plan, pre_scale=pre, threads=threads)
                assert np.array_equal(want, got), f"nu={nu} T={threads}"

    def test_out_and_scratch_buffers_reused(self):
        nu = 6
        factors = UniformMutation(nu, 0.03).factors_per_bit()
        rng = np.random.default_rng(3)
        block = np.ascontiguousarray(rng.standard_normal((1 << nu, 2)))
        out = np.empty_like(block)
        scratch = np.empty_like(block)
        plan = fused_stage_plan(factors)
        got = batched_butterfly_transform(block, plan, threads=2, out=out, scratch=scratch)
        assert got is out
        assert np.array_equal(got, batched_butterfly_transform(block, plan))

    def test_aliased_buffers_rejected(self):
        nu = 5
        factors = UniformMutation(nu, 0.03).factors_per_bit()
        block = np.zeros((1 << nu, 1))
        buf = np.empty_like(block)
        with pytest.raises(ValidationError, match="alias"):
            batched_butterfly_transform(
                block, fused_stage_plan(factors), threads=2, out=buf, scratch=buf
            )

    def test_indivisible_length_rejected(self):
        factors = UniformMutation(2, 0.02).factors_per_bit()
        with pytest.raises(ValidationError, match="rows"):
            batched_butterfly_transform(np.zeros((6, 1)), fused_stage_plan(factors), threads=2)

    def test_bad_thread_counts_rejected(self):
        factors = UniformMutation(6, 0.02).factors_per_bit()
        block = np.zeros((1 << 6, 1))
        for bad in (0, -1, True, 2.0):
            with pytest.raises(ValidationError, match="threads"):
                batched_butterfly_transform(block, fused_stage_plan(factors), threads=bad)


class TestChunkSizeInvariance:
    """The shares of tiny chunk lists (down to one double), of mid-sized
    ones and of the default ones give the bits of a one-chunk serial run,
    for 2, 3 and 4 threads, and every column equals the column run alone.
    ``ν`` 1–12 (tiny chunks up to ν = 10), ``B`` 1, 2, 3, 5 and 16 in
    turn, both variants, shared and per-column scales; the grouped model
    has a 4-bit group from ν = 4 on (its plan runs column by column)."""

    CHUNK_BYTES = (8, 1024, kernel._CHUNK_BYTES)

    @pytest.mark.parametrize("kind", ["uniform", "persite", "grouped"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_shares_do_not_change_the_bits(self, kind, form, monkeypatch):
        rng = np.random.default_rng(len(kind) * len(form))
        for nu in range(1, 13):
            if kind == "grouped":
                sizes = [min(4, nu)] + [1] * (nu - min(4, nu))
                blocks = [rng.uniform(0.1, 1.0, (1 << g, 1 << g)) for g in sizes]
                mutation = GroupedMutation([blk / blk.sum(axis=0) for blk in blocks])
            else:
                mutation = build_mutation(kind, nu, float(rng.uniform(1e-3, 0.4)), nu)
            plan = mutation_plan(mutation, ("eq9", "eq10")[nu % 2])
            n, b = 1 << nu, (1, 2, 3, 5, 16)[nu % 5]
            block = rng.standard_normal((n, b))
            f = rng.uniform(0.5, 2.0, (n, b) if nu % 3 else n)
            root = np.sqrt(f)
            pre, post = {"right": (f, None), "symmetric": (root, root), "left": (None, f)}[form]

            def cols(scale, j):
                return scale if scale is None or scale.ndim == 1 else scale[:, j : j + 1]

            monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1 << 60)
            one_chunk = batched_butterfly_transform(block, plan, pre_scale=pre, post_scale=post)
            lone = [
                batched_butterfly_transform(
                    block[:, j : j + 1], plan, pre_scale=cols(pre, j), post_scale=cols(post, j)
                )[:, 0]
                for j in range(b)
            ]
            for size in self.CHUNK_BYTES if nu <= 10 else self.CHUNK_BYTES[1:]:
                monkeypatch.setattr(kernel, "_CHUNK_BYTES", size)
                for threads in THREADS:
                    got = batched_butterfly_transform(
                        block, plan, pre_scale=pre, post_scale=post, threads=threads
                    )
                    where = f"nu={nu} B={b} chunk={size} T={threads}"
                    assert np.array_equal(got, one_chunk), where
                    for j in range(b):
                        assert np.array_equal(got[:, j], lone[j]), f"{where} column {j}"


class TestSharing:
    """Who runs what: every participant works on every sweep, and
    concurrent callers each get an engine of their own."""

    def test_every_participant_runs_a_share_of_every_sweep(self, monkeypatch):
        """``threads=3`` runs work on 3 distinct threads per sweep, the
        caller among them, each on its contiguous share of the chunks."""
        nu, b = 10, 2
        plan = fused_stage_plan(UniformMutation(nu, 0.02).factors_per_bit())
        block = np.random.default_rng(0).standard_normal((1 << nu, b))
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1024)
        calls = []
        real = kernel._apply_fused

        def spy(src, dst, sweep):
            if sweep.chunks:
                calls.append((sweep.stage.span, threading.get_ident(), tuple(sweep.chunks)))
            return real(src, dst, sweep)

        monkeypatch.setattr(kernel, "_apply_fused", spy)
        got = batched_butterfly_transform(block, plan, threads=3)
        monkeypatch.setattr(kernel, "_apply_fused", real)
        assert np.array_equal(got, batched_butterfly_transform(block, plan))
        for stage in plan:
            mine = [(ident, chunks) for span, ident, chunks in calls if span == stage.span]
            assert len({ident for ident, _ in mine}) == 3, f"span {stage.span}"
            assert threading.get_ident() in {ident for ident, _ in mine}
            every = kernel._chunks(1 << nu, b, stage)
            assert sorted(c for _, chunks in mine for c in chunks) == sorted(every)

    @staticmethod
    def record_sweeps(monkeypatch, plan, block, threads, pre=None):
        """Run one product and log every ``_apply_fused`` call, in order,
        as ``(event, sweep, participant, chunks)``; the caller is
        participant 0, engine worker ``t`` runs on thread
        ``repro-panel-t``."""
        spans = [stage.span for stage in plan]
        events, lock = [], threading.Lock()
        real = kernel._apply_fused

        def spy(src, dst, sweep):
            name = threading.current_thread().name
            t = int(name.rsplit("-", 1)[1]) if name.startswith("repro-panel-") else 0
            entry = (spans.index(sweep.stage.span), t, tuple(sweep.chunks))
            with lock:
                events.append(("start", *entry))
            real(src, dst, sweep)
            with lock:
                events.append(("end", *entry))

        monkeypatch.setattr(kernel, "_apply_fused", spy)
        got = batched_butterfly_transform(block, plan, pre_scale=pre, threads=threads)
        monkeypatch.setattr(kernel, "_apply_fused", real)
        return got, events

    @pytest.mark.parametrize("chunk_bytes", [1024, kernel._CHUNK_BYTES])
    @pytest.mark.parametrize("threads", [2, 3, 5, 8])
    def test_each_participant_runs_its_contiguous_share(self, threads, chunk_bytes, monkeypatch):
        """Participant ``t`` runs ``chunks[t·c/T : (t+1)·c/T]`` of every
        sweep, once, also when it is empty: 1 KiB chunks give 8 or 16
        chunks a sweep, the default size one chunk (so 8 participants
        leave seven shares empty)."""
        nu, b = 10, 2
        plan = fused_stage_plan(UniformMutation(nu, 0.02).factors_per_bit())
        rng = np.random.default_rng(threads)
        block = rng.standard_normal((1 << nu, b))
        pre = rng.uniform(0.5, 2.0, 1 << nu)
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", chunk_bytes)
        got, events = self.record_sweeps(monkeypatch, plan, block, threads, pre)
        assert np.array_equal(got, batched_butterfly_transform(block, plan, pre_scale=pre))
        starts = [entry for event, *entry in events if event == "start"]
        assert len(starts) == len(plan) * threads
        for i, stage in enumerate(plan):
            every = kernel._chunks(1 << nu, b, stage)
            c = len(every)
            shares = {t: chunks for sweep, t, chunks in starts if sweep == i}
            assert shares == {
                t: tuple(every[t * c // threads : (t + 1) * c // threads])
                for t in range(threads)
            }, f"sweep {i}"

    @pytest.mark.parametrize("threads", [2, 3, 5, 8])
    def test_a_barrier_ends_every_sweep(self, threads, monkeypatch):
        """No participant starts sweep ``i + 1`` before every participant
        has finished sweep ``i``: the next sweep reads what the others
        wrote."""
        nu, b = 10, 2
        plan = fused_stage_plan(UniformMutation(nu, 0.02).factors_per_bit())
        block = np.random.default_rng(threads).standard_normal((1 << nu, b))
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1024)
        _, events = self.record_sweeps(monkeypatch, plan, block, threads)
        for i in range(len(plan) - 1):
            last_end = max(k for k, (ev, sweep, *_) in enumerate(events)
                           if ev == "end" and sweep == i)
            first_next = min(k for k, (ev, sweep, *_) in enumerate(events)
                             if ev == "start" and sweep == i + 1)
            assert last_end < first_next, f"sweep {i + 1} started early"

    def test_env_thread_count_reaches_the_kernel(self, monkeypatch):
        """``threads=None`` reads ``REPRO_NUM_THREADS``: three
        participants share every sweep, with the serial bits."""
        nu, b = 9, 2
        plan = fused_stage_plan(UniformMutation(nu, 0.02).factors_per_bit())
        block = np.random.default_rng(4).standard_normal((1 << nu, b))
        monkeypatch.setattr(kernel, "_CHUNK_BYTES", 1024)
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        got, events = self.record_sweeps(monkeypatch, plan, block, None)
        assert {t for _, _, t, _ in events} == {0, 1, 2}
        monkeypatch.delenv("REPRO_NUM_THREADS")
        assert np.array_equal(got, batched_butterfly_transform(block, plan, threads=None))

    def test_concurrent_callers_never_share_a_running_engine(self):
        """Two Python threads running ``threads=2`` products at the same
        time: no engine-busy error, and every product has the serial
        bits."""
        nu, b = 10, 2
        plan = fused_stage_plan(UniformMutation(nu, 0.02).factors_per_bit())
        rng = np.random.default_rng(5)
        blocks = [rng.standard_normal((1 << nu, b)) for _ in range(2)]
        want = [batched_butterfly_transform(blk, plan) for blk in blocks]
        start = threading.Barrier(2)
        errors, mismatches = [], []

        def caller(k):
            try:
                start.wait()
                for _ in range(50):
                    got = batched_butterfly_transform(blocks[k], plan, threads=2)
                    if not np.array_equal(got, want[k]):
                        mismatches.append(k)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        callers = [threading.Thread(target=caller, args=(k,)) for k in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not errors, errors
        assert not mismatches

    def test_sequential_products_reuse_one_engine(self):
        """100 sequential products keep the process's thread count flat."""
        nu = 8
        plan = fused_stage_plan(UniformMutation(nu, 0.02).factors_per_bit())
        block = np.random.default_rng(1).standard_normal((1 << nu, 2))
        batched_butterfly_transform(block, plan, threads=3)
        before = threading.active_count()
        for _ in range(100):
            batched_butterfly_transform(block, plan, threads=3)
        assert threading.active_count() == before


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

    def test_borrow_engine_reuses_idle_engines_only(self):
        """Sequential borrows get the same engine; a borrow while it is
        out gets another; engines are kept per participant count."""
        with borrow_engine(2) as a:
            with borrow_engine(2) as busy:
                assert busy is not a
        with borrow_engine(2) as again:
            assert again in (a, busy)
        with borrow_engine(3) as other:
            assert other is not a and other.threads == 3

    def test_run_while_running_is_rejected(self):
        """A second job on a running engine is refused; the refusal
        unwinds the first job and the engine stays usable."""
        eng = PanelEngine(2)
        try:

            def nested(t):
                if t == 0:
                    eng.run(lambda s: None)
                eng.barrier_wait()

            with pytest.raises(ValidationError, match="already running"):
                eng.run(nested)
            hits = []
            eng.run(hits.append)
            assert sorted(hits) == [0, 1]
        finally:
            eng.close()

    def test_borrowed_engine_returns_after_an_error(self):
        """A product that raises still hands its engine back, and the
        next borrow of that size gets it, ready to run."""
        with pytest.raises(RuntimeError, match="product failed"):
            with borrow_engine(2) as eng:
                raise RuntimeError("product failed")
        with borrow_engine(2) as again:
            assert again is eng
            hits = []
            again.run(hits.append)
            assert sorted(hits) == [0, 1]

    def test_shutdown_closes_idle_engines(self):
        with borrow_engine(2) as eng:
            pass
        shutdown_engines()
        with pytest.raises(ValidationError, match="closed"):
            eng.run(lambda t: None)
        with borrow_engine(2) as fresh:
            assert fresh is not eng

    def test_resolve_threads_validates(self):
        assert resolve_threads(2) == 2
        with pytest.raises(ValidationError):
            resolve_threads(0)
        with pytest.raises(ValidationError):
            resolve_threads(True)
