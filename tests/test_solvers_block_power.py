"""Block power iteration: lock-step sweeps, per-column shifts, deflation."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import PerSiteMutation, UniformMutation
from repro.operators import BatchedFmmp, Fmmp
from repro.operators.shifted import ShiftedOperator, conservative_shift
from repro.solvers import BlockPowerIteration, BlockSolveResult, PowerIteration

NU = 6
P = 0.02


def make_operator(form="right", n_lands=3):
    mutation = UniformMutation(NU, P)
    lands = [
        SinglePeakLandscape(NU, f_peak=2.0),
        RandomLandscape(NU, c=4.0, sigma=1.0, seed=0),
        RandomLandscape(NU, c=4.0, sigma=1.0, seed=1),
    ][:n_lands]
    return BatchedFmmp(mutation, lands, form=form), mutation, lands


class TestAgainstScalarPowerIteration:
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_eigenpairs_match_scalar_route(self, form):
        op, mutation, lands = make_operator(form)
        block = BlockPowerIteration(op, tol=1e-12).solve()
        assert isinstance(block, BlockSolveResult)
        assert block.converged
        for j, land in enumerate(lands):
            scalar = PowerIteration(Fmmp(mutation, land, form=form), tol=1e-12).solve(
                land.start_vector(), landscape=land, form=form
            )
            assert block[j].eigenvalue == pytest.approx(scalar.eigenvalue, rel=1e-10)
            np.testing.assert_allclose(
                block[j].concentrations, scalar.concentrations, atol=1e-9
            )

    def test_iteration_counts_match_scalar_route(self):
        """Lock-step + deflation must not change any column's trajectory."""
        op, mutation, lands = make_operator()
        block = BlockPowerIteration(op, tol=1e-12).solve()
        for j, land in enumerate(lands):
            scalar = PowerIteration(Fmmp(mutation, land), tol=1e-12).solve(
                land.start_vector()
            )
            assert block[j].iterations == scalar.iterations
        assert block.sweeps == max(r.iterations for r in block)

    def test_per_column_shifts_match_shifted_scalar(self):
        op, mutation, lands = make_operator()
        shifts = [conservative_shift(mutation, land) for land in lands]
        block = BlockPowerIteration(op, shifts=shifts, tol=1e-12).solve()
        for j, land in enumerate(lands):
            shifted = ShiftedOperator(Fmmp(mutation, land), shifts[j])
            scalar = PowerIteration(shifted, tol=1e-12).solve(land.start_vector())
            assert block[j].eigenvalue == pytest.approx(scalar.eigenvalue, rel=1e-10)

    def test_shifts_accelerate_convergence(self):
        op, mutation, lands = make_operator()
        plain = BlockPowerIteration(op, tol=1e-12).solve()
        shifts = [conservative_shift(mutation, land) for land in lands]
        shifted = BlockPowerIteration(op, shifts=shifts, tol=1e-12).solve()
        assert shifted.sweeps <= plain.sweeps
        np.testing.assert_allclose(
            shifted.eigenvalues, plain.eigenvalues, rtol=1e-9
        )


class TestBlockSolveResult:
    def test_sequence_protocol(self):
        op, _, lands = make_operator()
        block = BlockPowerIteration(op, tol=1e-10).solve()
        assert len(block) == len(lands)
        assert [r.eigenvalue for r in block] == list(block.eigenvalues)
        assert block[1] is block.columns[1]

    def test_method_label(self):
        op, _, _ = make_operator()
        block = BlockPowerIteration(op, tol=1e-10).solve(method_name="BPi(Fmmp)")
        assert all(r.method == "BPi(Fmmp)" for r in block)

    def test_record_history(self):
        op, _, _ = make_operator()
        block = BlockPowerIteration(op, tol=1e-10, record_history=True).solve()
        for r in block:
            assert len(r.history) == r.iterations
            assert r.history[-1].residual < 1e-10


class TestDeflationAndFailure:
    def test_deflation_freezes_fast_columns(self):
        """Columns converging at different speeds all land on the right
        eigenpair (the fast ones are frozen, not dragged along)."""
        mutation = UniformMutation(NU, P)
        lands = [
            SinglePeakLandscape(NU, f_peak=8.0),  # large gap: fast
            RandomLandscape(NU, c=5.0, sigma=2.0, seed=5),  # slow
        ]
        op = BatchedFmmp(mutation, lands)
        block = BlockPowerIteration(op, tol=1e-12).solve()
        its = [r.iterations for r in block]
        assert its[0] != its[1]  # genuinely different convergence speeds
        for j, land in enumerate(lands):
            scalar = PowerIteration(Fmmp(mutation, land), tol=1e-12).solve(
                land.start_vector()
            )
            assert block[j].eigenvalue == pytest.approx(scalar.eigenvalue, rel=1e-10)

    def test_raise_on_fail_true_raises(self):
        op, _, _ = make_operator()
        with pytest.raises(ConvergenceError, match="did not reach"):
            BlockPowerIteration(op, tol=1e-14, max_iterations=2).solve()

    def test_raise_on_fail_false_flags_stragglers(self):
        op, _, _ = make_operator()
        block = BlockPowerIteration(op, tol=1e-14, max_iterations=2).solve(
            raise_on_fail=False
        )
        assert not block.converged
        assert all(not r.converged for r in block)
        assert all(np.isfinite(r.eigenvalue) for r in block)


class TestValidation:
    def test_bad_tol_and_iterations(self):
        op, _, _ = make_operator()
        with pytest.raises(ValidationError):
            BlockPowerIteration(op, tol=0.0)
        with pytest.raises(ValidationError):
            BlockPowerIteration(op, max_iterations=0)

    def test_starts_shape_checked(self):
        op, _, _ = make_operator()
        with pytest.raises(ValidationError, match="starts"):
            BlockPowerIteration(op).solve(np.zeros(op.n))
        with pytest.raises(ValidationError, match="columns"):
            BlockPowerIteration(op).solve(np.ones((op.n, 2)))

    def test_zero_mass_start_rejected(self):
        op, _, _ = make_operator()
        starts = np.ones((op.n, 3))
        starts[:, 1] = 0.0
        with pytest.raises(ValidationError, match="mass"):
            BlockPowerIteration(op).solve(starts)

    def test_shift_length_checked(self):
        op, _, _ = make_operator()
        with pytest.raises(ValidationError, match="shifts"):
            BlockPowerIteration(op, shifts=[0.1, 0.2]).solve()

    def test_shared_operator_requires_starts(self):
        mutation = UniformMutation(NU, P)
        land = SinglePeakLandscape(NU)
        shared = BatchedFmmp(mutation, land)
        with pytest.raises(ValidationError, match="starts"):
            BlockPowerIteration(shared).solve()
        # ... and works when given a block of starts:
        starts = np.repeat(land.start_vector()[:, None], 2, axis=1)
        block = BlockPowerIteration(shared, tol=1e-11).solve(starts)
        assert block.converged and len(block) == 2
        assert block[0].eigenvalue == pytest.approx(block[1].eigenvalue, rel=1e-12)


def _same_bits(a, b):
    return (
        a.eigenvalue == b.eigenvalue
        and a.residual == b.residual
        and a.iterations == b.iterations
        and np.array_equal(a.eigenvector, b.eigenvector)
        and np.array_equal(a.concentrations, b.concentrations)
    )


class TestBatchWidthInvariance:
    """A column's bits never depend on the other columns of its block:
    ``PowerIteration`` on ``Fmmp`` is bitwise the same column of a
    ``BlockPowerIteration``, deflation included."""

    @pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "shifted"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    @pytest.mark.parametrize("kind", ["uniform", "persite"])
    def test_scalar_solve_is_the_block_column(self, kind, form, shifted):
        for nu in range(1, 11):
            if kind == "uniform":
                mutation = UniformMutation(nu, 0.03)
            else:
                mutation = PerSiteMutation.from_error_rates(np.linspace(0.01, 0.05, nu))
            lands = [RandomLandscape(nu, c=4.0, sigma=0.5 + 0.4 * s, seed=s) for s in range(4)]
            shifts = [0.3 * land.fmin if shifted else 0.0 for land in lands]
            block = BlockPowerIteration(
                BatchedFmmp(mutation, lands, form=form), shifts=shifts, tol=1e-13
            ).solve(raise_on_fail=False)
            for j, land in enumerate(lands):
                op = Fmmp(mutation, land, form=form)
                if shifted:
                    op = ShiftedOperator(op, shifts[j])
                alone = PowerIteration(op, tol=1e-13).solve(
                    land.start_vector(), landscape=land, form=form, raise_on_fail=False
                )
                assert _same_bits(alone, block[j]), f"nu={nu} column {j}"

    def test_columns_deflating_at_different_sweeps(self):
        nu = 10
        mutation = UniformMutation(nu, 0.01)
        lands = [
            SinglePeakLandscape(nu, f_peak=8.0),
            RandomLandscape(nu, c=5.0, sigma=2.0, seed=5),
            SinglePeakLandscape(nu, f_peak=1.5),
            RandomLandscape(nu, c=4.0, sigma=0.5, seed=6),
        ]
        shifts = [conservative_shift(mutation, land) for land in lands]
        block = BlockPowerIteration(
            BatchedFmmp(mutation, lands), shifts=shifts, tol=1e-13, record_history=True
        ).solve()
        assert len({r.iterations for r in block}) == len(lands)
        for j, land in enumerate(lands):
            alone = PowerIteration(
                ShiftedOperator(Fmmp(mutation, land), shifts[j]), tol=1e-13, record_history=True
            ).solve(land.start_vector(), landscape=land)
            assert _same_bits(alone, block[j]), f"column {j}"
            assert alone.history == block[j].history

    def test_column_sums_do_not_depend_on_width(self):
        from repro.solvers.power import column_sums

        rng = np.random.default_rng(0)
        for nu in (1, 3, 6, 7, 12):
            block = rng.random((1 << nu, 16))
            full = column_sums(block)
            for width in (1, 2, 5):
                np.testing.assert_array_equal(
                    column_sums(np.ascontiguousarray(block[:, :width])), full[:width]
                )


def _old_column_sums(block):
    """The whole-block fixed-order sums the tiled reducer replaced."""
    n, b = block.shape
    p = min(64, n & -n)
    if p < 2:
        return np.add.reduce(block)
    sums = block.reshape(n // p, p * b)
    sums = np.add.reduce(sums) if n > p else sums[0]
    sums = np.add.reduce(sums.reshape(p // 2, 2 * b))
    return sums[:b] + sums[b:]


def _old_epilogue(x, y, mu):
    """The whole-block chain the tiled passes replaced: shift, |y| sums,
    divide, (y − x)² sums.  Returns ``(λ, squared residual sums, y)``."""
    y = y.copy()
    scratch = np.empty_like(x)
    if mu is not None:
        y -= np.multiply(x, mu, out=scratch)
    lam = _old_column_sums(np.abs(y, out=scratch))
    y /= lam
    diff = np.subtract(y, x, out=scratch)
    return lam, _old_column_sums(np.multiply(diff, diff, out=diff)), y


def _tiled_epilogue(x, y, mu, counter=None):
    """Passes A and B of the power loop on a copy of ``y``."""
    from functools import partial

    from repro.solvers import power

    def counted(step):
        def wrapped(out, *tiles):
            if counter is not None:
                counter.append(out.shape[0])
            step(out, *tiles)

        return wrapped

    y = y.copy()
    lam = power._tiled_sums(counted(partial(power._shift_abs, mu=mu)), y, x)
    sq = power._tiled_sums(counted(partial(power._scale_residual, lam=lam)), y, x)
    return lam, sq, y


def _assert_same_epilogue(x, y, mu, counter=None):
    for got, want in zip(_tiled_epilogue(x, y, mu, counter), _old_epilogue(x, y, mu)):
        np.testing.assert_array_equal(got, want)


class TestTiledReducer:
    """The power loop's two tiled passes are bitwise the old whole-block
    chain, however the rows are tiled."""

    @pytest.mark.parametrize("b", [1, 2, 3, 5, 16])
    def test_matches_whole_block_chain(self, b):
        from repro.solvers.power import column_sums

        rng = np.random.default_rng(b)
        sizes = [1 << nu for nu in range(1, 17)] + [3, 96, 7 * 64, 5 * 1024 + 64]
        for n in sizes:
            x = rng.random((n, b))
            y = 3.0 * rng.random((n, b)) - 0.5
            for mu in (None, 0.3 * rng.random(b)):
                _assert_same_epilogue(x, y, mu)
            np.testing.assert_array_equal(column_sums(x), _old_column_sums(x))

    @pytest.mark.parametrize("b", [1, 3, 16])
    @pytest.mark.parametrize("tiles", [1, 2, "many"])
    def test_forced_tile_counts(self, monkeypatch, b, tiles):
        from repro.solvers import power

        rng = np.random.default_rng(7)
        n = 1 << 12
        x = rng.random((n, b))
        y = 3.0 * rng.random((n, b)) - 0.5
        rows = {1: n, 2: n // 2, "many": power._PARTIALS}[tiles]
        monkeypatch.setattr(power, "_TILE_BYTES", 8 * b * rows)
        counter = []
        _assert_same_epilogue(x, y, 0.3 * rng.random(b), counter)
        assert counter == [rows] * (2 * n // rows)

    def test_partial_last_tile(self, monkeypatch):
        from repro.solvers import power

        rng = np.random.default_rng(8)
        n, b = 7 * 64, 3
        x, y = rng.random((n, b)), rng.random((n, b))
        monkeypatch.setattr(power, "_TILE_BYTES", 8 * b * 256)
        counter = []
        _assert_same_epilogue(x, y, None, counter)
        assert counter == [256, 192] * 2

    def test_nan_in_last_tile_names_sweep_and_column(self, monkeypatch):
        from repro.solvers import power

        nu, b = 10, 3
        monkeypatch.setattr(power, "_TILE_BYTES", 8 * b * 64)  # 16 tiles

        class LastRowNaN(BatchedFmmp):
            calls = 0

            def matmat(self, block, **kwargs):
                out = super().matmat(block, **kwargs)
                self.calls += 1
                if self.calls >= 3:
                    out[-1, 2] = np.nan
                return out

        mutation = UniformMutation(nu, 0.01)
        lands = [RandomLandscape(nu, c=4.0, sigma=1.0, seed=s) for s in range(b)]
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            BlockPowerIteration(LastRowNaN(mutation, lands), tol=1e-15).solve()
        assert "column 2 at sweep 3:" in str(exc_info.value)
        assert exc_info.value.iterations == 3

    def test_multi_tile_width_invariance(self):
        """ν = 16: a B = 16 block spans 64 tiles and one column 4, so the
        running partials cross tile boundaries at different rows."""
        from repro.solvers import power

        nu = 16
        assert (1 << nu) // power._tile_rows(16) > 1 and (1 << nu) // power._tile_rows(1) > 1
        mutation = UniformMutation(nu, 0.01)
        lands = [RandomLandscape(nu, c=4.0, sigma=0.5 + 0.08 * s, seed=s) for s in range(16)]
        shifts = [conservative_shift(mutation, land) for land in lands]
        block = BlockPowerIteration(
            BatchedFmmp(mutation, lands), shifts=shifts, tol=1e-10, record_history=True
        ).solve()
        assert len({r.iterations for r in block}) > 1  # deflation happened
        for j in (0, 5, 15):
            alone = PowerIteration(
                ShiftedOperator(Fmmp(mutation, lands[j]), shifts[j]),
                tol=1e-10,
                record_history=True,
            ).solve(lands[j].start_vector(), landscape=lands[j])
            assert _same_bits(alone, block[j]), f"column {j}"
            assert alone.history == block[j].history
