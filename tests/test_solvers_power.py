"""Tests for the (shifted) power iteration."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import UniformMutation
from repro.operators import BatchedFmmp, Fmmp, ShiftedOperator, Smvp, Xmvp
from repro.operators.shifted import conservative_shift
from repro.solvers import BlockPowerIteration, PowerIteration, dense_solve


@pytest.fixture
def problem():
    nu, p = 7, 0.02
    mut = UniformMutation(nu, p)
    ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=11)
    return mut, ls, dense_solve(mut, ls)


class TestConvergence:
    def test_matches_dense_ground_truth(self, problem):
        mut, ls, ref = problem
        op = Fmmp(mut, ls)
        res = PowerIteration(op, tol=1e-13).solve(ls.start_vector(), landscape=ls)
        assert res.converged
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-10)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-9)

    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_all_forms_give_same_concentrations(self, problem, form):
        mut, ls, ref = problem
        op = Fmmp(mut, ls, form=form)
        res = PowerIteration(op, tol=1e-13).solve(
            ls.start_vector(), landscape=ls, form=form
        )
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-8)

    def test_eigenvector_normalized_and_positive(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-12).solve(ls.start_vector())
        assert res.eigenvector.min() >= 0.0
        assert res.eigenvector.sum() == pytest.approx(1.0)

    def test_residual_definition(self, problem):
        """Reported residual must equal ‖W·x − λ·x‖₂ of the final pair."""
        mut, ls, _ = problem
        op = Fmmp(mut, ls)
        res = PowerIteration(op, tol=1e-10).solve(ls.start_vector())
        actual = np.linalg.norm(op.matvec(res.eigenvector) - res.eigenvalue * res.eigenvector)
        assert actual == pytest.approx(res.residual, rel=0.5, abs=1e-12)
        assert actual < 1e-9


class TestShift:
    def test_shift_reduces_iterations(self, problem):
        """Sec. 3: the conservative shift gives a clearly measurable
        reduction (paper: ≳10 % on random landscapes)."""
        mut, ls, _ = problem
        base = Fmmp(mut, ls)
        mu = conservative_shift(mut, ls)
        plain = PowerIteration(base, tol=1e-12).solve(ls.start_vector())
        shifted = PowerIteration(ShiftedOperator(base, mu), tol=1e-12).solve(ls.start_vector())
        assert shifted.iterations < plain.iterations
        reduction = 1.0 - shifted.iterations / plain.iterations
        assert reduction >= 0.05, f"shift saved only {reduction:.1%}"

    def test_shifted_eigenvalue_unshifted_in_result(self, problem):
        mut, ls, ref = problem
        mu = conservative_shift(mut, ls)
        res = PowerIteration(ShiftedOperator(Fmmp(mut, ls), mu), tol=1e-13).solve(
            ls.start_vector(), landscape=ls
        )
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-9)

    def test_shifted_concentrations_identical(self, problem):
        mut, ls, ref = problem
        mu = conservative_shift(mut, ls)
        res = PowerIteration(ShiftedOperator(Fmmp(mut, ls), mu), tol=1e-13).solve(
            ls.start_vector(), landscape=ls
        )
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-9)


class TestOperatorsInsidePi:
    def test_xmvp5_converges_to_slightly_perturbed_answer(self):
        """Pi(Xmvp(5)) converges to the sparsified matrix's eigenvector:
        close to, but measurably different from, the exact solution —
        the accuracy/speed trade-off of [10]."""
        nu, p = 10, 0.01
        mut = UniformMutation(nu, p)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=4)
        exact = PowerIteration(Fmmp(mut, ls), tol=1e-13).solve(ls.start_vector(), landscape=ls)
        approx = PowerIteration(Xmvp(mut, ls, 5), tol=1e-10).solve(
            ls.start_vector(), landscape=ls
        )
        err = np.abs(exact.concentrations - approx.concentrations).max()
        assert err < 1e-7, "dmax=5 should be accurate to ~1e-10 .. 1e-8"
        assert err > 0.0

    def test_smvp_agrees(self, problem):
        mut, ls, ref = problem
        res = PowerIteration(Smvp(mut, ls), tol=1e-13).solve(ls.start_vector(), landscape=ls)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-9)


class TestFailureModes:
    def test_max_iterations_raises(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ConvergenceError) as exc_info:
            PowerIteration(Fmmp(mut, ls), tol=1e-15, max_iterations=2).solve(ls.start_vector())
        assert exc_info.value.iterations == 2

    def test_no_raise_mode(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-15, max_iterations=2).solve(
            ls.start_vector(), raise_on_fail=False
        )
        assert not res.converged
        assert res.iterations == 2

    def test_zero_start_rejected(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            PowerIteration(Fmmp(mut, ls)).solve(np.zeros(mut.n))

    def test_wrong_start_shape(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            PowerIteration(Fmmp(mut, ls)).solve(np.ones(3))

    def test_bad_tol(self, problem):
        mut, ls, _ = problem
        with pytest.raises(ValidationError):
            PowerIteration(Fmmp(mut, ls), tol=0.0)


class _PoisonedFmmp(Fmmp):
    """``Fmmp`` whose products carry one non-finite entry (``matvec`` is
    the one-column ``matmat``, so both are poisoned)."""

    poison = np.nan

    def matmat(self, block, **kwargs):
        out = super().matmat(block, **kwargs)
        out[3] = self.poison
        return out


class _PoisonedBatchedFmmp(BatchedFmmp):
    """``BatchedFmmp`` whose column 1 turns NaN from the second sweep on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def matmat(self, block, **kwargs):
        out = super().matmat(block, **kwargs)
        self.calls += 1
        if self.calls >= 2:
            out[5, 1] = np.nan
        return out


class TestFailFast:
    """A non-finite iterate stops the loop at the sweep it appears,
    naming the sweep and the column."""

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_power_iteration(self, problem, poison):
        mut, ls, _ = problem
        op = _PoisonedFmmp(mut, ls)
        op.poison = poison
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            PowerIteration(op, tol=1e-15, max_iterations=1000).solve(ls.start_vector())
        assert exc_info.value.iterations <= 2
        assert "column 0 at sweep 1:" in str(exc_info.value)

    def test_block_power_iteration(self, problem):
        mut, ls, _ = problem
        lands = [ls, RandomLandscape(mut.nu, c=5.0, sigma=1.0, seed=12)]
        op = _PoisonedBatchedFmmp(mut, lands)
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            BlockPowerIteration(op, tol=1e-15, max_iterations=1000).solve()
        assert exc_info.value.iterations <= 2
        assert "column 1 at sweep 2:" in str(exc_info.value)

    def test_block_power_iteration_generic_operator(self, problem):
        mut, ls, _ = problem
        starts = np.stack([ls.start_vector()] * 2, axis=1)
        # A ShiftedOperator has no fused matmat: the loop drives it
        # column by column through the generic one.
        generic = ShiftedOperator(_PoisonedFmmp(mut, ls), 0.0)
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            BlockPowerIteration(generic, tol=1e-15, max_iterations=1000).solve(starts)
        assert exc_info.value.iterations <= 2


class TestOneColumnRoute:
    """``PowerIteration`` drives an ``Fmmp`` like a one-column block: one
    fused call per sweep, into the loop's own blocks."""

    def test_one_fused_call_per_sweep_into_loop_buffers(self, problem, monkeypatch):
        import repro.operators.batched as batched_module

        mut, ls, _ = problem
        mu = conservative_shift(mut, ls)
        real = batched_module.batched_butterfly_transform
        calls = []

        def spy(block, plan, **kwargs):
            calls.append((kwargs["out"], kwargs["scratch"]))
            return real(block, plan, **kwargs)

        monkeypatch.setattr(batched_module, "batched_butterfly_transform", spy)
        res = PowerIteration(ShiftedOperator(Fmmp(mut, ls), mu), tol=1e-12).solve(
            ls.start_vector(), landscape=ls
        )
        monkeypatch.undo()
        assert len(calls) == res.iterations > 2
        scratch = calls[0][1]
        assert scratch is not None and all(s is scratch for _, s in calls)
        assert calls[0][0] is None  # the first product lands in a new block
        outs = {id(out) for out, _ in calls[1:]}
        assert len(outs) == 2 and id(scratch) not in outs  # then ping-pong

        block = BlockPowerIteration(BatchedFmmp(mut, [ls]), shifts=[mu], tol=1e-12).solve()
        col = block[0]
        assert col.eigenvalue == res.eigenvalue
        assert col.iterations == res.iterations
        assert col.eigenvector.tobytes() == res.eigenvector.tobytes()
        assert col.concentrations.tobytes() == res.concentrations.tobytes()


class TestHistory:
    def test_history_recorded_and_monotone_tail(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-12, record_history=True).solve(
            ls.start_vector()
        )
        assert len(res.history) == res.iterations
        resids = [h.residual for h in res.history]
        # Geometric convergence: the last residuals decrease.
        assert resids[-1] < resids[max(0, len(resids) - 5)]

    def test_history_off_by_default(self, problem):
        mut, ls, _ = problem
        res = PowerIteration(Fmmp(mut, ls), tol=1e-10).solve(ls.start_vector())
        assert res.history == []
