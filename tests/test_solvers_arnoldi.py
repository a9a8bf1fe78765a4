"""Tests for the Arnoldi solver on non-symmetric problems."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import PerSiteMutation, UniformMutation, site_factor
from repro.operators import Fmmp
from repro.solvers import Arnoldi, PowerIteration, dense_solve


@pytest.fixture
def asymmetric_problem():
    """Per-site mutation with strong asymmetric rates: Q (hence W in any
    form) is genuinely non-symmetric."""
    nu = 7
    factors = [site_factor(0.01 + 0.01 * s, 0.05 + 0.02 * s) for s in range(nu)]
    mut = PerSiteMutation(factors)
    assert not mut.is_symmetric
    ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=19)
    return mut, ls, dense_solve(mut, ls)


class TestCorrectness:
    def test_matches_dense_on_asymmetric_w(self, asymmetric_problem):
        mut, ls, ref = asymmetric_problem
        op = Fmmp(mut, ls, form="right")
        res = Arnoldi(op, tol=1e-11).solve(ls.start_vector(), landscape=ls, form="right")
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-8)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-7)

    def test_matches_dense_on_symmetric_case(self):
        nu, p = 7, 0.02
        mut = UniformMutation(nu, p)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=2)
        ref = dense_solve(mut, ls)
        op = Fmmp(mut, ls, form="right")
        res = Arnoldi(op, tol=1e-11).solve(ls.start_vector(), landscape=ls)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-8)

    def test_fewer_matvecs_than_power_iteration(self, asymmetric_problem):
        mut, ls, _ = asymmetric_problem
        op = Fmmp(mut, ls, form="right")
        arn = Arnoldi(op, tol=1e-10).solve(ls.start_vector())
        pi = PowerIteration(op, tol=1e-10).solve(ls.start_vector())
        assert arn.iterations < pi.iterations


class TestFailureModes:
    def test_basis_cap_raises(self, asymmetric_problem):
        mut, ls, _ = asymmetric_problem
        op = Fmmp(mut, ls, form="right")
        with pytest.raises(ConvergenceError):
            Arnoldi(op, tol=1e-15, max_basis=3).solve(ls.start_vector())

    def test_no_raise_mode(self, asymmetric_problem):
        mut, ls, _ = asymmetric_problem
        op = Fmmp(mut, ls, form="right")
        res = Arnoldi(op, tol=1e-15, max_basis=3).solve(
            ls.start_vector(), raise_on_fail=False
        )
        assert not res.converged

    def test_zero_start_rejected(self, asymmetric_problem):
        mut, ls, _ = asymmetric_problem
        op = Fmmp(mut, ls, form="right")
        with pytest.raises(ValidationError):
            Arnoldi(op).solve(np.zeros(op.n))

    def test_small_basis_rejected(self, asymmetric_problem):
        mut, ls, _ = asymmetric_problem
        with pytest.raises(ValidationError):
            Arnoldi(Fmmp(mut, ls), max_basis=1)


class _PoisonedFmmp(Fmmp):
    """``Fmmp`` whose product turns non-finite at call ``step``."""

    step = 3
    poison = np.nan

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def matvec(self, v):
        out = super().matvec(v)
        self.calls += 1
        if self.calls >= self.step:
            out[5] = self.poison
        return out


class TestFailFast:
    """A non-finite Hessenberg entry stops Arnoldi at the step it appears,
    naming the step, instead of reaching ``eig`` or the basis cap."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [1, 4])
    def test_nonfinite_product_raises_at_its_step(self, asymmetric_problem, poison, step):
        mut, ls, _ = asymmetric_problem
        op = _PoisonedFmmp(mut, ls, form="right")
        op.step, op.poison = step, poison
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            Arnoldi(op, tol=1e-15, max_basis=50).solve(ls.start_vector())
        assert f"Arnoldi at step {step}: Hessenberg entry H[0, {step - 1}]" in str(
            exc_info.value
        )
        assert exc_info.value.iterations == step
        assert op.calls == step
