"""Tests for Lanczos, dense baselines, and shift-and-invert solvers."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError, ValidationError
from repro.landscapes import RandomLandscape
from repro.mutation import UniformMutation
from repro.operators import Fmmp
from repro.solvers import (
    Lanczos,
    cg_inverse_iteration,
    dense_dominant_eigenpair,
    dense_solve,
    inverse_iteration_q,
    rayleigh_quotient_iteration_q,
)


@pytest.fixture
def problem():
    nu, p = 7, 0.02
    mut = UniformMutation(nu, p)
    ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=21)
    return nu, p, mut, ls, dense_solve(mut, ls)


class TestDenseBaseline:
    def test_dominant_pair_simple_matrix(self):
        m = np.diag([3.0, 1.0, 2.0])
        lam, v = dense_dominant_eigenpair(m)
        assert lam == pytest.approx(3.0)
        np.testing.assert_allclose(v, [1.0, 0.0, 0.0], atol=1e-12)

    def test_symmetric_autodetect(self):
        rng = np.random.default_rng(0)
        a = rng.random((6, 6))
        s = a + a.T + 6 * np.eye(6)
        lam, _ = dense_dominant_eigenpair(s)
        assert lam == pytest.approx(np.linalg.eigvalsh(s)[-1])

    def test_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            dense_dominant_eigenpair(np.zeros((2, 3)))

    def test_complex_dominant_rejected(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues ±i
        with pytest.raises(ValidationError):
            dense_dominant_eigenpair(rot, symmetric=False)

    def test_dense_solve_residual_small(self, problem):
        *_, ref = problem
        assert ref.residual < 1e-10
        assert ref.converged and ref.iterations == 0


class TestLanczos:
    def test_matches_dense(self, problem):
        nu, p, mut, ls, ref = problem
        op = Fmmp(mut, ls, form="symmetric")
        res = Lanczos(op, tol=1e-12).solve(
            np.sqrt(ls.values()), landscape=ls, form="symmetric"
        )
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-9)
        np.testing.assert_allclose(res.concentrations, ref.concentrations, atol=1e-8)

    def test_fewer_matvecs_than_power_iteration(self, problem):
        """The trade-off of Sec. 3: Lanczos needs fewer iterations but
        stores a basis."""
        from repro.solvers import PowerIteration

        nu, p, mut, ls, _ = problem
        sym = Fmmp(mut, ls, form="symmetric")
        lz = Lanczos(sym, tol=1e-12).solve(np.sqrt(ls.values()))
        pi = PowerIteration(sym, tol=1e-12).solve(np.sqrt(ls.values()))
        assert lz.iterations < pi.iterations
        assert Lanczos(sym).storage_vectors(lz.iterations) > 2

    def test_rejects_nonsymmetric_operator(self, problem):
        nu, p, mut, ls, _ = problem
        with pytest.raises(ValidationError):
            Lanczos(Fmmp(mut, ls, form="right"))

    def test_basis_cap_raises(self, problem):
        nu, p, mut, ls, _ = problem
        op = Fmmp(mut, ls, form="symmetric")
        with pytest.raises(ConvergenceError):
            Lanczos(op, tol=1e-15, max_basis=2).solve(np.sqrt(ls.values()))


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


class TestLanczosFailFast:
    """A non-finite product stops Lanczos at the step it appears, naming
    the step, instead of reaching ``eigh`` or the basis cap."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [1, 3])
    def test_nonfinite_product_raises_at_its_step(self, problem, poison, step):
        nu, p, mut, ls, _ = problem
        op = _PoisonedFmmp(mut, ls, form="symmetric")
        op.step, op.poison = step, poison
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            Lanczos(op, tol=1e-15, max_basis=50).solve(np.sqrt(ls.values()))
        assert f"Lanczos at step {step}: tridiagonal entry alpha=" in str(exc_info.value)
        assert exc_info.value.iterations == step
        assert op.calls == step


class TestShiftInvertQ:
    def test_inverse_iteration_finds_dominant(self):
        nu, p = 7, 0.05
        res = inverse_iteration_q(nu, p, mu=1.1)  # just above λ_max = 1
        assert res.eigenvalue == pytest.approx(1.0, abs=1e-10)
        # dominant eigenvector of Q is uniform
        np.testing.assert_allclose(
            res.concentrations, np.full(1 << nu, 2.0**-nu), atol=1e-10
        )

    def test_inverse_iteration_interior_eigenvalue(self):
        """Shift-and-invert targets *interior* eigenvalues — something
        plain power iteration cannot do."""
        nu, p = 5, 0.1
        target = (1 - 2 * p) ** 2  # an interior eigenvalue of Q
        res = inverse_iteration_q(nu, p, mu=target + 0.013)
        assert res.eigenvalue == pytest.approx(target, abs=1e-9)

    def test_rqi_cubic_convergence_iteration_count(self):
        nu, p = 8, 0.03
        res = rayleigh_quotient_iteration_q(nu, p)
        assert res.converged
        assert res.iterations <= 8, "RQI should converge in a handful of steps"

    def test_rqi_eigenpair_is_valid(self):
        nu, p = 6, 0.07
        from repro.mutation import UniformMutation

        res = rayleigh_quotient_iteration_q(nu, p)
        q = UniformMutation(nu, p)
        resid = np.linalg.norm(q.apply(res.eigenvector.copy()) - res.eigenvalue * res.eigenvector)
        assert resid < 1e-10


class TestCgInverseIteration:
    def test_converges_to_dominant_pair(self, problem):
        nu, p, mut, ls, ref = problem
        op = Fmmp(mut, ls, form="symmetric")
        # Shift just above the dominant eigenvalue (fmax bounds it).
        res = cg_inverse_iteration(
            op, start=np.sqrt(ls.values()), mu=ls.fmax * 1.05, tol=1e-10
        )
        assert res.eigenvalue == pytest.approx(ref.eigenvalue, abs=1e-8)
        from repro.operators.dense_w import convert_eigenvector

        conc = convert_eigenvector(res.eigenvector, ls, "symmetric")
        np.testing.assert_allclose(conc, ref.concentrations, atol=1e-7)

    def test_fewer_outer_iterations_than_power(self, problem):
        from repro.solvers import PowerIteration

        nu, p, mut, ls, _ = problem
        op = Fmmp(mut, ls, form="symmetric")
        start = np.sqrt(ls.values())
        inv = cg_inverse_iteration(op, start=start, mu=ls.fmax * 1.05, tol=1e-10)
        pi = PowerIteration(op, tol=1e-10).solve(start)
        assert inv.iterations < pi.iterations

    def test_rejects_nonsymmetric(self, problem):
        nu, p, mut, ls, _ = problem
        with pytest.raises(ValidationError):
            cg_inverse_iteration(
                Fmmp(mut, ls, form="right"), start=ls.values(), mu=10.0
            )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    @pytest.mark.parametrize("step", [1, 4, 9, 40])
    def test_nonfinite_product_fails_fast(self, problem, poison, step):
        """A product that turns non-finite on its k-th call stops the
        solver within k + 2 products, naming the outer iteration (and the
        inner CG step when the product was inside CG), instead of running
        all inner steps and blaming the shift."""
        nu, p, mut, ls, _ = problem
        op = _PoisonedFmmp(mut, ls, form="symmetric")
        op.step, op.poison = step, poison
        with pytest.raises(ConvergenceError, match="not finite") as exc_info:
            cg_inverse_iteration(op, start=np.sqrt(ls.values()), mu=ls.fmax * 1.05)
        assert op.calls <= step + 2
        message = str(exc_info.value)
        assert f"CG inverse iteration {exc_info.value.iterations}" in message
        assert "indefinite" not in message
        if step == 1:  # the first product of the first inner CG solve
            assert "CG inverse iteration 1, inner CG step 1: alpha=" in message
        if step == 9:  # eight inner steps, then the outer W·x of iteration 1
            assert "CG inverse iteration 1: lambda=" in message
