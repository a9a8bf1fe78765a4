"""Tests for left eigenvectors / reproductive values."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators import dense_w
from repro.solvers.left_eigen import (
    TransposedFmmp,
    left_eigenvector,
    reproductive_values,
)


@pytest.fixture
def asymmetric():
    nu = 6
    factors = [site_factor(0.01 + 0.02 * s, 0.06 - 0.005 * s) for s in range(nu)]
    mut = PerSiteMutation(factors)
    ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=51)
    return mut, ls


class TestTransposedOperator:
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_matches_dense_transpose(self, asymmetric, form):
        mut, ls = asymmetric
        w_t = dense_w(mut, ls, form).T
        op = TransposedFmmp(mut, ls, form=form)
        v = np.random.default_rng(0).random(mut.n)
        np.testing.assert_allclose(op.matvec(v), w_t @ v, atol=1e-12)

    def test_grouped_model(self):
        rng = np.random.default_rng(1)
        b = rng.random((4, 4))
        b /= b.sum(axis=0, keepdims=True)
        mut = GroupedMutation([b, site_factor(0.02)])
        ls = RandomLandscape(3, seed=2)
        w_t = dense_w(mut, ls, "right").T
        op = TransposedFmmp(mut, ls)
        v = np.random.default_rng(3).random(8)
        np.testing.assert_allclose(op.matvec(v), w_t @ v, atol=1e-12)

    def test_input_not_mutated(self, asymmetric):
        mut, ls = asymmetric
        op = TransposedFmmp(mut, ls, form="right")
        v = np.random.default_rng(4).random(mut.n)
        orig = v.copy()
        op.matvec(v)
        np.testing.assert_array_equal(v, orig)

    def test_costs_match_forward(self, asymmetric):
        from repro.operators import Fmmp

        mut, ls = asymmetric
        assert TransposedFmmp(mut, ls).costs().flops == Fmmp(mut, ls).costs().flops

    def test_is_the_one_butterfly_operator(self, asymmetric):
        from repro.operators import BatchedFmmp, Fmmp
        from repro.operators.batched import plan_costs

        mut, ls = asymmetric
        op = TransposedFmmp(mut, ls)
        assert isinstance(op, Fmmp) and isinstance(op, BatchedFmmp)
        assert isinstance(Fmmp(mut, ls), BatchedFmmp)
        # right form: Wᵀ = F·Qᵀ, the F scale moves after the product
        n = mut.n
        assert op.costs() == plan_costs(mut.plan(transpose=True), n, 1, None, (n,))

    def test_bad_form(self, asymmetric):
        mut, ls = asymmetric
        with pytest.raises(ValidationError):
            TransposedFmmp(mut, ls, form="up")


class TestLeftEigenvector:
    def test_same_eigenvalue_as_right(self, asymmetric):
        mut, ls = asymmetric
        from repro.solvers import dense_solve

        right = dense_solve(mut, ls)
        left = left_eigenvector(mut, ls, tol=1e-13)
        assert left.eigenvalue == pytest.approx(right.eigenvalue, abs=1e-9)

    def test_matches_dense_left_vector(self, asymmetric):
        mut, ls = asymmetric
        w = dense_w(mut, ls, "right")
        evals, evecs = np.linalg.eig(w.T)
        k = int(np.argmax(evals.real))
        u_dense = np.abs(evecs[:, k].real)
        u_dense /= u_dense.sum()
        left = left_eigenvector(mut, ls, tol=1e-13)
        np.testing.assert_allclose(left.eigenvector, u_dense, atol=1e-9)

    def test_symmetric_q_left_equals_flat(self):
        """For symmetric Q and the right form, Wᵀ = F·Q has left... the
        left vector of QF is the right vector of FQ; with symmetric Q
        both exist and the biorthogonality Σ u_i x_i > 0 holds."""
        nu, p = 6, 0.02
        mut = UniformMutation(nu, p)
        ls = SinglePeakLandscape(nu, 2.0, 1.0)
        left = left_eigenvector(mut, ls, tol=1e-12)
        from repro.solvers import dense_solve

        right = dense_solve(mut, ls)
        assert float(left.eigenvector @ right.concentrations) > 0


class TestReproductiveValues:
    def test_normalization(self, asymmetric):
        mut, ls = asymmetric
        from repro.operators import Fmmp
        from repro.solvers import PowerIteration

        u = reproductive_values(mut, ls, tol=1e-12)
        x = PowerIteration(Fmmp(mut, ls), tol=1e-12).solve(
            ls.start_vector(), landscape=ls
        ).concentrations
        assert float(u @ x) == pytest.approx(1.0, rel=1e-8)
        assert np.all(u > 0)

    def test_fit_genotypes_have_higher_value(self):
        """On a single-peak landscape the master's lineage dominates, so
        its reproductive value tops the list."""
        nu, p = 7, 0.02
        mut = UniformMutation(nu, p)
        ls = SinglePeakLandscape(nu, 3.0, 1.0)
        u = reproductive_values(mut, ls)
        assert u.argmax() == 0
        assert u[0] > 1.0  # above the population average
