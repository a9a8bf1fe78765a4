"""Tests for the exact (ν+1) reduction — Lemma 2 and Sec. 5.1."""

import numpy as np
import pytest

from repro.bitops.popcount import distance_to_master
from repro.exceptions import ValidationError
from repro.landscapes import (
    HammingLandscape,
    LinearLandscape,
    RandomLandscape,
    SinglePeakLandscape,
)
from repro.model import QuasispeciesModel
from repro.model.concentrations import class_concentrations
from repro.mutation import UniformMutation
from repro.operators import dense_w
from repro.solvers import ReducedSolver, dense_solve, reduced_w_matrix


class TestLemma2:
    """W = Q·F maps error-class vectors to error-class vectors."""

    @pytest.mark.parametrize("nu,p", [(5, 0.01), (7, 0.1), (8, 0.3)])
    def test_closure_under_w(self, nu, p):
        mut = UniformMutation(nu, p)
        ls = HammingLandscape(nu, lambda k: 1.0 + 1.0 / (k + 1.0))
        w = dense_w(mut, ls)
        labels = distance_to_master(nu)
        rng = np.random.default_rng(nu)
        class_vals = rng.random(nu + 1) + 0.1
        v = class_vals[labels]  # an error-class vector
        out = w @ v
        for k in range(nu + 1):
            cls = out[labels == k]
            np.testing.assert_allclose(cls, cls[0], rtol=1e-12)

    def test_closure_fails_for_general_landscape(self):
        """Sanity: a non-class landscape breaks the closure, confirming
        the hypothesis of Lemma 2 is necessary."""
        nu, p = 5, 0.05
        mut = UniformMutation(nu, p)
        ls = RandomLandscape(nu, seed=1)
        w = dense_w(mut, ls)
        labels = distance_to_master(nu)
        v = (labels + 1.0).astype(float)
        out = w @ v
        spread = [np.ptp(out[labels == k]) for k in range(1, nu)]
        assert max(spread) > 1e-8


class TestReducedMatrix:
    def test_shape_and_positivity(self):
        w = reduced_w_matrix(10, 0.02, np.linspace(2.0, 1.0, 11))
        assert w.shape == (11, 11)
        assert np.all(w > 0)

    def test_wrong_fitness_length(self):
        with pytest.raises(ValidationError):
            reduced_w_matrix(5, 0.1, np.ones(5))

    def test_non_positive_fitness(self):
        with pytest.raises(ValidationError):
            reduced_w_matrix(5, 0.1, np.zeros(6))


class TestExactness:
    """The headline of Sec. 5.1: the reduction is *exact*, no
    approximation or perturbation theory involved."""

    @pytest.mark.parametrize(
        "landscape_cls,kwargs",
        [
            (SinglePeakLandscape, dict(f_peak=2.0, f_rest=1.0)),
            (LinearLandscape, dict(f0=2.0, fnu=1.0)),
        ],
    )
    @pytest.mark.parametrize("p", [0.005, 0.03, 0.2])
    def test_matches_full_solver(self, landscape_cls, kwargs, p):
        nu = 9
        ls = landscape_cls(nu, **kwargs)
        red = ReducedSolver(nu, p, ls).solve()
        full = dense_solve(UniformMutation(nu, p), ls)
        assert red.eigenvalue == pytest.approx(full.eigenvalue, rel=1e-12)
        np.testing.assert_allclose(
            red.concentrations,
            class_concentrations(full.concentrations, nu),
            atol=1e-12,
        )

    def test_full_eigenvector_recovery(self):
        nu, p = 8, 0.02
        ls = SinglePeakLandscape(nu)
        solver = ReducedSolver(nu, p, ls)
        recovered = solver.full_eigenvector()
        full = dense_solve(UniformMutation(nu, p), ls)
        np.testing.assert_allclose(recovered, full.concentrations, atol=1e-12)

    def test_binomial_rescaling_not_raw_classes(self):
        """vΓ are *representative* concentrations: [Γk] = C(ν,k)·vΓk
        normalized — using vΓ directly would be wrong (paper's warning)."""
        nu, p = 7, 0.03
        res = ReducedSolver(nu, p, SinglePeakLandscape(nu)).solve()
        assert not np.allclose(res.concentrations, res.eigenvector)
        np.testing.assert_allclose(res.concentrations.sum(), 1.0)
        np.testing.assert_allclose(res.eigenvector.sum(), 1.0)

    def test_arbitrary_phi_profile(self):
        nu, p = 8, 0.04
        rng = np.random.default_rng(5)
        phi = rng.random(nu + 1) + 0.5
        red = ReducedSolver(nu, p, HammingLandscape(nu, phi)).solve()
        full = dense_solve(UniformMutation(nu, p), HammingLandscape(nu, phi))
        np.testing.assert_allclose(
            red.concentrations, class_concentrations(full.concentrations, nu), atol=1e-11
        )


def limit_master_class(sigma, a):
    """Cerf & Dalmau's ν → ∞ limit of [Γ₀] at p = a/ν on a sharp peak σ."""
    return (sigma * np.exp(-a) - 1.0) / (sigma - 1.0)


class TestClassBasis:
    """The solve runs on ``QΓᵀ·diag(FΓ)``, whose Perron vector is [Γ_k]
    itself, so no binomial rescale amplifies the eigensolver's error."""

    def test_moderate_nu_matches_limit_law(self):
        """σ = 3, a = 0.5, ν = 60: [Γ₀] = 0.40983 against the limit's
        0.40980 (a representative-basis solve gave 0.0005 here)."""
        sigma, a, nu = 3.0, 0.5, 60
        res = ReducedSolver(nu, a / nu, SinglePeakLandscape(nu, sigma, 1.0)).solve()
        assert abs(res.concentrations[0] - limit_master_class(sigma, a)) < 1e-3
        assert res.residual < 1e-12

    @pytest.mark.parametrize("nu", [10, 12, 14])
    @pytest.mark.parametrize("p", [0.01, 0.03])
    @pytest.mark.parametrize(
        "landscape_cls,kwargs",
        [
            (SinglePeakLandscape, dict(f_peak=2.0, f_rest=1.0)),
            (LinearLandscape, dict(f0=2.0, fnu=1.0)),
        ],
    )
    def test_matches_full_power_solve(self, nu, p, landscape_cls, kwargs):
        ls = landscape_cls(nu, **kwargs)
        red = ReducedSolver(nu, p, ls).solve()
        full = QuasispeciesModel(ls, p=p).solve("power", operator="fmmp", shift=True, tol=1e-14)
        assert red.eigenvalue == pytest.approx(full.eigenvalue, rel=1e-12)
        np.testing.assert_allclose(
            red.concentrations, class_concentrations(full.concentrations, nu), rtol=0, atol=1e-12
        )

    def test_representatives_rescale_to_classes(self):
        """``eigenvector`` keeps meaning vΓ: [Γ_k] ∝ C(ν,k)·vΓ_k."""
        from repro.util.binomial import binomial_row

        nu = 30
        res = ReducedSolver(nu, 0.02, SinglePeakLandscape(nu, 3.0, 1.0)).solve()
        weighted = binomial_row(nu) * res.eigenvector
        np.testing.assert_allclose(weighted / weighted.sum(), res.concentrations, rtol=1e-12)

    def test_chain_beyond_float_binomials(self):
        """ν = 1030: C(ν, ν/2) overflows float64, yet the solve works and
        lands within 1e-3 of the limit law."""
        sigma, a, nu = 3.0, 0.5, 1030
        res = ReducedSolver(nu, a / nu, SinglePeakLandscape(nu, sigma, 1.0)).solve()
        assert res.converged and res.residual < 1e-12
        np.testing.assert_allclose(res.concentrations.sum(), 1.0)
        assert abs(res.concentrations[0] - limit_master_class(sigma, a)) < 1e-3
        assert np.all(np.isfinite(res.eigenvector))
        np.testing.assert_allclose(res.eigenvector.sum(), 1.0)
        assert res.eigenvector[nu // 2] == 0.0  # below 1e-308 of vΓ_0: flushed


class TestScalability:
    def test_chain_length_far_beyond_full_solvers(self):
        """ν = 200: the full problem has 2²⁰⁰ unknowns; the reduction
        solves it in milliseconds."""
        nu, p = 200, 0.005
        res = ReducedSolver(nu, p, SinglePeakLandscape(nu, 5.0, 1.0)).solve()
        assert res.converged
        assert 0.0 < res.concentrations[0] < 1.0
        np.testing.assert_allclose(res.concentrations.sum(), 1.0, atol=1e-9)

    def test_accepts_raw_class_array(self):
        res = ReducedSolver(50, 0.01, np.linspace(3.0, 1.0, 51)).solve()
        assert res.converged


class TestRejections:
    def test_rejects_general_landscape(self):
        with pytest.raises(ValidationError):
            ReducedSolver(6, 0.01, RandomLandscape(6, seed=0))

    def test_rejects_mismatched_nu(self):
        with pytest.raises(ValidationError):
            ReducedSolver(6, 0.01, SinglePeakLandscape(7))

    def test_rejects_wrong_array_length(self):
        with pytest.raises(ValidationError):
            ReducedSolver(6, 0.01, np.ones(6))
