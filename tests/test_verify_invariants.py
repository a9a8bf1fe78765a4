"""Per-invariant property tests for the metamorphic catalogue.

Each catalogued identity is exercised on its own, against
hypothesis-driven problem specs, so a failure pinpoints the exact paper
equation that broke.  (The registry-level sweep in
``test_verify_registry.py`` covers the combined run.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import as_generator
from repro.verify import INVARIANTS, ProblemSpec
from repro.verify.invariants import relative_error

sweep = settings(max_examples=10, deadline=None)

BY_NAME = {inv.name: inv for inv in INVARIANTS}


def run_one(name: str, spec: ProblemSpec, seed: int = 0):
    inv = BY_NAME[name]
    assert inv.applies(spec), f"{name} should apply to {spec.label()}"
    error, details = inv.run(spec, as_generator(seed))
    assert error <= inv.tolerance, f"{name}: {error:.3e} > {inv.tolerance:g} ({details})"
    return error


class TestCatalogueShape:
    def test_every_invariant_names_its_equation(self):
        for inv in INVARIANTS:
            assert inv.equation, inv.name
            assert inv.description, inv.name

    def test_names_unique(self):
        names = [inv.name for inv in INVARIANTS]
        assert len(names) == len(set(names))

    def test_exact_invariants_use_machine_tolerance(self):
        for inv in INVARIANTS:
            if inv.exact:
                assert inv.tolerance <= 1e-12, inv.name


class TestRelativeError:
    def test_zero_for_identical(self):
        v = np.arange(5, dtype=float)
        assert relative_error(v, v) == 0.0

    def test_scale_free(self):
        a = np.array([1.0, 2.0])
        assert relative_error(a, a * (1 + 1e-10)) == pytest.approx(1e-10, rel=1e-3)

    def test_zero_vectors(self):
        z = np.zeros(4)
        assert relative_error(z, z) == 0.0


class TestProductIdentities:
    @sweep
    @given(nu=st.integers(2, 10), p=st.floats(1e-4, 0.5), seed=st.integers(0, 500))
    def test_fmmp_dense_equivalence(self, nu, p, seed):
        run_one("fmmp-dense-equivalence", ProblemSpec(nu=nu, p=p, seed=seed), seed)

    @sweep
    @given(
        nu=st.integers(2, 10),
        p=st.floats(1e-4, 0.5),
        mutation=st.sampled_from(("uniform", "persite", "grouped")),
        seed=st.integers(0, 500),
    )
    def test_fmmp_variant_agreement(self, nu, p, mutation, seed):
        spec = ProblemSpec(nu=nu, p=p, landscape="random", mutation=mutation, seed=seed)
        run_one("fmmp-variant-agreement", spec, seed)

    @sweep
    @given(nu=st.integers(2, 10), p=st.floats(1e-4, 0.5), seed=st.integers(0, 500))
    def test_fmmp_spectral_equivalence(self, nu, p, seed):
        run_one("fmmp-spectral-equivalence", ProblemSpec(nu=nu, p=p, seed=seed), seed)

    @sweep
    @given(nu=st.integers(2, 8), p=st.floats(1e-4, 0.5), seed=st.integers(0, 500))
    def test_xmvp_exactness(self, nu, p, seed):
        run_one("xmvp-exactness", ProblemSpec(nu=nu, p=p, landscape="random", seed=seed), seed)

    @sweep
    @given(nu=st.integers(1, 10), p=st.floats(0.0, 0.5), seed=st.integers(0, 500))
    def test_column_stochasticity(self, nu, p, seed):
        run_one("q-column-stochastic", ProblemSpec(nu=nu, p=p, seed=seed), seed)

    @sweep
    @given(nu=st.integers(2, 10), seed=st.integers(0, 500))
    def test_fwht_involution(self, nu, seed):
        run_one("fwht-involution", ProblemSpec(nu=nu, p=0.01, seed=seed), seed)

    @sweep
    @given(nu=st.integers(2, 8), p=st.floats(1e-4, 0.45), seed=st.integers(0, 500))
    def test_q_inverse_roundtrip(self, nu, p, seed):
        run_one("q-inverse-roundtrip", ProblemSpec(nu=nu, p=p, seed=seed), seed)


class TestShiftIdentities:
    @sweep
    @given(nu=st.integers(2, 8), p=st.floats(1e-4, 0.5), seed=st.integers(0, 500))
    def test_shift_safety(self, nu, p, seed):
        spec = ProblemSpec(nu=nu, p=p, landscape="random", seed=seed)
        run_one("shift-safety", spec, seed)

    @sweep
    @given(nu=st.integers(2, 8), p=st.floats(1e-4, 0.5), seed=st.integers(0, 500))
    def test_shifted_product_exactness(self, nu, p, seed):
        run_one("shifted-product-exactness", ProblemSpec(nu=nu, p=p, seed=seed), seed)

    @sweep
    @given(nu=st.integers(2, 8), p=st.floats(1e-4, 0.5), seed=st.integers(0, 500))
    def test_shift_invert_exactness(self, nu, p, seed):
        run_one("shift-invert-exactness", ProblemSpec(nu=nu, p=p, seed=seed), seed)


class TestSolverIdentities:
    @sweep
    @given(
        nu=st.integers(2, 8),
        p=st.floats(1e-4, 0.5),
        landscape=st.sampled_from(("single-peak", "linear", "flat")),
        seed=st.integers(0, 500),
    )
    def test_lemma2_class_recovery(self, nu, p, landscape, seed):
        spec = ProblemSpec(nu=nu, p=p, landscape=landscape, seed=seed)
        run_one("lemma2-class-recovery", spec, seed)

    @sweep
    @given(
        nu=st.integers(1, 28),
        p=st.floats(1e-3, 0.5),
        landscape=st.sampled_from(("single-peak", "linear", "flat")),
    )
    def test_reduced_class_basis(self, nu, p, landscape):
        spec = ProblemSpec(nu=nu, p=p, landscape=landscape)
        run_one("reduced-class-basis", spec, 0)

    @sweep
    @given(
        nu=st.integers(2, 8),
        p=st.floats(1e-4, 0.5),
        mutation=st.sampled_from(("uniform", "grouped")),
        seed=st.integers(0, 500),
    )
    def test_kronecker_factorization(self, nu, p, mutation, seed):
        spec = ProblemSpec(nu=nu, p=p, landscape="kronecker", mutation=mutation, seed=seed)
        run_one("kronecker-factorization", spec, seed)

    @sweep
    @given(nu=st.integers(2, 7), p=st.floats(1e-3, 0.45), seed=st.integers(0, 500))
    def test_mean_fitness_identity(self, nu, p, seed):
        spec = ProblemSpec(nu=nu, p=p, landscape="random", seed=seed)
        run_one("mean-fitness-identity", spec, seed)


@pytest.mark.verify_smoke
class TestCatalogueSmoke:
    """One representative spec per invariant — the fast tier-1 sweep."""

    @pytest.mark.parametrize("inv", INVARIANTS, ids=lambda i: i.name)
    def test_invariant_holds_on_representative_spec(self, inv):
        candidates = [
            ProblemSpec(nu=4, p=0.03),
            ProblemSpec(nu=4, p=0.03, landscape="random", mutation="persite", seed=1),
            ProblemSpec(nu=4, p=0.03, landscape="kronecker", mutation="grouped", seed=2),
            ProblemSpec(nu=4, p=0.03, landscape="kronecker", seed=2),
            ProblemSpec(nu=4, p=0.03, landscape="flat"),
        ]
        spec = next((s for s in candidates if inv.applies(s)), None)
        assert spec is not None, f"no representative spec for {inv.name}"
        error, details = inv.run(spec, as_generator(0))
        assert error <= inv.tolerance, f"{inv.name}: {error:.3e} ({details})"
