"""Registry-level tests for the differential verification subsystem.

These drive the *same* :class:`repro.verify.OracleRegistry` the
``repro-quasispecies verify`` CLI runs, so pytest and the CLI can never
disagree about what "the backends agree" means.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import load_verification_report, save_verification_report
from repro.util.rng import as_generator
from repro.verify import (
    GRID_NAMES,
    LANDSCAPE_KINDS,
    MUTATION_KINDS,
    ProblemSpec,
    build_grid,
    default_registry,
    invariant_names,
    run_product_oracles,
    run_verification,
    solver_routes,
)
from repro.verify.report import VerificationReport

sweep = settings(max_examples=12, deadline=None)


# --------------------------------------------------------------- smoke tier
@pytest.mark.verify_smoke
class TestSmokeTier:
    """The sub-second tier-1 gate: the whole registry on the smoke grid."""

    def test_smoke_grid_fully_passes(self):
        report = run_verification("smoke")
        assert report.passed, [v.describe() for v in report.violations()]
        assert report.total_checks > 50

    def test_smoke_grid_covers_every_mutation_family(self):
        kinds = {s.mutation for s in build_grid("smoke")}
        assert kinds == set(MUTATION_KINDS)


# --------------------------------------------------------- hypothesis sweep
class TestExactPairsProperty:
    """Satellite: exact-equivalence pairs agree to <= 1e-12 relative error
    across nu in [2, 10], p in (0, 0.5), every landscape family."""

    @sweep
    @given(
        nu=st.integers(2, 10),
        p=st.floats(1e-4, 0.499),
        landscape=st.sampled_from(LANDSCAPE_KINDS),
        seed=st.integers(0, 1000),
    )
    def test_product_oracles_machine_exact(self, nu, p, landscape, seed):
        spec = ProblemSpec(nu=nu, p=p, landscape=landscape, seed=seed)
        results = run_product_oracles(spec, as_generator(seed))
        assert results, "at least one comparable product backend"
        for check in results:
            assert check.passed, f"{check.name}: {check.error:.3e} ({check.details})"
            assert check.error <= 1e-12

    @sweep
    @given(
        nu=st.integers(2, 8),
        p=st.floats(1e-4, 0.499),
        mutation=st.sampled_from(MUTATION_KINDS),
        seed=st.integers(0, 1000),
    )
    def test_exact_invariants_hold(self, nu, p, mutation, seed):
        spec = ProblemSpec(nu=nu, p=p, mutation=mutation, landscape="random", seed=seed)
        registry = default_registry()
        for check in registry.run_invariants(spec, as_generator(seed)):
            if check.exact:
                assert check.passed, f"{check.name}: {check.error:.3e}"


# --------------------------------------------------------------- enumeration
class TestRouteEnumeration:
    def test_uniform_single_peak_has_all_core_routes(self):
        from repro.model import QuasispeciesModel
        from repro.landscapes import SinglePeakLandscape

        labels = [
            r.label for r in solver_routes(QuasispeciesModel(SinglePeakLandscape(5), p=0.03))
        ]
        for expected in (
            "Pi(Fmmp)",
            "Pi(Fmmp, shifted)",
            "Pi(Xmvp(nu))",
            "Lanczos",
            "Arnoldi",
            "Dense",
            "Reduced(nu+1)",
        ):
            assert expected in labels

    def test_nonuniform_drops_uniform_only_routes(self):
        from repro.model import QuasispeciesModel
        from repro.verify.spec import ProblemSpec

        spec = ProblemSpec(nu=4, p=0.05, landscape="random", mutation="persite", seed=1)
        model = QuasispeciesModel(spec.build_landscape(), spec.build_mutation())
        labels = [r.label for r in solver_routes(model)]
        assert "Pi(Xmvp(nu))" not in labels
        assert "Reduced(nu+1)" not in labels
        assert all("shifted" not in label for label in labels)

    def test_kronecker_route_present_for_kronecker_landscape(self):
        from repro.model import QuasispeciesModel

        spec = ProblemSpec(nu=4, p=0.03, landscape="kronecker", seed=2)
        model = QuasispeciesModel(spec.build_landscape(), spec.build_mutation())
        labels = [r.label for r in solver_routes(model)]
        assert "Kronecker" in labels

    def test_every_paper_exactness_claim_has_an_invariant(self):
        """Acceptance criterion: Fmmp, shifted product, shift-invert,
        Lemma-2 reduction, and Kronecker factorization each map to a
        registry invariant."""
        names = set(invariant_names())
        assert {
            "fmmp-dense-equivalence",  # Eqs. 9-10 / Algorithm 1
            "shifted-product-exactness",  # Sec. 3 conservative shift
            "shift-invert-exactness",  # Sec. 3 FWHT shift-and-invert
            "lemma2-class-recovery",  # Lemma 2 / Eq. 14
            "kronecker-factorization",  # Sec. 5.2
            "xmvp-exactness",  # baseline [10]
            "fmmp-spectral-equivalence",  # Sec. 2 eigendecomposition
        } <= names

    def test_invariant_applicability_filters(self):
        registry = default_registry()
        uniform = ProblemSpec(nu=4, p=0.05)
        grouped = ProblemSpec(nu=4, p=0.05, mutation="grouped", landscape="random")
        assert "xmvp-exactness" in registry.check_names_for(uniform)
        assert "xmvp-exactness" not in registry.check_names_for(grouped)


# ------------------------------------------------------------ fault injection
class TestFaultInjection:
    """A deliberately broken backend must be caught and *named*."""

    def test_sign_error_in_fmmp_is_named(self, monkeypatch):
        from repro.operators.fmmp import Fmmp

        original = Fmmp.matvec

        def broken(self, v):
            out = original(self, v)
            out[0] = -out[0]  # single sign error in the master coordinate
            return out

        monkeypatch.setattr(Fmmp, "matvec", broken)
        report = run_verification("smoke", solvers=False)
        assert not report.passed
        assert "fmmp-dense-equivalence" in report.violated_names()

    def test_wrong_shift_is_named(self, monkeypatch):
        import repro.verify.invariants as inv_mod

        monkeypatch.setattr(
            inv_mod, "conservative_shift", lambda mut, ls: ls.fmax * 2.0
        )
        registry = default_registry()
        spec = ProblemSpec(nu=4, p=0.02)
        checks = registry.run_invariants(spec, as_generator(0))
        failed = {c.name for c in checks if not c.passed}
        assert "shift-safety" in failed

    @pytest.mark.parametrize(
        "nu,mutation,device",
        [
            (1, "grouped", True),
            (2, "grouped", True),
            (5, "grouped", False),
            (4, "uniform", True),
            (4, "persite", True),
        ],
    )
    def test_device_oracle_follows_the_radix2_plan(self, nu, mutation, device):
        """The device oracle runs whenever the model's radix-2 plan has no
        stage above radix 4: small grouped specs (2-bit groups) too, not
        the 3-bit group of ν = 5."""
        from repro.verify.oracles import product_oracles

        spec = ProblemSpec(nu=nu, p=0.03, landscape="random", mutation=mutation, seed=3)
        labels = [o.label for o in product_oracles(spec)]
        assert ("device" in labels) is device
        checks = run_product_oracles(spec, as_generator(0))
        assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]

    def test_broken_backend_exception_is_reported_not_raised(self, monkeypatch):
        from repro.operators import xmvp as xmvp_mod

        def boom(self, v):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(xmvp_mod.Xmvp, "matvec", boom)
        spec = ProblemSpec(nu=4, p=0.02)
        results = run_product_oracles(spec, as_generator(0))
        bad = [c for c in results if "xmvp" in c.name]
        assert bad and not bad[0].passed
        assert "injected fault" in bad[0].details


# ------------------------------------------------------------- report plumbing
class TestReportPlumbing:
    def test_grid_names_buildable(self):
        for name in GRID_NAMES:
            specs = build_grid(name, nu=3, count=3)
            assert specs and all(isinstance(s, ProblemSpec) for s in specs)

    def test_json_roundtrip(self, tmp_path):
        report = run_verification("smoke", solvers=False)
        path = str(tmp_path / "report.json")
        save_verification_report(path, report)
        loaded = load_verification_report(path)
        assert isinstance(loaded, VerificationReport)
        assert loaded.passed == report.passed
        assert loaded.total_checks == report.total_checks
        assert loaded.check_names() == report.check_names()

    def test_violated_names_sorted_unique(self):
        report = run_verification("smoke", solvers=False)
        names = report.violated_names()
        assert names == sorted(set(names))

    def test_registry_probe_stream_is_seeded(self):
        spec = ProblemSpec(nu=4, p=0.03, landscape="random", seed=5)
        registry = default_registry()
        a = registry.run_spec(spec, rng=7, solvers=False)
        b = registry.run_spec(spec, rng=7, solvers=False)
        assert [c.error for c in a.checks] == [c.error for c in b.checks]

    def test_random_grid_respects_count_and_bounds(self):
        specs = build_grid("random", nu=5, count=11, seed=3)
        assert len(specs) == 11
        assert all(1 <= s.nu <= 5 for s in specs)
        assert all(0.0 < s.p <= 0.5 for s in specs)
