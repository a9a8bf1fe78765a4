"""Cross-validation of the three implicit operators (Smvp/Xmvp/Fmmp).

The central correctness claims of the paper's Sec. 2: Fmmp is *exact*
(agrees with the dense product to machine precision), Xmvp(ν) ≡ Smvp,
and Xmvp(dmax) errors shrink as dmax grows.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.landscapes import RandomLandscape, SinglePeakLandscape, TabulatedLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.mutation.base import MutationModel
import repro.operators.batched as batched_module
import repro.transforms.batched as transforms_batched
from repro.operators import (
    BatchedFmmp,
    Fmmp,
    ShiftedOperator,
    Smvp,
    Xmvp,
    dense_w,
    convert_eigenvector,
)
from repro.operators.shifted import conservative_shift
from repro.solvers import TransposedFmmp
from repro.transforms.parallel import auto_panels


@pytest.fixture
def setup8():
    nu, p = 8, 0.02
    mut = UniformMutation(nu, p)
    ls = RandomLandscape(nu, seed=3)
    return nu, p, mut, ls


class TestDenseW:
    def test_forms_are_similar(self, setup8):
        """All three forms share the same spectrum (Eqs. 3-5)."""
        _, _, mut, ls = setup8
        eig_r = np.sort(np.linalg.eigvals(dense_w(mut, ls, "right")).real)
        eig_s = np.sort(np.linalg.eigvalsh(dense_w(mut, ls, "symmetric")))
        eig_l = np.sort(np.linalg.eigvals(dense_w(mut, ls, "left")).real)
        np.testing.assert_allclose(eig_r, eig_s, atol=1e-10)
        np.testing.assert_allclose(eig_l, eig_s, atol=1e-10)

    def test_symmetric_form_is_symmetric(self, setup8):
        _, _, mut, ls = setup8
        w = dense_w(mut, ls, "symmetric")
        np.testing.assert_allclose(w, w.T, atol=1e-14)

    def test_mismatched_nu(self):
        with pytest.raises(ValidationError):
            dense_w(UniformMutation(4, 0.1), RandomLandscape(5, seed=0))

    def test_bad_form(self, setup8):
        _, _, mut, ls = setup8
        with pytest.raises(ValidationError):
            dense_w(mut, ls, "diagonal")


class TestConvertEigenvector:
    def test_roundtrip_between_forms(self, setup8):
        """Eigenvectors of the three forms map onto the same
        concentrations via the F^{±1/2} relations."""
        _, _, mut, ls = setup8
        from repro.solvers.dense import dense_dominant_eigenpair

        conc = {}
        for form in ("right", "symmetric", "left"):
            w = dense_w(mut, ls, form)
            _, vec = dense_dominant_eigenpair(w)
            conc[form] = convert_eigenvector(vec, ls, form)
        np.testing.assert_allclose(conc["right"], conc["symmetric"], atol=1e-10)
        np.testing.assert_allclose(conc["right"], conc["left"], atol=1e-10)

    def test_negative_orientation_fixed(self):
        ls = TabulatedLandscape([1.0, 1.0, 1.0, 1.0])
        out = convert_eigenvector(-np.ones(4) / 4, ls, "right")
        assert np.all(out > 0)
        np.testing.assert_allclose(out.sum(), 1.0)


class TestAgreementAcrossOperators:
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    def test_all_three_match_dense(self, setup8, form):
        nu, _, mut, ls = setup8
        w = dense_w(mut, ls, form)
        v = np.random.default_rng(0).random(1 << nu)
        expected = w @ v
        for op in (Smvp(mut, ls, form), Xmvp(mut, ls, nu, form), Fmmp(mut, ls, form)):
            np.testing.assert_allclose(op.matvec(v), expected, atol=1e-12)

    def test_fmmp_variants_agree(self, setup8):
        _, _, mut, ls = setup8
        v = np.random.default_rng(1).random(mut.n)
        a = Fmmp(mut, ls, variant="eq9").matvec(v)
        b = Fmmp(mut, ls, variant="eq10").matvec(v)
        np.testing.assert_allclose(a, b, atol=1e-13)

    def test_matvec_does_not_mutate_input(self, setup8):
        _, _, mut, ls = setup8
        v = np.random.default_rng(2).random(mut.n)
        orig = v.copy()
        for op in (Fmmp(mut, ls), Fmmp(mut, ls, form="left"), Xmvp(mut, ls, 3)):
            op.matvec(v)
            np.testing.assert_array_equal(v, orig)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 9), st.floats(1e-3, 0.49), st.integers(0, 10_000))
    def test_fmmp_equals_xmvp_full_property(self, nu, p, seed):
        mut = UniformMutation(nu, p)
        rng = np.random.default_rng(seed)
        ls = TabulatedLandscape(rng.random(1 << nu) + 0.5)
        v = rng.standard_normal(1 << nu)
        np.testing.assert_allclose(
            Fmmp(mut, ls).matvec(v), Xmvp(mut, ls, nu).matvec(v), atol=1e-11
        )


class TestFmmpGeneralizedMutation:
    def test_per_site_model(self):
        mut = PerSiteMutation([site_factor(0.01), site_factor(0.05, 0.2), site_factor(0.1)])
        ls = TabulatedLandscape(np.arange(1, 9, dtype=float))
        w = dense_w(mut, ls)
        v = np.random.default_rng(0).random(8)
        np.testing.assert_allclose(Fmmp(mut, ls).matvec(v), w @ v, atol=1e-13)

    def test_grouped_model(self):
        rng = np.random.default_rng(4)
        block = rng.random((4, 4))
        block /= block.sum(axis=0, keepdims=True)
        mut = GroupedMutation([block, site_factor(0.02)])
        ls = TabulatedLandscape(rng.random(8) + 0.5)
        w = dense_w(mut, ls)
        v = rng.standard_normal(8)
        np.testing.assert_allclose(Fmmp(mut, ls).matvec(v), w @ v, atol=1e-12)


def _spy(monkeypatch, module, name):
    """Count the calls made through ``module.name``."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestOneEngine:
    """``Fmmp.matvec`` is the one-column case of ``BatchedFmmp.matmat``:
    one call of the fused kernel, the same bits."""

    @pytest.mark.parametrize("kind", ["uniform", "persite", "grouped"])
    @pytest.mark.parametrize("form", ["right", "symmetric", "left"])
    @pytest.mark.parametrize("variant", ["eq9", "eq10"])
    def test_matvec_is_one_fused_call(self, monkeypatch, kind, form, variant):
        nu = 7
        if kind == "uniform":
            mut = UniformMutation(nu, 0.03)
        elif kind == "persite":
            mut = PerSiteMutation.from_error_rates(np.linspace(0.01, 0.2, nu))
        else:  # a 4-bit (radix-16) group, a 2-bit group and one site
            rng = np.random.default_rng(3)
            blocks = [rng.uniform(0.1, 1.0, (d, d)) for d in (16, 4)]
            mut = GroupedMutation(
                [b / b.sum(axis=0) for b in blocks] + [site_factor(0.02)]
            )
        ls = RandomLandscape(nu, seed=5)
        v = np.random.default_rng(2).random(1 << nu)
        want = BatchedFmmp(mut, ls, form=form, variant=variant).matmat(v.reshape(-1, 1))
        op = Fmmp(mut, ls, form=form, variant=variant)
        calls = _spy(monkeypatch, batched_module, "batched_butterfly_transform")
        got = op.matvec(v)
        assert len(calls) == 1
        assert np.array_equal(got, want[:, 0])

    def test_model_without_a_plan_is_rejected_by_name(self):
        """Every model runs a plan; there is no silent ``mutation.apply``
        fallback left for an unknown one."""

        class IdentityMutation(MutationModel):
            nu, n, is_symmetric = 4, 16, True

            def apply(self, v, *, out=None):
                return np.array(v, dtype=np.float64)

            def dense(self):
                return np.eye(self.n)

        for op in (Fmmp, BatchedFmmp, TransposedFmmp):
            with pytest.raises(ValidationError, match="IdentityMutation"):
                op(IdentityMutation(), RandomLandscape(4, seed=1))

    def test_scalar_operators_take_one_landscape(self):
        """``Fmmp`` and ``TransposedFmmp`` are the shared-landscape case;
        a sequence of landscapes is ``BatchedFmmp``'s per-column case."""
        mut, ls = UniformMutation(4, 0.02), RandomLandscape(4, seed=1)
        for op in (Fmmp, TransposedFmmp):
            with pytest.raises(ValidationError, match="one landscape"):
                op(mut, [ls])
        assert BatchedFmmp(mut, [ls]).per_column


class TestPlanBuiltOnce:
    """Operators build their fused plan at construction; no product —
    serial, batched or on the panel engine — rebuilds it."""

    def test_products_never_rebuild_the_plan(self, monkeypatch):
        nu = 14  # N = 2^14: threads=2 splits the product into 2 panels
        mut = PerSiteMutation.from_error_rates(np.linspace(0.01, 0.2, nu))
        lands = [RandomLandscape(nu, seed=s) for s in range(3)]
        serial = Fmmp(mut, lands[0], form="symmetric")
        threaded = Fmmp(mut, lands[0], form="symmetric", threads=2)
        batched = BatchedFmmp(mut, lands)
        assert auto_panels(nu, 1, threads=2) == 2
        original = transforms_batched.fused_stage_plan
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "fused_stage_plan", None) is original
            ):
                monkeypatch.setattr(module, "fused_stage_plan", spy)
        rng = np.random.default_rng(4)
        v = rng.random(1 << nu)
        block = rng.random((1 << nu, 3))
        for _ in range(3):
            want = serial.matvec(v)
            assert np.array_equal(threaded.matvec(v), want)
            batched.matmat(block)
        assert calls == []


class TestXmvpTruncation:
    def test_error_decreases_with_dmax(self, setup8):
        nu, _, mut, ls = setup8
        v = np.random.default_rng(5).random(mut.n)
        exact = Fmmp(mut, ls).matvec(v)
        errors = []
        for dmax in range(1, nu + 1):
            approx = Xmvp(mut, ls, dmax).matvec(v)
            errors.append(np.abs(approx - exact).max())
        assert all(e1 >= e2 - 1e-16 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] < 1e-13, "dmax = nu must be exact"

    def test_dmax5_accuracy_claim(self):
        """[10]'s claim (used in Fig. 3): dmax=5 gives ≈1e-10 accuracy at
        small error rates."""
        nu, p = 12, 0.01
        mut = UniformMutation(nu, p)
        ls = RandomLandscape(nu, c=5.0, sigma=1.0, seed=0)
        v = ls.start_vector()
        exact = Fmmp(mut, ls).matvec(v)
        approx = Xmvp(mut, ls, 5).matvec(v)
        rel = np.abs(approx - exact).max() / np.abs(exact).max()
        assert rel < 1e-8, f"expected ~1e-10 class accuracy, got {rel}"

    def test_rejects_bad_dmax(self, setup8):
        _, _, mut, ls = setup8
        with pytest.raises(ValidationError):
            Xmvp(mut, ls, 0)
        with pytest.raises(ValidationError):
            Xmvp(mut, ls, 9)

    def test_rejects_non_uniform_mutation(self):
        mut = PerSiteMutation.from_error_rates([0.01, 0.02])
        ls = TabulatedLandscape(np.ones(4))
        with pytest.raises(ValidationError):
            Xmvp(mut, ls, 1)

    def test_is_exact_flag(self, setup8):
        nu, _, mut, ls = setup8
        assert Xmvp(mut, ls, nu).is_exact
        assert not Xmvp(mut, ls, 2).is_exact


class TestShiftedOperator:
    def test_matvec(self, setup8):
        _, _, mut, ls = setup8
        base = Fmmp(mut, ls)
        mu = 0.1
        v = np.random.default_rng(6).random(mut.n)
        np.testing.assert_allclose(
            ShiftedOperator(base, mu).matvec(v), base.matvec(v) - mu * v, atol=1e-13
        )

    def test_conservative_shift_below_lambda_min(self, setup8):
        """μ = (1−2p)^ν f_min must lower-bound the spectrum of W."""
        _, _, mut, ls = setup8
        mu = conservative_shift(mut, ls)
        evals = np.linalg.eigvals(dense_w(mut, ls)).real
        assert mu <= evals.min() + 1e-12
        assert mu > 0

    def test_costs_add_axpy(self, setup8):
        _, _, mut, ls = setup8
        base = Fmmp(mut, ls)
        sh = ShiftedOperator(base, 0.5)
        assert sh.costs().flops > base.costs().flops


class TestOperatorCosts:
    def test_ordering_matches_complexity(self):
        """Fmmp (exact) costs the same order as the *coarsest* Xmvp(1)
        approximation — the paper's Sec. 2.1 comparison — and moves fewer
        bytes; both are far below the exact Xmvp(ν) ≈ Smvp."""
        nu = 10
        mut = UniformMutation(nu, 0.01)
        ls = RandomLandscape(nu, seed=1)
        c_fmmp = Fmmp(mut, ls).costs()
        c_x1 = Xmvp(mut, ls, 1).costs()
        c_xn = Xmvp(mut, ls, nu).costs()
        c_s = Smvp(mut, ls).costs()
        assert c_fmmp.flops < 2 * c_x1.flops, "same Θ(N log N) order"
        assert c_fmmp.bytes_moved < c_x1.bytes_moved, "Fmmp streams less data"
        assert c_x1.flops < c_xn.flops
        assert c_fmmp.flops < c_xn.flops / 10
        assert c_xn.flops == pytest.approx(c_s.flops, rel=0.1)

    def test_fmmp_storage_linear(self):
        nu = 12
        mut = UniformMutation(nu, 0.01)
        ls = RandomLandscape(nu, seed=1)
        assert Fmmp(mut, ls).costs().storage_bytes == 8.0 * (1 << nu)

    def test_to_dense_guard(self, setup8):
        _, _, mut, ls = setup8
        with pytest.raises(ValidationError):
            Fmmp(mut, ls).to_dense(max_n=16)
