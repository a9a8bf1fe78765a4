"""Tests for grouped mutation processes (Eq. 11)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mutation import GroupedMutation, PerSiteMutation, site_factor
from repro.transforms.kronecker import kron_matvec


def random_stochastic_block(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.random((dim, dim))
    return m / m.sum(axis=0, keepdims=True)


class TestConstruction:
    def test_group_sizes(self):
        q = GroupedMutation([random_stochastic_block(4, 0), site_factor(0.1)])
        assert q.group_sizes == (2, 1)
        assert q.nu == 3 and q.n == 8

    def test_rejects_non_power_of_two_blocks(self):
        with pytest.raises(ValidationError):
            GroupedMutation([random_stochastic_block(3, 0)])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValidationError):
            GroupedMutation([np.eye(4) * 2.0])

    def test_rejects_oversized_group(self):
        with pytest.raises(ValidationError):
            GroupedMutation([np.eye(1 << 13)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            GroupedMutation([])

    def test_rejects_1x1(self):
        with pytest.raises(ValidationError):
            GroupedMutation([np.array([[1.0]])])


class TestApply:
    def test_matches_dense(self):
        blocks = [random_stochastic_block(4, 1), random_stochastic_block(2, 2),
                  random_stochastic_block(8, 3)]
        q = GroupedMutation(blocks)
        v = np.random.default_rng(0).standard_normal(q.n)
        np.testing.assert_allclose(q.apply(v), q.dense() @ v, atol=1e-12)

    def test_mass_preservation(self):
        q = GroupedMutation([random_stochastic_block(8, 7), random_stochastic_block(4, 8)])
        v = np.random.default_rng(1).random(q.n)
        np.testing.assert_allclose(q.apply(v).sum(), v.sum(), rtol=1e-12)

    def test_single_site_groups_match_persite(self):
        """All-singleton groups reduce to the per-site model (paper order
        vs site order: grouped blocks are MSB-first)."""
        fs = [site_factor(0.05, 0.1), site_factor(0.2), site_factor(0.15, 0.02)]
        persite = PerSiteMutation(fs)  # fs[s] on bit s
        grouped = GroupedMutation(list(reversed(fs)))  # MSB first
        v = np.random.default_rng(2).standard_normal(8)
        np.testing.assert_allclose(grouped.apply(v), persite.apply(v), atol=1e-13)

    def test_correlated_pair_example(self):
        """A 4x4 block where double mutation is suppressed cannot be
        written as a product of independent sites — the generality
        Eq. (11) buys."""
        p = 0.1
        block = np.array(
            [
                [1 - 2 * p, p, p, 0.0],
                [p, 1 - 2 * p, 0.0, p],
                [p, 0.0, 1 - 2 * p, p],
                [0.0, p, p, 1 - 2 * p],
            ]
        )
        q = GroupedMutation([block])
        v = np.zeros(4)
        v[0] = 1.0
        out = q.apply(v)
        assert out[3] == 0.0, "double mutation suppressed by construction"
        np.testing.assert_allclose(out.sum(), 1.0)


class TestSpectralAndInverse:
    def test_eigenvalues_match_dense(self):
        q = GroupedMutation([random_stochastic_block(4, 5), random_stochastic_block(2, 6)])
        lam = q.eigenvalues()
        expected = np.linalg.eigvals(q.dense())
        np.testing.assert_allclose(
            np.sort_complex(np.asarray(lam, dtype=complex)),
            np.sort_complex(expected),
            atol=1e-10,
        )

    def test_apply_inverse(self):
        q = GroupedMutation([random_stochastic_block(4, 9), random_stochastic_block(4, 10)])
        v = np.random.default_rng(3).random(16)
        np.testing.assert_allclose(q.apply_inverse(q.apply(v)), v, atol=1e-10)

    @pytest.mark.parametrize("groups", [(1, 2, 3), (4, 2), (6, 1), (5,), (2, 6, 3)])
    def test_plan_products_match_the_contraction_and_invert(self, groups):
        """``apply`` and ``apply_inverse`` run fused plans (one sweep per
        block, the inverse on the inverted blocks); ``kron_matvec`` is
        the reference, and the round trip returns ``v``."""
        blocks = [
            0.7 * np.eye(1 << g) + 0.3 * random_stochastic_block(1 << g, 20 + i)
            for i, g in enumerate(groups)
        ]
        q = GroupedMutation(blocks)
        v = np.random.default_rng(len(groups)).standard_normal(q.n)
        want = kron_matvec(blocks, v)
        np.testing.assert_allclose(q.apply(v), want, rtol=0, atol=1e-13 * np.abs(want).max())
        np.testing.assert_allclose(q.apply_inverse(q.apply(v)), v, rtol=0, atol=1e-12)

    def test_symmetry_detection(self):
        sym = np.array([[0.8, 0.2], [0.2, 0.8]])
        assert GroupedMutation([sym, sym]).is_symmetric
        assert not GroupedMutation([random_stochastic_block(4, 11)]).is_symmetric
