"""``MutationModel.plan`` is the one butterfly plan of every model.

The plan, ``apply``, ``apply_inverse`` and the ``BatchedFmmp`` product
are compared bitwise against test-local copies of the per-type plan
dispatch and the per-model products they replaced: moving the plan into
the model must not move a bit.
"""

import numpy as np
import pytest

from repro.landscapes import RandomLandscape
from repro.mutation import GroupedMutation, PerSiteMutation, UniformMutation, site_factor
from repro.operators.batched import BatchedFmmp
from repro.transforms.batched import (
    batched_butterfly_transform,
    fused_stage_plan,
    grouped_stage_plan,
)
from repro.transforms.butterfly import butterfly_transform


def _old_plan(mutation, variant="eq9", *, transpose=False):
    if isinstance(mutation, (UniformMutation, PerSiteMutation)):
        factors, build = mutation.factors_per_bit(), fused_stage_plan
    else:
        factors, build = mutation.blocks(), grouped_stage_plan
    return build([f.T for f in factors] if transpose else factors, variant=variant)


def _old_apply(mutation, v):
    if isinstance(mutation, GroupedMutation):
        plan = grouped_stage_plan(mutation.blocks())
        return batched_butterfly_transform(v.reshape(-1, 1), plan).reshape(-1)
    return butterfly_transform(v, mutation.factors_per_bit())


def _old_apply_inverse(mutation, v):
    if isinstance(mutation, UniformMutation):
        p = mutation.p
        inv = np.array([[1.0 - p, -p], [-p, 1.0 - p]]) / (1.0 - 2.0 * p)
        return butterfly_transform(v, [inv] * mutation.nu)
    if isinstance(mutation, PerSiteMutation):
        invs = [
            np.array([[f[1, 1], -f[0, 1]], [-f[1, 0], f[0, 0]]])
            / (f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0])
            for f in mutation.factors_per_bit()
        ]
        return butterfly_transform(v, invs)
    plan = grouped_stage_plan([np.linalg.inv(b) for b in mutation.blocks()])
    return batched_butterfly_transform(v.reshape(-1, 1), plan).reshape(-1)


def _grouped(sizes, rng):
    blocks = []
    for g in sizes:
        b = rng.random((1 << g, 1 << g)) + 0.05
        blocks.append(b / b.sum(axis=0, keepdims=True))
    return GroupedMutation(blocks)


def _model(kind, nu, rng):
    if kind == "uniform":
        return UniformMutation(nu, 0.03)
    if kind == "persite":
        return PerSiteMutation([site_factor(*rng.uniform(0.01, 0.2, 2)) for _ in range(nu)])
    sizes, left = [], nu
    if kind == "grouped-wide":  # one >= 4-bit block: the column-by-column path
        sizes.append(min(nu, 4 + nu % 3))
        left -= sizes[0]
    cycle = (2, 1, 3)
    while left:
        sizes.append(min(cycle[len(sizes) % 3], left))
        left -= sizes[-1]
    return _grouped(sizes, rng)


class _TransposedBatched(BatchedFmmp):
    """``BatchedFmmp`` of ``Wᵀ`` in either variant (``TransposedFmmp``
    only builds Eq. 9)."""

    _transpose = True


_CASES = [
    (kind, nu)
    for nu in range(1, 11)
    for kind in ("uniform", "persite", "grouped", "grouped-wide")
    if kind != "grouped-wide" or nu >= 4
]


@pytest.mark.parametrize("kind,nu", _CASES)
def test_plan_and_products_are_bitwise_the_old_ones(kind, nu):
    rng = np.random.default_rng(1000 * nu + len(kind))
    mutation = _model(kind, nu, rng)
    if kind == "grouped-wide":
        assert max(mutation.group_sizes) >= 4
    n = mutation.n
    v = rng.standard_normal(n)
    np.testing.assert_array_equal(mutation.apply(v), _old_apply(mutation, v))
    np.testing.assert_array_equal(mutation.apply_inverse(v), _old_apply_inverse(mutation, v))
    landscapes = [RandomLandscape(nu, seed=s) for s in range(3)]
    for variant in ("eq9", "eq10"):
        for transpose in (False, True):
            got = mutation.plan(variant, transpose=transpose)
            want = _old_plan(mutation, variant, transpose=transpose)
            assert [(s.span, s.radix) for s in got] == [(s.span, s.radix) for s in want]
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a.matrix, b.matrix)
            op_cls = _TransposedBatched if transpose else BatchedFmmp
            for b, lands in ((1, landscapes[0]), (3, landscapes)):
                block = rng.standard_normal((n, b))
                f = np.stack([land.values() for land in landscapes[:b]], axis=1)
                f = f[:, 0] if b == 1 else f
                scales = {"post_scale": f} if transpose else {"pre_scale": f}
                np.testing.assert_array_equal(
                    op_cls(mutation, lands, variant=variant).matmat(block),
                    batched_butterfly_transform(block, want, **scales),
                )


def test_apply_writes_out_and_runs_in_situ():
    mutation = UniformMutation(6, 0.02)
    v = np.random.default_rng(0).standard_normal(mutation.n)
    want = _old_apply(mutation, v)
    out = np.empty_like(v)
    assert mutation.apply(v, out=out) is out
    np.testing.assert_array_equal(out, want)
    assert mutation.apply(v, out=v) is v
    np.testing.assert_array_equal(v, want)


def test_max_radix_reaches_the_fused_plan():
    """``max_radix`` cuts 2×2 factors into radix-2, 4 or 8 stages; a
    grouped model keeps one stage per block."""
    mutation = PerSiteMutation.from_error_rates([0.01] * 7)
    for max_radix in (2, 4, 8):
        got = mutation.plan(max_radix=max_radix)
        want = fused_stage_plan(mutation.factors_per_bit(), max_radix=max_radix)
        assert [(s.span, s.radix) for s in got] == [(s.span, s.radix) for s in want]
    grouped = _grouped([2, 3, 1], np.random.default_rng(0))
    assert [s.radix for s in grouped.plan(max_radix=2)] == [2, 8, 4]
