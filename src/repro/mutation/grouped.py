"""Grouped mutation processes (Eq. 11).

The most general structure the paper's fast product supports:

    Q = ⊗_{i=1}^{g} Q_{G_i},   Q_{G_i} ∈ R^{2^{g_i} × 2^{g_i}},   Σ g_i = ν

— ``g`` groups of sites; sites inside a group mutate *dependently*
(arbitrary column-stochastic block), distinct groups are independent.
The matvec costs ``Θ(N · Σᵢ 2^{g_i})``; for bounded group sizes this is
the same order as the uniform butterfly (the paper: the group sizes enter
``f(n)`` in the Master-theorem recurrence of Lemma 1).  It runs on the
butterfly kernel itself: each block is one radix-``2^{g_i}`` sweep of a
:func:`~repro.transforms.batched.grouped_stage_plan`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.mutation.base import MutationModel, check_column_stochastic
from repro.transforms.batched import MAX_RADIX, FusedStage, grouped_stage_plan
from repro.util.validation import check_chain_length, check_power_of_two

__all__ = ["GroupedMutation"]

#: Refuse groups whose dense block would dominate the whole problem.
_MAX_GROUP_BITS = 12


class GroupedMutation(MutationModel):
    """Kronecker product of column-stochastic group blocks.

    Parameters
    ----------
    blocks:
        Group blocks in the paper's ⊗ order: ``blocks[0]`` acts on the
        most significant ``g_1`` bits of the sequence index.  Each block
        must be a column-stochastic square matrix of power-of-two
        dimension ``2^{g_i}``.

    Examples
    --------
    Two dependent sites whose double mutation is suppressed, combined
    with two independent uniform sites::

        pair = correlated_4x4_block(...)       # 4x4 column stochastic
        unif = site_factor(0.01)               # 2x2
        q = GroupedMutation([pair, unif, unif])   # ν = 4
    """

    def __init__(self, blocks: Sequence[np.ndarray]):
        if len(blocks) == 0:
            raise ValidationError("at least one group block is required")
        self._blocks: list[np.ndarray] = []
        self._group_bits: list[int] = []
        for idx, b in enumerate(blocks):
            arr = check_column_stochastic(b, what=f"group block {idx}")
            dim = check_power_of_two(arr.shape[0], f"dimension of group block {idx}")
            bits = dim.bit_length() - 1
            if bits < 1:
                raise ValidationError(f"group block {idx} must be at least 2x2")
            if bits > _MAX_GROUP_BITS:
                raise ValidationError(
                    f"group block {idx} spans {bits} sites; the dense block would "
                    f"be too large (limit {_MAX_GROUP_BITS})"
                )
            self._blocks.append(arr)
            self._group_bits.append(bits)
        # O(Σ 4^{g_i}) storage regardless of ν; materializing guards live
        # on the 2**nu-sized operations.
        self.nu = check_chain_length(sum(self._group_bits), max_nu=10_000)
        self.n = 1 << self.nu

    # ----------------------------------------------------------- structure
    @property
    def group_sizes(self) -> tuple[int, ...]:
        """The ``g_i`` (bits per group), paper order (MSB group first)."""
        return tuple(self._group_bits)

    def blocks(self) -> list[np.ndarray]:
        """Copies of the group blocks (paper ⊗ order)."""
        return [b.copy() for b in self._blocks]

    @property
    def is_symmetric(self) -> bool:
        return all(np.allclose(b, b.T, atol=1e-14) for b in self._blocks)

    def _plan_factors(self) -> list[np.ndarray]:
        return self._blocks

    def _stage_plan(
        self, factors: list[np.ndarray], variant: str = "eq9", max_radix: int = MAX_RADIX
    ) -> list[FusedStage]:
        """One radix-``2^{g_i}`` sweep per group block, ``Θ(N · Σᵢ 2^{g_i})``
        (the butterfly cost when all groups are single sites)."""
        return grouped_stage_plan(factors, variant=variant)

    # ----------------------------------------------------------- operations
    def apply_inverse(self, v: np.ndarray) -> np.ndarray:
        """``Q⁻¹ · v`` via per-block inverses (``(A⊗B)⁻¹ = A⁻¹⊗B⁻¹``)."""
        invs = []
        for idx, b in enumerate(self._blocks):
            try:
                invs.append(np.linalg.inv(b))
            except np.linalg.LinAlgError as exc:
                raise ValidationError(f"group block {idx} is singular") from exc
        return self._run_plan(self._stage_plan(invs), v)

    def eigenvalues(self) -> np.ndarray:
        """All ``N`` eigenvalues: Kronecker products of block spectra.

        May be complex for non-symmetric blocks; returned as complex and
        squeezed to real when the imaginary parts vanish.
        """
        lam = np.array([1.0 + 0.0j])
        for b in self._blocks:
            block_eigs = np.linalg.eigvals(b)
            lam = (lam[:, None] * block_eigs[None, :]).reshape(-1)
        if np.allclose(lam.imag, 0.0, atol=1e-12):
            return lam.real
        return lam

    def dense(self, *, max_nu: int = 13) -> np.ndarray:
        """Dense ``Q = ⊗ blocks`` (validation only)."""
        check_chain_length(self.nu, max_nu=max_nu)
        m = np.array([[1.0]])
        for b in self._blocks:
            m = np.kron(m, b)
        return m
