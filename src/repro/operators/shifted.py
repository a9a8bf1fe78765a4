"""Shifted operator ``A − μI`` for convergence acceleration (Sec. 3).

The power iteration's rate is ``λ₁/λ₀``; shifting improves it to
``(λ₁−μ)/(λ₀−μ)`` provided ``λ₀−μ`` stays the dominant eigenvalue.  The
paper derives the always-safe choice ``μ = (1−2p)^ν · f_min`` from
``‖W⁻¹‖₁ ≤ ‖F⁻¹‖₁·‖Q⁻¹‖₁``: it is a lower bound on λ_min, so subtracting
it can never flip the dominance order.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.mutation.uniform import UniformMutation
from repro.operators.base import ImplicitOperator, OperatorCosts

__all__ = ["ShiftedOperator", "conservative_shift", "resolve_shift"]


def conservative_shift(mutation: UniformMutation, landscape: FitnessLandscape) -> float:
    """The paper's provably safe shift ``μ = (1−2p)^ν · f_min``.

    Derived from ``λ_min(W) >= (1−2p)^ν f_min`` (Sec. 3); conservative
    but guaranteed to preserve convergence to the Perron vector.
    """
    if mutation.nu != landscape.nu:
        raise ValidationError("mutation and landscape chain lengths disagree")
    return (1.0 - 2.0 * mutation.p) ** mutation.nu * landscape.fmin


def resolve_shift(
    mutation: MutationModel, landscape: FitnessLandscape, shift: bool | float, *, auto=False
) -> float | None:
    """The shift ``μ`` of a power solve (``None``: unshifted) — the one
    home of the rules the model and the service's batched route share.

    ``shift`` is the request: ``False``, ``True`` (:func:`conservative_shift`,
    uniform model only) or a float used verbatim.  ``auto`` (``method="auto"``
    resolved to power) upgrades ``False`` to ``True`` on the uniform model,
    except at ``p = 0`` on a flat landscape, where ``W = f_min·I`` and the
    shift would annihilate ``W`` exactly.
    """
    if auto and shift is False and isinstance(mutation, UniformMutation):
        if not (mutation.p == 0.0 and landscape.fmin == landscape.fmax):
            shift = True
    if shift is False:
        return None
    if shift is True:
        if not isinstance(mutation, UniformMutation):
            raise ValidationError(
                "the conservative shift formula needs the uniform model; "
                "pass an explicit float shift instead"
            )
        return conservative_shift(mutation, landscape)
    return float(shift)


class ShiftedOperator(ImplicitOperator):
    """Wrap any operator as ``A − μI`` (one extra axpy per product)."""

    def __init__(self, base: ImplicitOperator, mu: float):
        self.base = base
        self.mu = float(mu)
        self.n = base.n

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = self.check(v)
        out = self.base.matvec(v)
        if self.mu != 0.0:
            out -= self.mu * v
        return out

    @property
    def is_symmetric(self) -> bool:
        return self.base.is_symmetric

    def costs(self) -> OperatorCosts:
        inner = self.base.costs()
        n = float(self.n)
        return OperatorCosts(
            flops=inner.flops + 2.0 * n,
            bytes_moved=inner.bytes_moved + 8.0 * 3.0 * n,
            storage_bytes=inner.storage_bytes,
        )
