"""Closed-form per-matvec cost formulas.

These mirror the :meth:`~repro.operators.base.ImplicitOperator.costs`
methods but are computable for *any* ν without building an operator (the
mask tables of an ``Xmvp(5)`` at ν = 25 alone would be ~54k entries; the
dense ``Smvp`` at ν = 25 would be 9 PB — which is rather the point of
the paper).

The formulas (matching Secs. 1.2/2.1):

========== ========================================== =====================
operator    flops                                      complexity class
========== ========================================== =====================
``Smvp``    ``2N²``                                    ``Θ(N²)``
``Xmvp``    ``2N·Σ_{k≤dmax}C(ν,k) + 2N``               ``Θ(N·Σ C(ν,k))``
``Fmmp``    ``3N·ν + N``                               ``Θ(N log₂ N)``
========== ========================================== =====================

The ``Fmmp`` row is not a formula of its own: it is
:func:`repro.operators.batched.plan_costs` of the paper's radix-2 plan
(ν stages of Algorithm 1: ``max_radix=2``, no stage fusion), the same
cost function the operators apply to the fused plans they run, plus the
paper's separate diagonal launch.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.operators.base import OperatorCosts
from repro.operators.batched import plan_costs
from repro.transforms.batched import fused_stage_plan

__all__ = ["fmmp_costs", "xmvp_costs", "smvp_costs", "xmvp_mask_count", "operator_costs"]


def _check(nu: int) -> int:
    if not isinstance(nu, int) or nu < 1:
        raise ValidationError(f"nu must be a positive integer, got {nu!r}")
    return nu


def xmvp_mask_count(nu: int, dmax: int) -> int:
    """Number of XOR offset masks, ``Σ_{k=0}^{dmax} C(ν, k)``."""
    nu = _check(nu)
    if not 1 <= dmax <= nu:
        raise ValidationError(f"dmax must be in [1, {nu}], got {dmax}")
    return sum(math.comb(nu, k) for k in range(dmax + 1))


def fmmp_costs(nu: int) -> OperatorCosts:
    """Fmmp per-matvec costs of the paper's stage-by-stage butterfly.

    :func:`~repro.operators.batched.plan_costs` of the radix-2 plan (ν
    sweeps of the N-vector) plus one diagonal pass, its own launch: it
    reads the vector and the scale and writes the vector.  Costs depend
    only on the plan's shape, so identity factors stand in for the
    mutation factors.
    """
    nu = _check(nu)
    n = 1 << nu
    sweeps = plan_costs(fused_stage_plan([np.eye(2)] * nu, max_radix=2), n)
    return OperatorCosts(
        flops=sweeps.flops + n,
        bytes_moved=sweeps.bytes_moved + 24.0 * n,
        storage_bytes=8.0 * n,
    )


def xmvp_costs(nu: int, dmax: int) -> OperatorCosts:
    """Xmvp(dmax) per-matvec costs: one gather-add pass per mask, plus
    one diagonal pass."""
    nu = _check(nu)
    passes = float(xmvp_mask_count(nu, dmax))
    n = float(1 << nu)
    return OperatorCosts(
        flops=2.0 * n * passes + 2.0 * n,
        bytes_moved=8.0 * n * (3.0 * passes + 3.0),
        storage_bytes=8.0 * (passes + n),
    )


def smvp_costs(nu: int) -> OperatorCosts:
    """Dense product costs: ``2N²`` flops, matrix-dominated traffic."""
    nu = _check(nu)
    n = float(1 << nu)
    return OperatorCosts(
        flops=2.0 * n * n,
        bytes_moved=8.0 * (n * n + 2.0 * n),
        storage_bytes=8.0 * n * n,
    )


def operator_costs(kind: str, nu: int, dmax: int | None = None) -> OperatorCosts:
    """Dispatch by operator name (``"fmmp"``/``"xmvp"``/``"smvp"``)."""
    if kind == "fmmp":
        return fmmp_costs(nu)
    if kind == "xmvp":
        if dmax is None:
            raise ValidationError("xmvp costs need dmax")
        return xmvp_costs(nu, dmax)
    if kind == "smvp":
        return smvp_costs(nu)
    raise ValidationError(f"unknown operator kind {kind!r}")
