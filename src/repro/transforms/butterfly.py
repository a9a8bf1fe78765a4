"""Butterfly transforms with per-stage 2×2 factors.

A Kronecker product of ν 2×2 matrices applied to a vector of length
``N = 2**ν`` factors into ν *stages*.  The stage with span ``h = 2**s``
mixes every pair of elements whose indices differ exactly in bit ``s``:

    v[j]     ←  m00 · v[j]  +  m01 · v[j + h]
    v[j + h] ←  m10 · v[j]  +  m11 · v[j + h]

which is exactly the inner loop of the paper's Algorithm 1 (there with
``m = [[1−p, p], [p, 1−p]]``).  Stages act on distinct bits and therefore
commute; we run them in ascending span order like the paper.

Bit/factor convention (documented in DESIGN.md): in the Kronecker product
``M = M_1 ⊗ M_2 ⊗ … ⊗ M_ν`` of Eq. (7)/(8), factor ``M_1`` corresponds to
the *most significant* bit of the sequence index.  This module is indexed
by **bit** (LSB = bit 0 = site 0), so ``factors[s]`` is the 2×2 matrix for
bit ``s``, i.e. Kronecker factor number ``ν − s``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.util.validation import check_vector

__all__ = ["butterfly_transform", "butterfly_transform_reference"]


def _check_2x2(m: np.ndarray, what: str = "factor") -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.shape != (2, 2):
        raise ValidationError(f"{what} must be a 2x2 matrix, got shape {arr.shape}")
    return arr


def butterfly_transform(
    v: np.ndarray,
    factors: Sequence[np.ndarray],
    *,
    in_place: bool = False,
) -> np.ndarray:
    """Apply the full ν-stage butterfly: ``(M_{ν} ⊗ … ⊗ M_1) · v``.

    ``factors[s]`` is the 2×2 matrix acting on bit ``s`` (see module
    docstring for the Kronecker-order convention).  Runtime is
    ``Θ(N log₂ N)``.  With ``in_place=True`` the (validated) input array
    is overwritten and returned.

    The transform is executed by the stage-fused batched kernel
    (:func:`repro.transforms.batched.batched_butterfly_transform`) on a
    single-column block, so the scalar path, the multi-vector path, the
    FWHT and the spectral shift-invert products all share one engine.
    """
    from repro.transforms.batched import batched_butterfly_transform, fused_stage_plan

    nu = len(factors)
    if nu == 0:
        raise ValidationError("at least one factor is required")
    n = 1 << nu
    v = check_vector(v, n, "v")
    out = batched_butterfly_transform(v.reshape(n, 1), fused_stage_plan(factors)).reshape(n)
    if in_place:
        v[:] = out
        return v
    return out


def butterfly_transform_reference(v: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """Literal scalar transcription of the paper's Algorithm 1.

    Same contract as :func:`butterfly_transform` but implemented with the
    exact triple loop of the paper (generalized from ``(1−p, p)`` weights
    to an arbitrary 2×2 matrix per stage).  Quadratically slower in
    Python; exists purely as an executable specification for tests.
    """
    nu = len(factors)
    if nu == 0:
        raise ValidationError("at least one factor is required")
    n = 1 << nu
    v = check_vector(v, n, "v").copy()
    i = 1
    stage = 0
    while i <= n // 2:  # Algorithm 1 line 1: for i ← 1 to N/2 by 2·i
        m = _check_2x2(factors[stage])
        for j in range(0, n, 2 * i):  # line 2
            for k in range(i):  # line 3
                t1 = v[j + k]  # line 4
                t2 = v[j + k + i]  # line 5
                v[j + k] = m[0, 0] * t1 + m[0, 1] * t2  # line 6
                v[j + k + i] = m[1, 0] * t1 + m[1, 1] * t2  # line 7
        i *= 2
        stage += 1
    return v
