"""Fast Walsh–Hadamard transform (FWHT).

The eigenvector matrix of the uniform mutation matrix is the (scaled)
Hadamard matrix ``V(ν) = 2^{−ν/2} ⊗ᵢ [[1, 1], [1, −1]]`` (paper, Sec. 2),
so multiplying by ``V`` is the FWHT.  This powers the spectral
representation ``Q = V Λ V`` and the exact ``Θ(N log₂ N)``
shift-and-invert product ``(Q − μI)^{-1} v = V (Λ − μI)^{-1} V v``
(paper, Sec. 3).

We implement the *natural (Hadamard) order* transform — the one that
matches the Kronecker factorization used throughout the paper.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.transforms.butterfly import butterfly_transform
from repro.util.validation import check_power_of_two

__all__ = ["fwht", "fwht_inverse", "fwht_matrix"]

_H = np.array([[1.0, 1.0], [1.0, -1.0]])


def _nu_of(n: int) -> int:
    check_power_of_two(n, "len(v)")
    return int(n).bit_length() - 1


def _validate_in_place(v) -> np.ndarray:
    """Enforce the documented ``in_place`` contract instead of silently
    allocating: the input must already be a C-contiguous ``float64``
    ndarray (anything else cannot be transformed without a copy)."""
    if not isinstance(v, np.ndarray) or v.dtype != np.float64:
        raise ValidationError(
            "fwht(in_place=True) requires a float64 ndarray input "
            f"(got {type(v).__name__} of dtype "
            f"{getattr(v, 'dtype', 'n/a')}); pass in_place=False to transform a copy"
        )
    if not v.flags.c_contiguous:
        raise ValidationError(
            "fwht(in_place=True) requires a C-contiguous input (the "
            "transform cannot overwrite a strided view without "
            "allocating); pass in_place=False to transform a copy"
        )
    return v


def fwht(v: np.ndarray, *, ortho: bool = True, in_place: bool = False) -> np.ndarray:
    """Walsh–Hadamard transform of ``v`` (length a power of two).

    Parameters
    ----------
    v:
        Real input vector of length ``N = 2**ν``, or an ``(N, B)`` block
        whose ``B`` columns are transformed independently through the
        stage-fused batched kernel
        (:func:`repro.transforms.batched.batched_butterfly_transform`).
    ortho:
        If true (default), scale by ``2^{−ν/2}`` so the transform matrix
        is the symmetric orthogonal ``V(ν)`` of the paper and
        ``fwht(fwht(v)) == v``.  If false, the unnormalized ``H(ν) · v``
        is returned (each application multiplies norms by ``√N``).
    in_place:
        Overwrite ``v`` instead of allocating.  The input must be a
        C-contiguous ``float64`` array — anything else raises
        :class:`~repro.exceptions.ValidationError` (it could only be
        "transformed in place" by silently allocating a copy).

    Returns
    -------
    numpy.ndarray
        The transformed vector / block.
    """
    if in_place:
        v = _validate_in_place(v)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2:
        from repro.transforms.batched import batched_butterfly_transform, fused_stage_plan

        nu = _nu_of(v.shape[0])
        if nu == 0:
            raise ValidationError("fwht needs at least 2 elements")
        out = batched_butterfly_transform(v, fused_stage_plan([_H] * nu))
        if ortho:
            out *= 2.0 ** (-nu / 2.0)
        if in_place:
            v[:] = out
            return v
        return out
    if v.ndim != 1:
        raise ValidationError(f"fwht expects a 1-D vector or (N, B) block, got shape {v.shape}")
    nu = _nu_of(len(v))
    if nu == 0:
        raise ValidationError("fwht needs at least 2 elements")
    out = butterfly_transform(v, [_H] * nu, in_place=in_place)
    if ortho:
        out *= 2.0 ** (-nu / 2.0)
    return out


def fwht_inverse(v: np.ndarray, *, ortho: bool = True, in_place: bool = False) -> np.ndarray:
    """Inverse Walsh–Hadamard transform.

    With ``ortho=True`` the transform is an involution, so this is the
    same as :func:`fwht`; with ``ortho=False`` the result is scaled by
    ``1/N`` (since ``H² = N·I``).
    """
    out = fwht(v, ortho=ortho, in_place=in_place)
    if not ortho:
        out /= len(out)
    return out


def fwht_matrix(nu: int, *, ortho: bool = True) -> np.ndarray:
    """Dense Hadamard matrix ``V(ν)`` (or unnormalized ``H(ν)``).

    ``(V(ν))_{i,j} = 2^{−ν/2} · (−1)^{(dH(i,0)+dH(j,0)−dH(i,j))/2}``
    per the paper; built here by the equivalent Kronecker recursion.
    Intended for validation at small ν.
    """
    if nu < 1 or nu > 14:
        raise ValidationError(f"fwht_matrix supports 1 <= nu <= 14, got {nu}")
    h = _H.copy()
    m = np.array([[1.0]])
    for _ in range(nu):
        m = np.kron(m, h)
    if ortho:
        m *= 2.0 ** (-nu / 2.0)
    return m
