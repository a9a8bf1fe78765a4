"""The reduced (ν+1)×(ν+1) mutation matrix ``QΓ`` (Eq. 14, corrected).

``QΓ[d, k]`` is the probability that one *fixed* sequence from error class
``Γ_d`` mutates into *any* sequence of class ``Γ_k``:

    QΓ[d, k] = Σ_j C(ν−d, k−j) · C(d, j) · p^{k+d−2j} · (1−p)^{ν−(k+d−2j)}

with ``max(0, k+d−ν) <= j <= min(k, d)`` — ``j`` counts the set bits of
the source that *stay* set.  The printed exponent of ``(1−p)`` in the
paper, ``(k+d−2j)−ν``, is a sign typo: the total number of sites is ν and
``k+d−2j`` of them flip, so ``ν−(k+d−2j)`` don't.  (With the printed
exponent the matrix would not even be substochastic; see the unit tests.)

Rows of ``QΓ`` sum to one (a fixed sequence mutates into *some* class
with certainty), i.e. the reduced matrix is **row** stochastic — the
paper's observation that the reduction maps single molecules to class
*representatives*, not to class aggregates.

Implementation
--------------
Row ``d`` is computed as a polynomial-coefficient convolution rather
than the literal triple sum: a source sequence in ``Γ_d`` has ``ν−d``
unset sites, each independently contributing ``(1−p) + p·x`` to the
generating polynomial of the destination distance, and ``d`` set sites
contributing ``p + (1−p)·x`` (the flip-back keeps the site *out* of the
new distance).  Hence

    Σ_k QΓ[d, k]·x^k = ((1−p) + p·x)^{ν−d} · (p + (1−p)·x)^{d},

so each row is one ``numpy.convolve`` of two binomial-expansion
coefficient vectors — ``Θ(ν²)`` per row and C-speed, which keeps even
ν = 1000 (a 2¹⁰⁰⁰-dimensional full problem) in milliseconds.  The
binomial weights are evaluated in log space so very long chains neither
overflow the binomials nor lose the small-``k`` structure to underflow.

The coefficient vectors of all ν+1 rows come from two
``(ν+1)×(ν+1)`` tables built in one vectorized pass: row ``n`` of the
"wild" table holds ``C(n, i)·p^i·(1−p)^{n−i}`` and row ``n`` of the
"mutant" table ``C(n, i)·(1−p)^i·p^{n−i}`` for ``i = 0..n``.  Each
entry is ``exp(log_fact[n] − log_fact[i] − log_fact[n−i] +
i·log_success + (n−i)·log_fail)`` with ``log_fact[m] = lgamma(m + 1)``,
the operations of :func:`~repro.util.binomial.log_binomial` in its
order, so the tables hold the bits a per-row evaluation gives.  Entries
with ``i > n`` lie outside their row; they are set to ``−∞`` before the
``exp`` and never read.  Row ``d`` of ``QΓ`` then convolves wild row
``ν−d`` with mutant row ``d``.  The tables cost a few ``(ν+1)²``
arrays, the size of ``QΓ`` itself.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.util.binomial import binomial
from repro.util.validation import check_chain_length, check_error_rate

__all__ = ["reduced_mutation_matrix", "reduced_mutation_matrix_reference"]


def reduced_mutation_matrix(nu: int, p: float) -> np.ndarray:
    """Build ``QΓ ∈ R^{(ν+1)×(ν+1)}`` for chain length ``nu`` and rate ``p``.

    Parameters
    ----------
    nu:
        Chain length; the reduced dimension is ``ν + 1``.  Because the
        reduction is exact, this is valid for *much* longer chains than
        the full solvers (the guard accepts up to ν = 10000).
    p:
        Error rate, ``0 <= p <= 1/2`` (``p = 0`` yields the identity).

    Returns
    -------
    numpy.ndarray
        The row-stochastic reduced mutation matrix.
    """
    nu = check_chain_length(nu, max_nu=10_000)
    p = check_error_rate(p, allow_zero=True)
    if p == 0.0:
        return np.eye(nu + 1)

    log_p = np.log(p)
    log_1mp = np.log1p(-p)
    k = np.arange(nu + 1)
    log_fact = np.array([math.lgamma(m + 1) for m in range(nu + 1)])
    # log C(n, i) at [n, i]; |n − i| keeps the index in range where i > n
    log_c = log_fact[:, None] - log_fact - log_fact[np.abs(k[:, None] - k)]
    log_c[k[:, None] < k] = -np.inf
    i = k.astype(np.float64)
    n_minus_i = k[:, None] - i
    with np.errstate(under="ignore"):
        # ((1−p) + p·x)^n: "success" = contributing to the new distance
        # (a wild site flipping), probability p.
        wild = np.exp(log_c + i * log_p + n_minus_i * log_1mp)
        # (p + (1−p)·x)^n: a set site *stays* set with 1−p.
        mutant = np.exp(log_c + i * log_1mp + n_minus_i * log_p)
    q = np.empty((nu + 1, nu + 1))
    for d in range(nu + 1):
        q[d, :] = np.convolve(wild[nu - d, : nu - d + 1], mutant[d, : d + 1])
    return q


def reduced_mutation_matrix_reference(nu: int, p: float) -> np.ndarray:
    """Literal triple-sum transcription of (corrected) Eq. (14).

    Executable specification for the tests; ``Θ(ν³)`` Python loops, so
    only suitable for small ν.
    """
    nu = check_chain_length(nu, max_nu=64)
    p = check_error_rate(p, allow_zero=True)
    if p == 0.0:
        return np.eye(nu + 1)
    q = np.zeros((nu + 1, nu + 1))
    for d in range(nu + 1):
        for k in range(nu + 1):
            for j in range(max(0, k + d - nu), min(k, d) + 1):
                flips = k + d - 2 * j
                q[d, k] += (
                    binomial(nu - d, k - j)
                    * binomial(d, j)
                    * p**flips
                    * (1.0 - p) ** (nu - flips)
                )
    return q
