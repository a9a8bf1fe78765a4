"""Decoupled solver for Kronecker landscapes (Sec. 5.2).

When both ``Q`` and ``F`` factor over the same bit groups,

    W = Q·F = (⊗ᵢ Qᵢ)·(⊗ᵢ Fᵢ) = ⊗ᵢ (Qᵢ·Fᵢ)

by the mixed product formula — the eigenproblem decouples into ``g``
independent subproblems of size ``2^{g_i}``.  The dominant eigenvalue is
the product of the factors' dominant eigenvalues and the Perron vector is
the Kronecker product of the factors' Perron vectors (spectral radius is
multiplicative over ⊗ and the product of positive vectors is positive).

The full eigenvector of a ν = 100 problem can never be materialized; the
:class:`KroneckerEigenvector` therefore answers queries *implicitly*:

* random access ``x[i]`` in ``O(g)``,
* cumulative error-class concentrations ``[Γ_k]`` by a convolution DP
  over the factors (``O(ν²)`` total),
* per-class min/max concentrations — the quantity the paper proposes for
  detecting the error threshold without the full vector — by the same DP
  with (min, ×) / (max, ×) algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bitops.popcount import distance_to_master
from repro.exceptions import IncompatibleStructureError, ValidationError
from repro.landscapes.custom import TabulatedLandscape
from repro.landscapes.kronecker import KroneckerLandscape
from repro.mutation.base import MutationModel
from repro.mutation.grouped import GroupedMutation
from repro.mutation.persite import PerSiteMutation
from repro.mutation.uniform import UniformMutation
from repro.operators.fmmp import Fmmp
from repro.solvers.dense import dense_solve
from repro.solvers.power import PowerIteration
from repro.solvers.result import SolveResult
from repro.transforms.kronecker import kron_vector

__all__ = ["KroneckerSolver", "KroneckerEigenvector", "KroneckerSolveResult"]

#: subproblems up to this many bits are solved densely (symmetric eigh on
#: the F^½QF^½ form where possible); larger symmetric ones use Lanczos —
#: random sub-landscapes can have nearly degenerate dominant pairs, which
#: stall plain power iteration but not a Krylov method.
_DENSE_BITS = 10


class KroneckerEigenvector:
    """Implicit Perron vector ``x = x_1 ⊗ … ⊗ x_g`` (all factors positive,
    each normalized to unit 1-norm, so the full vector sums to one)."""

    def __init__(self, factors: list[np.ndarray]):
        if not factors:
            raise ValidationError("at least one factor is required")
        self._factors = []
        self._bits = []
        for idx, f in enumerate(factors):
            arr = np.asarray(f, dtype=np.float64).reshape(-1)
            if np.any(arr < 0.0):
                raise ValidationError(f"factor {idx} of a Perron vector must be non-negative")
            total = arr.sum()
            if total <= 0.0:
                raise ValidationError(f"factor {idx} has zero mass")
            arr = arr / total
            dim = arr.shape[0]
            if dim & (dim - 1):
                raise ValidationError(f"factor {idx} length must be a power of two")
            self._factors.append(arr)
            self._bits.append(dim.bit_length() - 1)
        self.nu = sum(self._bits)
        self.n = 1 << self.nu

    # -------------------------------------------------------------- access
    @property
    def factors(self) -> list[np.ndarray]:
        return [f.copy() for f in self._factors]

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(self._bits)

    def value_at(self, i: int) -> float:
        """``x_i`` in ``O(g)`` — product of one entry per factor."""
        if not 0 <= i < self.n:
            raise ValidationError(f"index {i} out of range [0, {self.n})")
        out = 1.0
        shift = self.nu
        for f, bits in zip(self._factors, self._bits):
            shift -= bits
            out *= float(f[(i >> shift) & ((1 << bits) - 1)])
        return out

    def materialize(self, *, max_nu: int = 24) -> np.ndarray:
        """The explicit length-``N`` vector (guarded)."""
        if self.nu > max_nu:
            raise ValidationError(
                f"refusing to materialize 2**{self.nu} entries; use the implicit queries"
            )
        return kron_vector(self._factors)

    # ------------------------------------------------- error-class queries
    def _factor_class_reduce(self, reducer) -> list[np.ndarray]:
        """Per-factor per-class reduction (sum/min/max over each Γ_c)."""
        out = []
        for f, bits in zip(self._factors, self._bits):
            labels = distance_to_master(bits) if bits >= 1 else np.zeros(1, dtype=np.int64)
            vals = np.empty(bits + 1)
            for c in range(bits + 1):
                vals[c] = reducer(f[labels == c])
            out.append(vals)
        return out

    def class_concentrations(self) -> np.ndarray:
        """Cumulative ``[Γ_k] = Σ_{popcount(i)=k} x_i`` for ``k = 0..ν``.

        Convolution DP: the distance of ``i`` to the master is the sum of
        the per-group distances, and ``x_i`` is the product of per-group
        entries, so the class sums of the full vector are the convolution
        of the per-factor class sums.
        """
        per_factor = self._factor_class_reduce(np.sum)
        acc = per_factor[0]
        for nxt in per_factor[1:]:
            acc = np.convolve(acc, nxt)
        return acc

    def class_extrema(self) -> tuple[np.ndarray, np.ndarray]:
        """(min, max) concentration of a *single sequence* within each Γ_k.

        The paper's proposed implicit diagnostic: enough to decide
        whether an error threshold occurs without ever forming the
        vector.  DP with (min, ×) / (max, ×) semirings over the same
        convolution structure as :meth:`class_concentrations`.
        """
        mins = self._factor_class_reduce(np.min)
        maxs = self._factor_class_reduce(np.max)

        def semiring_convolve(a: np.ndarray, b: np.ndarray, pick) -> np.ndarray:
            out = np.full(len(a) + len(b) - 1, np.nan)
            for ka in range(len(a)):
                for kb in range(len(b)):
                    cand = a[ka] * b[kb]
                    k = ka + kb
                    if np.isnan(out[k]) or pick(cand, out[k]) == cand:
                        out[k] = cand
            return out

        lo = mins[0]
        hi = maxs[0]
        for nxt_lo, nxt_hi in zip(mins[1:], maxs[1:]):
            lo = semiring_convolve(lo, nxt_lo, min)
            hi = semiring_convolve(hi, nxt_hi, max)
        return lo, hi


@dataclass
class KroneckerSolveResult:
    """Result of the decoupled solve.

    Attributes
    ----------
    eigenvalue:
        λ₀ of the full ``W`` (product of subproblem eigenvalues).
    eigenvector:
        The implicit :class:`KroneckerEigenvector`.
    sub_results:
        The per-group :class:`SolveResult` objects.

    Like a :class:`SolveResult` it also reads ``method``,
    ``iterations``, ``residual`` and ``converged``, each over the
    subproblems.
    """

    eigenvalue: float
    eigenvector: KroneckerEigenvector
    sub_results: list[SolveResult] = field(repr=False, default_factory=list)

    method = "Kronecker"

    @property
    def converged(self) -> bool:
        return all(r.converged for r in self.sub_results)

    @property
    def iterations(self) -> int:
        """Iterations summed over the subproblems (0 when all are dense)."""
        return sum(r.iterations for r in self.sub_results)

    @property
    def residual(self) -> float:
        """The largest subproblem residual."""
        return max((r.residual for r in self.sub_results), default=0.0)


class KroneckerSolver:
    """Decoupled quasispecies solver for compatible ``Q``/``F`` structure.

    Parameters
    ----------
    mutation:
        One of

        * :class:`UniformMutation` — always compatible (any grouping of
          a ⊗ of identical 2×2 factors is again a ⊗ of uniform blocks),
        * :class:`PerSiteMutation` — compatible with any grouping (sites
          regroup freely),
        * :class:`GroupedMutation` — group sizes must equal the
          landscape's exactly (the paper's "Q and F fit together"
          condition via the mixed product formula).
    landscape:
        A :class:`KroneckerLandscape`.
    tol:
        Tolerance for subproblems solved iteratively (large groups).
    """

    def __init__(self, mutation: MutationModel, landscape: KroneckerLandscape, *, tol: float = 1e-13):
        if not isinstance(landscape, KroneckerLandscape):
            raise ValidationError("KroneckerSolver requires a KroneckerLandscape")
        if mutation.nu != landscape.nu:
            raise ValidationError(
                f"mutation (nu={mutation.nu}) and landscape (nu={landscape.nu}) disagree"
            )
        self.landscape = landscape
        self.tol = float(tol)
        self._sub_mutations = self._split_mutation(mutation, landscape.group_sizes)
        self._sub_landscapes = [TabulatedLandscape(d) for d in landscape.kron_diagonals]

    @staticmethod
    def _split_mutation(mutation: MutationModel, groups: tuple[int, ...]) -> list[MutationModel]:
        """Refactor ``Q`` over the landscape's bit groups (paper order)."""
        if isinstance(mutation, UniformMutation):
            return [UniformMutation(g, mutation.p) for g in groups]
        if isinstance(mutation, PerSiteMutation):
            # Site s is bit s (LSB first); landscape group 0 holds the MSB
            # bits.  Collect each group's site factors in LSB-first order.
            factors = mutation.factors_per_bit()
            subs: list[MutationModel] = []
            hi = mutation.nu
            for g in groups:
                lo = hi - g
                subs.append(PerSiteMutation(factors[lo:hi]))
                hi = lo
            return subs
        if isinstance(mutation, GroupedMutation):
            if mutation.group_sizes != tuple(groups):
                raise IncompatibleStructureError(
                    f"mutation groups {mutation.group_sizes} do not match "
                    f"landscape groups {tuple(groups)}; the mixed product "
                    "formula does not apply"
                )
            return [GroupedMutation([b]) for b in mutation.blocks()]
        raise ValidationError(f"unsupported mutation model {type(mutation).__name__}")

    # --------------------------------------------------------------- solve
    def solve(self) -> KroneckerSolveResult:
        """Solve every subproblem independently and combine implicitly.

        Small groups (≤ 10 bits) use the dense LAPACK path; larger
        groups run ``Pi(Fmmp)`` — each subproblem is an ordinary
        quasispecies problem of chain length ``g_i``.
        """
        sub_results: list[SolveResult] = []
        lam = 1.0
        vec_factors: list[np.ndarray] = []
        for sub_q, sub_f in zip(self._sub_mutations, self._sub_landscapes):
            symmetric = sub_q.is_symmetric
            if sub_q.nu <= _DENSE_BITS:
                form = "symmetric" if symmetric else "right"
                res = dense_solve(sub_q, sub_f, form=form)
            elif symmetric:
                from repro.solvers.lanczos import Lanczos

                op = Fmmp(sub_q, sub_f, form="symmetric")
                res = Lanczos(op, tol=self.tol, max_basis=400).solve(
                    np.sqrt(sub_f.values()), landscape=sub_f, form="symmetric"
                )
            else:
                op = Fmmp(sub_q, sub_f, form="right")
                res = PowerIteration(op, tol=self.tol).solve(
                    sub_f.start_vector(), landscape=sub_f, form="right"
                )
            sub_results.append(res)
            lam *= res.eigenvalue
            vec_factors.append(res.concentrations)
        return KroneckerSolveResult(
            eigenvalue=lam,
            eigenvector=KroneckerEigenvector(vec_factors),
            sub_results=sub_results,
        )
