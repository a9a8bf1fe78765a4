"""``Fmmp`` — the paper's fast mutation matrix product (Sec. 2).

Exact ``W·v`` in ``Θ(N log₂ N)`` with no matrix storage at all: the
Kronecker factorization of ``Q`` turns the product into a ν-stage
butterfly (Eq. 9 / Eq. 10, Algorithm 1).  Works unchanged for the
generalized mutation models of Sec. 2.2: per-site 2×2 factors fuse into
radix ≤ 8 sweeps, and each ``2^g×2^g`` group block of Eq. 11 is one
radix-``2^g`` sweep of the same plan
(:func:`repro.operators.batched.mutation_plan`), run by the same kernel.

``Fmmp`` is the shared-landscape case of the one butterfly operator,
:class:`~repro.operators.batched.BatchedFmmp`: its :meth:`Fmmp.matvec`
is the one-column ``matmat``, in a scratch block reused per calling
thread, and the power loop drives it through ``matmat`` on its own
blocks.

Two stage orders are provided, mirroring the two recursions:

* ``variant="eq9"`` — combine after recursing (Eq. 9): ascending spans
  ``1, 2, …, N/2``, exactly Algorithm 1;
* ``variant="eq10"`` — split before recursing (Eq. 10): descending spans.

For a fixed bit↔factor assignment the stages commute, so both variants
produce identical results (asserted in the tests) — the choice only
matters for memory-access order, which is why the paper mentions both.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.mutation.base import MutationModel
from repro.operators.batched import BatchedFmmp

__all__ = ["Fmmp"]


class Fmmp(BatchedFmmp):
    """Fast mutation matrix product operator for ``W`` (Eqs. 3–5 forms).

    Parameters
    ----------
    mutation:
        A uniform, per-site or grouped
        :class:`~repro.mutation.base.MutationModel`; any other model
        raises :class:`~repro.exceptions.ValidationError`.
    landscape:
        The fitness landscape.
    form:
        ``right``/``symmetric``/``left``.
    variant:
        ``"eq9"`` (ascending spans, Algorithm 1) or ``"eq10"``
        (descending spans).
    threads:
        Threads sharing each product's sweeps, as for
        :class:`~repro.operators.batched.BatchedFmmp`; it changes only
        wall time, never bits.

    Examples
    --------
    >>> from repro.mutation import UniformMutation
    >>> from repro.landscapes import SinglePeakLandscape
    >>> op = Fmmp(UniformMutation(10, 0.01), SinglePeakLandscape(10))
    >>> y = op.matvec(op.landscape.start_vector())
    >>> y.shape
    (1024,)
    """

    def __init__(
        self,
        mutation: MutationModel,
        landscape: FitnessLandscape,
        form: str = "right",
        variant: str = "eq9",
        *,
        threads: int | None = None,
    ):
        if not isinstance(landscape, FitnessLandscape):
            raise ValidationError(
                f"{type(self).__name__} takes one landscape, got {type(landscape).__name__}"
            )
        super().__init__(mutation, landscape, form, variant, threads=threads)
        self.landscape = landscape
        # matvec's (N, 1) kernel scratch, one per calling thread
        self._local = threading.local()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """``W·v``: the one-column :meth:`matmat`, in a scratch block
        reused by every call on the calling thread and never shared
        between threads."""
        v = self.check(v)
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = np.empty((self.n, 1))
        return self.matmat(v.reshape(self.n, 1), scratch=scratch).reshape(self.n)
