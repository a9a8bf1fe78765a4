"""Operator protocol and the common ``W``-form plumbing.

Every solver in :mod:`repro.solvers` consumes an
:class:`ImplicitOperator`: something with a dimension, a ``matvec``, a
symmetry flag, and a static cost descriptor (flops / bytes per product)
that the performance models of :mod:`repro.perf` consume.

The three equivalent eigenproblem forms (paper Eqs. 3–5) differ only in
how the diagonal ``F`` wraps the mutation product:

========== =========================== ==============================
form        matrix                      eigenvector relation
========== =========================== ==============================
``right``   ``W_R = Q · F``             ``x_R = F^{-1/2} · x_S``
``symmetric`` ``W_S = F^{1/2}·Q·F^{1/2}`` (symmetric ⇒ Lanczos-friendly)
``left``    ``W_L = F · Q``             ``x_L = F^{1/2} · x_S``
========== =========================== ==============================

All share the same spectrum; concentrations are read from ``x_R``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.landscapes.base import FitnessLandscape
from repro.util.validation import check_vector

__all__ = ["ImplicitOperator", "OperatorCosts", "FORMS", "FormMixin"]

FORMS = ("right", "symmetric", "left")


@dataclass(frozen=True)
class OperatorCosts:
    """Static per-product cost estimates for performance modeling.

    Attributes
    ----------
    flops:
        Floating-point operations per product (for ``batch > 1``: for the
        whole multi-vector product, i.e. all ``batch`` columns together).
    bytes_moved:
        Main-memory traffic per product (reads + writes, in bytes),
        assuming no cache reuse beyond registers — the right model for
        the streaming, bandwidth-bound kernels of the paper (Sec. 4).
        Like ``flops``, this is the total for the whole block.
    storage_bytes:
        Persistent storage the operator itself needs (dense matrix,
        mask tables, …); vectors excluded.
    batch:
        Number of right-hand-side columns the product applies to at once
        (1 for a plain matvec).
    """

    flops: float
    bytes_moved: float
    storage_bytes: float
    batch: int = 1

    def per_vector(self) -> "OperatorCosts":
        """Amortized costs for a single column of the batch."""
        if self.batch == 1:
            return self
        return OperatorCosts(
            flops=self.flops / self.batch,
            bytes_moved=self.bytes_moved / self.batch,
            storage_bytes=self.storage_bytes,
            batch=1,
        )


class ImplicitOperator(abc.ABC):
    """A square linear operator available only through its action."""

    n: int

    @abc.abstractmethod
    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Return the product with ``v`` (never mutates the input)."""

    @property
    @abc.abstractmethod
    def is_symmetric(self) -> bool:
        """Whether the represented matrix is symmetric."""

    @abc.abstractmethod
    def costs(self) -> OperatorCosts:
        """Static cost descriptor for one :meth:`matvec`."""

    def matmat(self, block: np.ndarray) -> np.ndarray:
        """Product with every column of an ``(n, B)`` block.

        The default simply loops :meth:`matvec` column by column —
        operators with a genuinely batched kernel (notably
        :class:`~repro.operators.batched.BatchedFmmp`) override this
        with a single fused sweep over the whole block.
        """
        arr = np.asarray(block, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"matmat expects a 2-D (n, B) block, got shape {arr.shape}")
        if arr.shape[0] != self.n:
            raise ValidationError(f"matmat block must have {self.n} rows, got {arr.shape[0]}")
        if arr.shape[1] == 0:
            return np.empty_like(arr)
        return np.stack([self.matvec(arr[:, j]) for j in range(arr.shape[1])], axis=1)

    # --------------------------------------------------------- conveniences
    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.matvec(v)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def check(self, v: np.ndarray) -> np.ndarray:
        return check_vector(v, self.n, "v")

    def to_dense(self, *, max_n: int = 1 << 13) -> np.ndarray:
        """Materialize by applying to the identity (tests / small ν)."""
        if self.n > max_n:
            raise ValidationError(f"refusing to densify an operator of dimension {self.n}")
        eye = np.eye(self.n)
        cols = [self.matvec(eye[:, j]) for j in range(self.n)]
        return np.stack(cols, axis=1)


class FormMixin:
    """Shared handling of the right/symmetric/left forms (Eqs. 3–5).

    Subclasses call :meth:`_init_form` during construction; those that
    run a pure-``Q`` product wrap it with :meth:`_apply_form`.
    """

    def _init_form(self, landscape: FitnessLandscape, form: str) -> None:
        if form not in FORMS:
            raise ValidationError(f"form must be one of {FORMS}, got {form!r}")
        self.form = form
        self.landscape = landscape
        self._f = landscape.values()
        self._sqrt_f = np.sqrt(self._f) if form == "symmetric" else None

    def _apply_form(self, v: np.ndarray, q_apply) -> np.ndarray:
        """Compute ``W·v`` given a callable ``q_apply(u) = Q·u``."""
        if self.form == "right":
            return q_apply(self._f * v)
        if self.form == "symmetric":
            return self._sqrt_f * q_apply(self._sqrt_f * v)
        return self._f * q_apply(v)  # left

    @property
    def _form_is_symmetric(self) -> bool:
        return self.form == "symmetric"
