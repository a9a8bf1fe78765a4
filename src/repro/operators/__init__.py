"""Implicit matrix–vector products with ``W``.

Three interchangeable operators, exactly the cast of the paper's
experiments:

* :class:`~repro.operators.smvp.Smvp` — the standard dense product,
  ``Θ(N²)`` time *and* memory (baseline; small ν only),
* :class:`~repro.operators.xmvp.Xmvp` — the XOR-based implicit sparse
  product of [10] with cut-off distance ``dmax``;
  ``Xmvp(ν) ≡ Smvp`` numerically, ``Θ(N·Σ_{k≤dmax} C(ν,k))`` time,
  ``Θ(N)`` memory,
* :class:`~repro.operators.fmmp.Fmmp` — the paper's fast mutation matrix
  product, exact, ``Θ(N log₂ N)`` time, ``Θ(N)`` memory (one stage-fused
  plan shared with :class:`~repro.operators.batched.BatchedFmmp`).

All operate on any of the three equivalent eigenproblem forms (Eqs. 3–5):
``right`` (``Q·F``), ``symmetric`` (``F^½·Q·F^½``), ``left`` (``F·Q``).
"""

from repro.operators.base import ImplicitOperator, OperatorCosts, FORMS
from repro.operators.smvp import Smvp
from repro.operators.xmvp import Xmvp
from repro.operators.fmmp import Fmmp
from repro.operators.batched import BatchedFmmp
from repro.operators.shifted import ShiftedOperator
from repro.operators.truncated import TruncatedWalsh
from repro.operators.dense_w import dense_w, convert_eigenvector

__all__ = [
    "TruncatedWalsh",
    "ImplicitOperator",
    "OperatorCosts",
    "FORMS",
    "Smvp",
    "Xmvp",
    "Fmmp",
    "BatchedFmmp",
    "ShiftedOperator",
    "dense_w",
    "convert_eigenvector",
]
