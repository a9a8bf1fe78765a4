"""Fast structured transforms.

The paper's central observation is that the mutation matrix ``Q`` has a
Kronecker-product factorization (Eq. 7), so multiplying by it is an
FFT/FWHT-like butterfly transform with ``Θ(N log₂ N)`` cost.  This package
holds the transform machinery itself, independent of the quasispecies
semantics:

* :mod:`repro.transforms.butterfly` — the full ν-stage butterfly on one
  vector (run by the fused kernel below) plus a literal scalar
  transcription of the paper's Algorithm 1 as its executable spec,
* :mod:`repro.transforms.fwht` — the fast Walsh–Hadamard transform used to
  diagonalize ``Q``,
* :mod:`repro.transforms.kronecker` — the reference matvec with an
  arbitrary Kronecker product of small dense factors (Eq. 11),
* :mod:`repro.transforms.batched` — the stage-fused, cache-blocked
  multi-vector butterfly kernel (radix-8 stage fusion, sweeps walked in
  cache-sized chunks, diagonal scalings riding on the first and last
  sweep, one scratch block) that backs every mutation product, 2×2
  factors and grouped blocks alike: ``butterfly_transform``, ``fwht``,
  ``Fmmp.matvec`` and the batched ``matmat`` operators,
* :mod:`repro.transforms.parallel` — the thread rule and the engines
  on which the fused kernel shares each sweep's chunks among
  ``threads`` participants, bit-identical to one participant.
"""

from repro.transforms.butterfly import (
    butterfly_transform,
    butterfly_transform_reference,
)
from repro.transforms.batched import (
    FusedStage,
    fused_stage_plan,
    fused_stage_count,
    batched_butterfly_transform,
)
from repro.transforms.parallel import (
    PanelEngine,
    resolve_threads,
    borrow_engine,
    shutdown_engines,
)
from repro.transforms.fwht import fwht, fwht_inverse, fwht_matrix
from repro.transforms.kronecker import kron_matvec, kron_vector, kron_diagonal

__all__ = [
    "butterfly_transform",
    "butterfly_transform_reference",
    "FusedStage",
    "fused_stage_plan",
    "fused_stage_count",
    "batched_butterfly_transform",
    "PanelEngine",
    "resolve_threads",
    "borrow_engine",
    "shutdown_engines",
    "fwht",
    "fwht_inverse",
    "fwht_matrix",
    "kron_matvec",
    "kron_vector",
    "kron_diagonal",
]
