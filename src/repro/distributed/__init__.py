"""Distributed-memory solving (the paper's first-named future work).

The conclusions state: "Given the new solver presented in this paper,
the main limiting factor … is not any more the runtime, but the memory
requirements.  Consequently, in the future we will focus on distributed
memory approaches."  This package implements that approach over a
*simulated* cluster (no MPI in this environment; the communication layer
is modeled exactly like the device layer models kernels):

* the state vector is block-partitioned across ``R = 2^r`` ranks
  (:class:`~repro.distributed.partition.PartitionedVector`) — each rank
  holds ``N/R`` contiguous entries, i.e. the high ``r`` index bits select
  the rank;
* butterfly stages with span below the block size are embarrassingly
  local; the top ``r`` stages pair ranks along hypercube dimensions and
  cost one block exchange each
  (:class:`~repro.distributed.fmmp.DistributedFmmp`) — the classic
  distributed-FFT communication pattern;
* norms/residuals use modeled hypercube allreduces;
* :class:`~repro.distributed.power.DistributedPowerIteration` runs the
  whole solve on the one power loop
  (:class:`~repro.solvers.power.PowerIteration`) with per-rank roofline
  compute plus link-model communication accounting, while executing the
  numerics for real (asserted equal to the serial solver).
"""

from repro.distributed.cluster import CommLink, ClusterProfile
from repro.distributed.partition import (
    PartitionedVector,
    split_stages,
)
from repro.distributed.fmmp import DistributedFmmp
from repro.distributed.power import DistributedPowerIteration, DistributedRunReport

__all__ = [
    "CommLink",
    "ClusterProfile",
    "PartitionedVector",
    "split_stages",
    "DistributedFmmp",
    "DistributedPowerIteration",
    "DistributedRunReport",
]
