"""Block-partitioned vectors over simulated ranks.

The global vector of length ``N = 2^ν`` is split into ``R = 2^r``
contiguous blocks; block ``k`` holds global indices
``[k·N/R, (k+1)·N/R)``, i.e. the **high** ``r`` bits of the index select
the rank.  This is the layout under which the bottom ``ν − r`` butterfly
stages are rank-local and the top ``r`` stages are single-dimension
hypercube exchanges.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.util.validation import check_power_of_two

__all__ = ["PartitionedVector"]


class PartitionedVector:
    """A length-``N`` float64 vector stored as ``R`` rank blocks."""

    def __init__(self, blocks: list[np.ndarray]):
        r = len(blocks)
        check_power_of_two(r, "number of ranks")
        sizes = {b.shape for b in blocks}
        if len(sizes) != 1:
            raise ValidationError("all rank blocks must have equal length")
        (shape,) = sizes
        if len(shape) != 1:
            raise ValidationError("rank blocks must be one-dimensional")
        check_power_of_two(shape[0], "block length")
        self.blocks = [np.ascontiguousarray(b, dtype=np.float64) for b in blocks]
        self.ranks = r
        self.block_size = shape[0]
        self.n = r * shape[0]

    # ------------------------------------------------------------ builders
    @classmethod
    def scatter(cls, v: np.ndarray, ranks: int) -> "PartitionedVector":
        """Split a global vector into ``ranks`` contiguous blocks."""
        v = np.asarray(v, dtype=np.float64).reshape(-1)
        check_power_of_two(ranks, "ranks")
        if v.size % ranks != 0:
            raise ValidationError(f"vector of length {v.size} not divisible by {ranks} ranks")
        block = v.size // ranks
        return cls([v[k * block : (k + 1) * block].copy() for k in range(ranks)])

    def gather(self) -> np.ndarray:
        """Reassemble the global vector (host-side check/output only)."""
        return np.concatenate(self.blocks)

    def copy(self) -> "PartitionedVector":
        return PartitionedVector([b.copy() for b in self.blocks])

    # ------------------------------------------------------------- queries
    def local_sum(self, fn=None) -> list[float]:
        """Per-rank reduction values (``fn`` defaults to plain sum) —
        what each rank contributes to an allreduce."""
        if fn is None:
            return [float(b.sum()) for b in self.blocks]
        return [float(fn(b)) for b in self.blocks]

    def __len__(self) -> int:
        return self.n
