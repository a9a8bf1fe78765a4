"""Stage-split index math of the partitioned butterfly.

The global vector of length ``N = 2^ν`` is split into ``R = 2^r``
contiguous blocks whose *high* ``r`` index bits select the block.  Under
it, the butterfly stages whose footprint fits one block are
embarrassingly parallel and the top stages pair data across blocks;
:class:`repro.distributed.partition.PartitionedVector` uses it for
simulated ranks (cross stages = hypercube exchanges).

Kept in :mod:`repro.bitops` because it is pure index math with no
dependencies.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.util.validation import check_power_of_two

__all__ = ["split_stages"]


def split_stages(nu: int, panels: int) -> tuple[int, int]:
    """``(local, cross)`` radix-2 stage counts for ``panels = 2^r`` blocks.

    The bottom ``ν − r`` butterfly stages act entirely inside a block
    (span ``< N/R``); the top ``r`` stages pair elements across blocks
    (rank exchanges in the distributed engine).
    """
    check_power_of_two(panels, "panels")
    r = panels.bit_length() - 1
    if r > nu:
        raise ValidationError(f"{panels} panels need at least {panels} rows (nu={nu})")
    return nu - r, r
