"""Panel/stage-split index math shared by every partitioned butterfly.

One layout, two consumers: the global vector of length ``N = 2^ν`` is
split into ``R = 2^r`` contiguous blocks whose *high* ``r`` index bits
select the block.  Under it, butterfly stages whose footprint fits one
block are embarrassingly parallel and the top stages pair data across
blocks:

* :class:`repro.distributed.partition.PartitionedVector` uses it for
  simulated ranks (cross stages = hypercube exchanges);
* :mod:`repro.transforms.parallel` uses it for shared-memory worker
  panels (cross stages = partner-panel reads).

Kept in :mod:`repro.bitops` because it is pure index math with no
dependencies — both the distributed and the transforms layer import it
without cycles.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.util.validation import check_power_of_two

__all__ = ["panel_bounds", "split_stages", "stage_is_local"]


def panel_bounds(n: int, panels: int, p: int) -> tuple[int, int]:
    """Global index range ``[lo, hi)`` of contiguous panel ``p`` of
    ``panels`` (the high ``log₂(panels)`` bits select the panel)."""
    if not 0 <= p < panels:
        raise ValidationError(f"panel index {p} out of range for {panels} panels")
    return p * n // panels, (p + 1) * n // panels


def split_stages(nu: int, panels: int) -> tuple[int, int]:
    """``(local, cross)`` radix-2 stage counts for ``panels = 2^r`` blocks.

    The bottom ``ν − r`` butterfly stages act entirely inside a block
    (span ``< N/R``); the top ``r`` stages pair elements across blocks —
    rank exchanges in the distributed engine, partner-panel reads in the
    shared-memory engine.
    """
    check_power_of_two(panels, "panels")
    r = panels.bit_length() - 1
    if r > nu:
        raise ValidationError(f"{panels} panels need at least {panels} rows (nu={nu})")
    return nu - r, r


def stage_is_local(span: int, radix: int, n: int, panels: int) -> bool:
    """Whether a (possibly fused) stage of footprint ``radix·span`` keeps
    every butterfly group inside one of ``panels`` contiguous blocks."""
    return radix * span <= n // panels
