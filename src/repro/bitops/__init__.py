"""Bit-level machinery for binary RNA sequences.

Sequence ``X_i`` is identified with the binary encoding of the integer
``i`` (zero-based, LSB = site 0).  Everything the paper does with
Hamming distances, error classes ``Γ_{k,i}`` and XOR offsets lives here.
"""

from repro.bitops.popcount import (
    popcount,
    hamming_distance,
    distance_to_master,
    hamming_matrix,
)
from repro.bitops.classes import (
    error_class_indices,
    error_class_labels,
    error_class_sizes,
    error_class_representatives,
    masks_by_popcount,
    masks_up_to_distance,
)
from repro.bitops.graycode import gray_code, gray_permutation, inverse_permutation
from repro.bitops.panels import split_stages

__all__ = [
    "popcount",
    "hamming_distance",
    "distance_to_master",
    "hamming_matrix",
    "error_class_indices",
    "error_class_labels",
    "error_class_sizes",
    "error_class_representatives",
    "masks_by_popcount",
    "masks_up_to_distance",
    "gray_code",
    "gray_permutation",
    "inverse_permutation",
    "split_stages",
]
