"""Vertex sets as integer bitmasks.

Every vertex set in this package is a plain Python int whose bit i is set
iff vertex i belongs to the set.  The solvers cap graphs at 64 vertices
(cover.CAP) and the subset tables at 20 (cover.TABLE_MAX_N); nothing
here depends on either cap.
"""

from typing import Iterator, List


def mask_of(vertices) -> int:
    """Build a mask from an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> List[int]:
    return list(bits(mask))


def lowest_bit(mask: int) -> int:
    """Index of the least significant set bit.  mask must be nonzero."""
    return (mask & -mask).bit_length() - 1
