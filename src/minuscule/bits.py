"""Small helpers for subsets stored as integer bit masks."""

from __future__ import annotations

from typing import Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_string(mask: int, width: int) -> str:
    """Render ``mask`` as a left-to-right 0/1 string of length ``width``,
    position 0 first; bits at or above ``width`` are dropped."""
    if width == 0:
        return ""
    return format(mask & ((1 << width) - 1), f"0{width}b")[::-1]
