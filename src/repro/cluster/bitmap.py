"""Instance-placement bitmaps (Section 4.2.2).

After a node split the owner worker knows, for each instance on the node,
whether it goes to the left or right child.  Encoding the boolean placement
as one bit per instance shrinks the broadcast by 32x compared to shipping
4-byte instance ids — the optimization that makes vertical partitioning's
``ceil(N/8) * W * L`` communication bound (Section 3.1.3) hold.
"""

from __future__ import annotations

import numpy as np


def encode_placement(go_left: np.ndarray) -> bytes:
    """Pack a boolean placement array into bytes (big-endian bit order)."""
    go_left = np.asarray(go_left, dtype=bool)
    return np.packbits(go_left).tobytes()


def decode_placement(payload: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_placement` for ``count`` instances; the
    payload must be exactly ``bitmap_nbytes(count)`` bytes."""
    if len(payload) != bitmap_nbytes(count):
        raise ValueError(
            f"payload holds {len(payload) * 8} bits, {count} requested"
        )
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                         count=count)
    return bits.astype(bool)


def bitmap_nbytes(count: int) -> int:
    """``ceil(count / 8)`` — the size used in the Section 3.1.3 bound."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return (count + 7) // 8
