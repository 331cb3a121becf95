"""Payload abstraction: real bytes or size-only descriptors.

The functional tests and examples push real bytes end-to-end (Set -> Get
round-trips the exact data; erasure decode reconstructs it).  The paper's
large experiments, however, move tens of gigabytes (e.g. Figure 10: 40
clients x 1 GB), which would exhaust host memory if every simulated value
held real bytes.  A :class:`Payload` therefore carries a mandatory size
and *optional* data; every timing path uses only the size, so results are
identical either way, and the resilience schemes do real coding whenever
data is present.
"""

from __future__ import annotations

import zlib
from typing import Optional


class Payload:
    """An immutable value of known size, with or without materialized bytes."""

    __slots__ = ("size", "data", "_checksum")

    def __init__(
        self,
        size: int,
        data: Optional[bytes] = None,
        checksum: Optional[int] = None,
    ):
        """``checksum`` memoizes a CRC32 the caller has just computed
        over exactly ``data`` (never a stored or expected value), so
        :meth:`checksum` need not compute it again."""
        if size < 0:
            raise ValueError("payload size must be >= 0")
        if data is not None and len(data) != size:
            raise ValueError(
                "data length %d does not match declared size %d"
                % (len(data), size)
            )
        self.size = size
        self.data = data
        self._checksum: Optional[int] = checksum if data is not None else None

    @classmethod
    def from_bytes(cls, data: bytes) -> "Payload":
        """A payload carrying real bytes."""
        return cls(len(data), data)

    @classmethod
    def sized(cls, size: int) -> "Payload":
        """A size-only payload for timing/accounting-scale experiments."""
        return cls(size)

    @property
    def has_data(self) -> bool:
        """Whether real bytes are attached (vs size-only)."""
        return self.data is not None

    def checksum(self) -> Optional[int]:
        """CRC32 of the data, or ``None`` for size-only payloads.

        Cached: payloads are immutable, and replicated Sets hand the same
        object to several servers, each of which checksums it.
        """
        if self.data is None:
            return None
        if self._checksum is None:
            self._checksum = zlib.crc32(self.data)
        return self._checksum

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Payload):
            return NotImplemented
        return self.size == other.size and self.data == other.data

    def __hash__(self):  # pragma: no cover - payloads are not dict keys
        return hash((self.size, self.data))

    def __repr__(self) -> str:
        kind = "bytes" if self.has_data else "sized"
        return "Payload(%d, %s)" % (self.size, kind)
