"""Correctness oracle: every Get must return a value once written to its key.

The oracle remembers, per key, every value ever written to it (the
preload value and every Set issued since, counted from the moment the
Set is issued, so a Get racing an in-flight Set may return either).  A
Get that returns nothing for a preloaded key, or returns a value never
written to that key, is a failure.  Size-only workloads compare sizes;
workloads with real bytes compare bytes.
"""

from __future__ import annotations

from typing import Dict, List

#: outcomes of one checked Get
OK = "ok"
NOT_FOUND = "not_found"
WRONG_VALUE = "wrong_value"


class ValueOracle:
    """Per-key record of every value written (sizes or bytes)."""

    def __init__(self, keys, preload, sized: bool):
        self.sized = sized
        self.written: Dict[str, List[object]] = {
            key: [value] for key, value in zip(keys, preload)
        }

    def wrote(self, key: str, value) -> None:
        """Record a Set of ``value`` (size or bytes) as it is issued."""
        candidates = self.written.setdefault(key, [])
        if not any(value is seen for seen in candidates):
            candidates.append(value)

    def check(self, key: str, payload) -> str:
        """Classify a Get's returned payload (``None`` is a miss)."""
        if payload is None:
            return NOT_FOUND
        seen = payload.size if self.sized else payload.data
        for candidate in self.written.get(key, ()):
            if seen == candidate:
                return OK
        return WRONG_VALUE
