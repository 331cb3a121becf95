"""Scheme interface and shared request/wait helpers."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Generator, List, Sequence, Tuple

from repro.common.payload import Payload
from repro.simulation import Event
from repro.store.arpe import OpMetrics
from repro.store.protocol import Response
from repro.store.result import ErrorCode, OpResult

#: Fixed cost of selecting/validating an alternate live server after a
#: failure is observed — the paper's ``T_check`` (Equation 4).
T_CHECK = 5.0e-6

#: Client-side cost of staging a request payload into a registered buffer
#: and posting the verb, per byte and per post.
POST_OVERHEAD = 0.3e-6
COPY_PER_BYTE = 2.0e-11


class SchemeError(Exception):
    """A resilience scheme could not complete an operation."""


#: Schemes return typed results; kept as an alias so scheme signatures
#: read the same as before the tuple -> OpResult migration.
SchemeResult = OpResult


class ResilienceScheme(ABC):
    """Strategy object deciding how Set/Get touch the server cluster.

    ``set``/``get`` are generator methods driven inside a client process
    (blocking API) or an ARPE runner (non-blocking API).  They return an
    :class:`OpResult` and record phase times into the given
    :class:`OpMetrics` (whose ``span``, when tracing, parents the
    scheme's ``post``/``wait``/``encode``/``decode`` phase spans).
    """

    name: str = ""

    #: how many simultaneous server failures the scheme survives
    tolerated_failures: int = 0

    #: bytes stored cluster-wide per byte of user data
    storage_overhead: float = 1.0

    def install(self, cluster) -> None:
        """Bind to a cluster (register server-side handlers if needed)."""
        self.cluster = cluster

    def prepare_server(self, server) -> None:
        """Install this scheme's handlers on a server joining after
        :meth:`install` ran (elastic scale-out).  Default: nothing."""

    @abstractmethod
    def set(self, client, key: str, value: Payload, metrics: OpMetrics) -> Generator:
        """Store ``value`` resiliently; yields sim events, returns a result."""

    @abstractmethod
    def get(self, client, key: str, metrics: OpMetrics) -> Generator:
        """Fetch the value for ``key``; yields sim events, returns a result."""

    # -- batched ops ---------------------------------------------------------
    def multi_set(
        self,
        client,
        items: Sequence[Tuple[str, Payload]],
        metrics: OpMetrics,
    ) -> Generator:
        """Store a batch of (key, value) pairs; returns ``{key: OpResult}``.

        Default: drive each key sequentially through :meth:`set` inside
        the one ARPE window slot the batch occupies.  Schemes with
        client-side coding override this with a pipelined fan-out that
        posts every key's requests before waiting on any of them.
        """
        results: Dict[str, OpResult] = {}
        for key, value in items:
            results[key] = yield from self.set(client, key, value, metrics)
        return results

    def multi_get(
        self, client, keys: Sequence[str], metrics: OpMetrics
    ) -> Generator:
        """Fetch a batch of keys; returns ``{key: OpResult}``.

        Default sequential fallback, as for :meth:`multi_set`.
        """
        results: Dict[str, OpResult] = {}
        for key in keys:
            results[key] = yield from self.get(client, key, metrics)
        return results

    # -- shared helpers ------------------------------------------------------
    @staticmethod
    def post_cost(size: int) -> float:
        """Client CPU time to stage + post one request of ``size`` bytes."""
        return POST_OVERHEAD + size * COPY_PER_BYTE

    @staticmethod
    def charge_post(client, metrics: OpMetrics, size: int) -> Event:
        """Charge the issue cost for one post, attributing it to Request."""
        cost = ResilienceScheme.post_cost(size)
        metrics.request_time += cost
        if client.tracer.enabled:
            client.tracer.record(
                client.name,
                "post",
                start=client.sim.now,
                duration=cost,
                category="post",
                parent=metrics.span,
                size=size,
            )
        return client.compute(cost)

    @staticmethod
    def wait_each(client, metrics: OpMetrics, events: List[Event]) -> Generator:
        """Wait for all request events, attributing elapsed time to Wait.

        Unreachable destinations arrive as ``ok=False`` responses (see
        :func:`repro.store.protocol.issue_request`), so this never raises.
        """
        sim = client.sim
        start = sim._now
        results: List[Response] = []
        for event in events:
            response = yield event
            results.append(response)
        elapsed = sim._now - start
        metrics.wait_time += elapsed
        if client.tracer.enabled:
            client.tracer.record(
                client.name,
                "wait",
                start=start,
                duration=elapsed,
                category="wait",
                parent=metrics.span,
                responses=len(results),
            )
        return results

    @staticmethod
    def charge_encode(client, metrics: OpMetrics, seconds: float) -> Event:
        """Charge client-side encode compute, with an ``encode`` span."""
        metrics.encode_time += seconds
        if client.tracer.enabled:
            client.tracer.record(
                client.name,
                "encode",
                start=client.sim.now,
                duration=seconds,
                category="encode",
                parent=metrics.span,
            )
        return client.compute(seconds)

    @staticmethod
    def charge_decode(client, metrics: OpMetrics, seconds: float) -> Event:
        """Charge client-side decode compute, with a ``decode`` span."""
        metrics.decode_time += seconds
        if client.tracer.enabled:
            client.tracer.record(
                client.name,
                "decode",
                start=client.sim.now,
                duration=seconds,
                category="decode",
                parent=metrics.span,
            )
        return client.compute(seconds)

    # -- result helpers ------------------------------------------------------
    @staticmethod
    def ok_result(value: Payload = None) -> OpResult:
        """Shorthand for a successful :class:`OpResult`."""
        return OpResult.success(value)

    @staticmethod
    def error_result(error, message: str = "") -> OpResult:
        """Shorthand for a failed :class:`OpResult` (code or wire string)."""
        return OpResult.failure(error, message)


__all__ = [
    "COPY_PER_BYTE",
    "ErrorCode",
    "OpResult",
    "POST_OVERHEAD",
    "ResilienceScheme",
    "SchemeError",
    "SchemeResult",
    "T_CHECK",
]
