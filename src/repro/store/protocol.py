"""Wire-level request/response records and pending-request routing.

Both clients and servers (which talk to peer servers in the server-side
erasure designs) multiplex requests and responses over one endpoint inbox;
:class:`PendingTable` matches responses back to the event a caller is
waiting on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.payload import Payload
from repro.simulation import Event, Simulator

#: Fixed serialized header cost for requests and responses.
REQUEST_HEADER = 48
RESPONSE_HEADER = 48

TAG_REQUEST = "req"
TAG_RESPONSE = "resp"

#: Shared sentinel for "no metadata".  Most requests and responses carry
#: no meta at all; giving each one its own empty dict was a measurable
#: slice of per-op allocation at scale.  Treat it as immutable — writers
#: must go through :func:`meta_setdefault` (or replace ``.meta`` with a
#: private dict) so a stray write can never leak to every other record.
EMPTY_META: Dict[str, Any] = {}


def meta_setdefault(record, key: str, value) -> None:
    """``record.meta.setdefault(key, value)`` with copy-on-write.

    When ``record.meta`` is the shared :data:`EMPTY_META` sentinel it is
    swapped for a private single-entry dict instead of being mutated.
    """
    meta = record.meta
    if meta is EMPTY_META:
        record.meta = {key: value}
    else:
        meta.setdefault(key, value)


class Request:
    """A client -> server (or server -> server) operation."""

    __slots__ = ("op", "key", "req_id", "reply_to", "value", "meta")

    def __init__(
        self,
        op: str,
        key: str,
        req_id: int,
        reply_to: str,
        value: Optional[Payload] = None,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.op = op
        self.key = key
        self.req_id = req_id
        self.reply_to = reply_to
        self.value = value
        self.meta = EMPTY_META if meta is None else meta

    def replace(self, **changes) -> "Request":
        """A shallow copy with ``changes`` applied (dataclasses.replace
        for a slotted record)."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Request(**fields)

    def __repr__(self) -> str:
        return "Request(op=%r, key=%r, req_id=%r, reply_to=%r)" % (
            self.op,
            self.key,
            self.req_id,
            self.reply_to,
        )

    def wire_size(self) -> int:
        size = REQUEST_HEADER + len(self.key)
        if self.value is not None:
            size += self.value.size
        return size


class Response:
    """The server's answer; ``ok=False`` carries an error code."""

    __slots__ = ("req_id", "ok", "server", "value", "error", "meta")

    def __init__(
        self,
        req_id: int,
        ok: bool,
        server: str,
        value: Optional[Payload] = None,
        error: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.req_id = req_id
        self.ok = ok
        self.server = server
        self.value = value
        self.error = error
        self.meta = EMPTY_META if meta is None else meta

    def replace(self, **changes) -> "Response":
        """A shallow copy with ``changes`` applied."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(changes)
        return Response(**fields)

    def __repr__(self) -> str:
        return "Response(req_id=%r, ok=%r, server=%r, error=%r)" % (
            self.req_id,
            self.ok,
            self.server,
            self.error,
        )

    def wire_size(self) -> int:
        size = RESPONSE_HEADER
        if self.value is not None:
            size += self.value.size
        return size


def issue_request(
    fabric,
    pending: "PendingTable",
    request: Request,
    dst: str,
    span=None,
    timeout: Optional[float] = None,
    on_timeout=None,
    waiter: Optional[Event] = None,
) -> Event:
    """Send ``request`` and return an event firing with its :class:`Response`.

    Used by both the client library and servers talking to peers.  If the
    fabric reports the destination unreachable, the waiter completes with
    an ``ok=False`` / ``ERR_UNREACHABLE`` response — failures are data,
    so callers can fail over without exception plumbing.  ``span``
    parents the fabric's transfer span under the caller's operation span.

    ``timeout`` arms a per-request deadline: if no response has landed
    within that many seconds, the waiter completes with an ``ok=False`` /
    ``ERR_TIMEOUT`` response and the real response, should it ever
    arrive, is dropped as a late packet.  ``on_timeout(request)`` fires
    only when the deadline actually expired an outstanding request.

    ``waiter`` accepts a pre-registered completion event (from
    :meth:`PendingTable.register`) so callers that delay the send — e.g.
    a token-bucket pacer — can hand the waiter out before the request
    actually hits the wire.
    """
    if waiter is None:
        waiter = pending.register(request.req_id)
    send_event = fabric.send(
        request.reply_to,  # the requester replies-to itself: that is the src
        dst,
        request.wire_size(),
        request,
        TAG_REQUEST,
        False,
        span,
    )
    send_event.callbacks.append(pending.on_send)
    send_event.defuse()

    if timeout is not None:
        timer = fabric.sim.timeout(timeout)

        def _expire(_event: Event) -> None:
            expired = pending.complete(
                Response(
                    req_id=request.req_id,
                    ok=False,
                    server=dst,
                    error=ERR_TIMEOUT,
                )
            )
            if expired and on_timeout is not None:
                on_timeout(request)

        timer.callbacks.append(_expire)
    return waiter


ERR_NOT_FOUND = "NOT_FOUND"
ERR_OUT_OF_MEMORY = "OUT_OF_MEMORY"
ERR_UNKNOWN_OP = "UNKNOWN_OP"
ERR_SERVER = "SERVER_ERROR"
ERR_UNREACHABLE = "UNREACHABLE"
ERR_CORRUPT = "CORRUPT"
ERR_TIMEOUT = "TIMEOUT"
ERR_BUSY = "SERVER_BUSY"


class PendingTable:
    """Outstanding request registry: req_id -> completion event."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._pending: Dict[int, Event] = {}
        #: send-completion callback for :func:`issue_request`, bound once
        self.on_send = self._on_send

    def _on_send(self, event: Event) -> None:
        # An undeliverable request fails its waiter as an UNREACHABLE
        # response; the fabric's error carries the request and its dst.
        if not event._ok:
            error = event._value
            self.complete(
                Response(
                    req_id=error.payload.req_id,
                    ok=False,
                    server=error.dst,
                    error=ERR_UNREACHABLE,
                )
            )

    def __len__(self) -> int:
        return len(self._pending)

    def register(self, req_id: int) -> Event:
        """Create the completion event for an outgoing request id."""
        if req_id in self._pending:
            raise ValueError("duplicate outstanding req_id %d" % req_id)
        event = self.sim.event()
        self._pending[req_id] = event
        return event

    def complete(self, response: Response) -> bool:
        """Fire the waiter for this response; ``False`` if none is pending.

        Late responses (e.g. the waiter already failed over) are dropped,
        like packets for a closed connection.
        """
        event = self._pending.pop(response.req_id, None)
        if event is None:
            return False
        event.succeed(response)
        return True

    def fail(self, req_id: int, error: BaseException) -> bool:
        """Fail the waiter (e.g. destination unreachable)."""
        event = self._pending.pop(req_id, None)
        if event is None:
            return False
        event.fail(error)
        return True

    def forget(self, waiter: Event) -> bool:
        """Drop a waiter the caller no longer cares about.

        Used to abandon a fetch that lost a hedge race: the response, if
        it ever arrives, is then discarded as a late packet.  Returns
        ``False`` when the waiter already completed (or was never
        registered).  Linear in outstanding requests, which stays small.
        """
        for req_id, event in self._pending.items():
            if event is waiter:
                del self._pending[req_id]
                return True
        return False
