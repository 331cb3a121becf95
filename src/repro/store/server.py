"""The Memcached server process.

Each server owns a slab cache, a pool of worker threads (a simulated
resource — CPU phases contend for it), and a dispatcher that drains the
network inbox.  Built-in handlers implement ``set``/``get``/``delete``;
the server-side erasure designs (Era-SE-*) register additional op handlers
via :meth:`MemcachedServer.register_handler` and use the server's embedded
request path (its ARPE, in the paper's terms) to talk to peer servers.

A failed server loses its endpoint *and* its memory contents — Memcached
is volatile, which is the entire premise of the paper.
"""

from __future__ import annotations

import itertools
import zlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Optional

from repro.common.payload import Payload
from repro.ec.cost_model import CodingCostModel
from repro.network.fabric import Fabric, Message
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.overload.admission import (
    LANE_BG,
    LANE_FG,
    SHED,
    AdmissionController,
)
from repro.simulation import Event, Resource, Simulator
from repro.store import protocol
from repro.store.plan import ServerPlan
from repro.store.protocol import PendingTable, Request, Response
from repro.store.slab import SlabCache

#: Base CPU cost of parsing a request and probing the hash table.
REQUEST_PARSE_CPU = 0.5e-6
#: CPU cost per payload byte touched (copy into/out of slab memory).
COPY_CPU_PER_BYTE = 2.0e-11
#: CPU cost per byte of checksum verification (hardware CRC32C rate).
CHECKSUM_CPU_PER_BYTE = 5.0e-11

#: Bound on the remembered-cancellation set: cancels for requests that
#: never arrive (already served, lost on a dead link) age out FIFO.
CANCEL_SET_LIMIT = 1024

Handler = Callable[["MemcachedServer", Request], Generator]


class RequestCancelled(Exception):
    """The client cancelled this request; abort service without replying."""


class MemcachedServer:
    """One RDMA-Memcached server instance in the simulated cluster."""

    def __init__(
        self,
        sim: Simulator,
        fabric: Fabric,
        name: str,
        memory_limit: int,
        worker_threads: int = 8,
        cost_model: Optional[CodingCostModel] = None,
        verify_on_read: bool = True,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.fabric = fabric
        self.name = name
        self.tracer = tracer or NULL_TRACER
        self.metrics = metrics or MetricsRegistry()
        self.memory_limit = memory_limit
        # Flyweight state: the slab cache (~40 slab classes) and the
        # queue-depth histogram materialize on first touch, so the
        # thousands of servers in a scale soak that never store a byte or
        # queue a request cost almost nothing to build or keep around.
        self._cache: Optional[SlabCache] = None
        self._queue_depth_hist = None
        self.endpoint = fabric.add_node(name)
        #: verify stored checksums on every Get (detects bit rot; a
        #: corrupt item is reported so the resilience layer can recover
        #: it from replicas or parity chunks)
        self.verify_on_read = verify_on_read
        self.corruption_detected = 0
        self.workers = Resource(sim, worker_threads)
        self.cost_model = cost_model or CodingCostModel()
        self.cpu_speed = fabric.profile.cpu_speed_factor
        # Per-request CPU constants, resolved once: request parsing, plus
        # the per-message host CPU the transport implies (IPoIB only).
        self._parse_cpu = REQUEST_PARSE_CPU / self.cpu_speed
        self._recv_cpu_per_message = fabric.profile.recv_cpu_per_message
        self._recv_cpu_per_byte = fabric.profile.recv_cpu_per_byte
        #: multiplier applied to every CPU charge — a chaos engine models
        #: a gray "slow node" by raising it above 1.0 for a while.
        self.cpu_throttle = 1.0
        #: optional deadline for this server's requests to peer servers
        #: (the embedded ARPE); ``None`` keeps peers waiting forever.
        self.peer_timeout = None
        self.handlers: Dict[str, Handler] = {}
        self.pending = PendingTable(sim)
        self._req_seq = itertools.count(1)
        #: newest membership epoch this server has observed (stamped into
        #: heartbeat replies; requests carrying an older epoch are counted
        #: so migration lag is visible in the metrics)
        self.epoch = 0
        self.alive = True
        self.requests_handled = 0
        self.peer_requests_sent = 0
        #: optional admission controller (see :meth:`enable_admission`);
        #: ``None`` keeps the legacy queue-forever behavior.
        self.admission: Optional[AdmissionController] = None
        #: cancelled-request keys ``(reply_to, op, key)`` → bounded FIFO
        self._cancelled: "OrderedDict[tuple, bool]" = OrderedDict()
        #: optional callback(key, value_len) invoked after a successful
        #: store — the Boldio burst buffer hooks its async flusher here.
        self.on_store = None
        # Plan-resolved hot-path switches.  Standalone servers keep every
        # protection on (the historical behavior); a cluster with a
        # Features config narrows them via apply_plan().
        self._cancellable = True
        self._check_stale = True
        self._track_epoch = True
        self._stamp_crc = True
        self._service_name = "%s.req" % name
        #: built-in ops; they fold the parse cost into their own CPU
        #: charge (one worker-thread hold, one timeout per request)
        self._builtin_ops = {
            "set": self._op_set,
            "get": self._op_get,
            "delete": self._op_delete,
            "ping": self._op_ping,
        }
        self.endpoint.on_message = self._on_message

    @property
    def cache(self) -> SlabCache:
        """The slab cache, materialized on first use."""
        cache = self._cache
        if cache is None:
            cache = self._cache = SlabCache(
                self.memory_limit,
                metrics=self.metrics,
                metric_prefix="slab.%s" % self.name,
            )
        return cache

    @property
    def _queue_depth(self):
        """The queue-depth histogram, materialized on first contention."""
        hist = self._queue_depth_hist
        if hist is None:
            hist = self._queue_depth_hist = self.metrics.histogram(
                "server.%s.queue_depth" % self.name
            )
        return hist

    def apply_plan(self, plan: ServerPlan) -> None:
        """Adopt a compiled :class:`ServerPlan` (cluster feature recompile).

        Resolves, once, everything the request loop would otherwise probe
        per message: admission control, cancel bookkeeping, CRC
        stamp/verify, the stale-write guard and epoch tracking.
        """
        if plan.admission is not None:
            if self.admission is None:
                self.enable_admission(
                    max_queue=plan.admission.max_queue,
                    bg_max_queue=plan.admission.bg_max_queue,
                    sojourn_deadline=plan.admission.sojourn_deadline,
                )
        else:
            self.admission = None
        self.verify_on_read = plan.verify_on_read
        self._stamp_crc = plan.integrity
        self._cancellable = plan.cancellable
        self._check_stale = plan.check_stale
        self._track_epoch = plan.track_epoch

    # -- lifecycle ----------------------------------------------------------
    def fail(self) -> None:
        """Crash the node: unreachable, and DRAM contents are gone."""
        self.alive = False
        self.endpoint.fail()
        if self._cache is not None:  # nothing stored -> nothing to lose
            self._cache.wipe()

    def recover(self) -> None:
        """Bring the node back empty (cold restart)."""
        self.alive = True
        self.endpoint.recover()

    def corrupt_item(self, key: str, byte_offset: int = 0) -> bool:
        """Test hook: flip one byte of a stored item (simulated bit rot)."""
        item = self.cache.peek(key)
        if item is None or item.data is None:
            return False
        data = bytearray(item.data)
        data[byte_offset % len(data)] ^= 0xFF
        item.data = bytes(data)
        return True

    # -- extension hook -------------------------------------------------------
    def register_handler(self, op: str, handler: Handler) -> None:
        """Attach a handler for a scheme-specific op (e.g. ``se_set``)."""
        if op in self.handlers:
            raise ValueError("handler for op %r already registered" % op)
        self.handlers[op] = handler

    def unregister_handler(self, op: str) -> None:
        """Detach a previously registered op handler (no-op when absent)."""
        self.handlers.pop(op, None)

    # -- overload protection --------------------------------------------------
    def enable_admission(
        self,
        max_queue: int = 64,
        bg_max_queue: int = 16,
        sojourn_deadline: float = 0.02,
        slots: Optional[int] = None,
    ) -> AdmissionController:
        """Turn on bounded-queue admission control for this server.

        ``slots`` defaults to the worker-thread count, so the admission
        controller becomes the *only* queue in front of the workers: an
        admitted request always finds an uncontended worker.
        """
        self.admission = AdmissionController(
            self.sim,
            slots=slots or self.workers.capacity,
            max_queue=max_queue,
            bg_max_queue=bg_max_queue,
            sojourn_deadline=sojourn_deadline,
            metrics=self.metrics,
            name=self.name,
            depth_histogram=self._queue_depth,
        )
        return self.admission

    def note_cancel(self, reply_to: str, op: str, key: str) -> None:
        """Remember a client's cancellation of ``(reply_to, op, key)``.

        Matching is by identity of the work, not req_id: the canceller
        (a hedged read's winner path, or a gather that already has k
        chunks) holds only the waiter event, whose req_id it cannot
        reach.  One remembered cancel absorbs exactly one request.
        """
        self.metrics.counter("server.cancels_received").inc()
        self._cancelled[(reply_to, op, key)] = True
        while len(self._cancelled) > CANCEL_SET_LIMIT:
            self._cancelled.popitem(last=False)

    def _consume_cancel(self, request: Request) -> bool:
        key = (request.reply_to, request.op, request.key)
        return self._cancelled.pop(key, False)

    # -- CPU accounting -------------------------------------------------------
    def cpu(
        self, seconds: float, request: Optional[Request] = None
    ) -> Generator:
        """Occupy one worker thread for ``seconds`` of compute.

        ``seconds`` must already reflect this cluster's CPU speed (the
        coding cost model is constructed with the profile's speed factor);
        this method only adds worker-thread contention.

        Passing the ``request`` being served makes the phase cancellable:
        if the client cancelled it (hedge loser, satisfied gather), the
        phase raises :class:`RequestCancelled` *after* securing the
        worker — so the release in the finally block always balances —
        and before burning the compute.
        """
        if seconds <= 0:
            return
        seconds *= self.cpu_throttle
        workers = self.workers
        req = workers.request()
        if not req.processed:  # uncontended grants need no suspension
            self._queue_depth.observe(workers.queued)
            yield req
        try:
            if (
                request is not None
                and self._cancellable
                and self._consume_cancel(request)
            ):
                raise RequestCancelled(request.key)
            yield self.sim.timeout(seconds)
        finally:
            contended = workers.queued > 0
            workers.release(req)
            if contended:
                self._queue_depth.observe(workers.queued)

    def next_req_id(self) -> int:
        """Allocate a request id (shared by KV and Lustre traffic)."""
        return next(self._req_seq)

    # -- embedded client path (the server's ARPE) ------------------------------
    def send_request(
        self,
        dst: str,
        op: str,
        key: str,
        value: Optional[Payload] = None,
        meta: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """Issue a non-blocking request to a peer server.

        Returns an event that fires with the :class:`Response`, or fails
        with ``NodeUnreachableError`` if the peer is down.  ``timeout``
        overrides this server's :attr:`peer_timeout` for one request —
        the SWIM prober arms much tighter deadlines than data transfers.
        """
        request = Request(
            op=op,
            key=key,
            req_id=next(self._req_seq),
            reply_to=self.name,
            value=value,
            # peer callers hand over per-request dicts; metaless requests
            # share the EMPTY_META sentinel instead of allocating one each
            meta=meta,
        )
        self.peer_requests_sent += 1
        return protocol.issue_request(
            self.fabric,
            self.pending,
            request,
            dst,
            timeout=timeout if timeout is not None else self.peer_timeout,
        )

    # -- dispatch ---------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        # Direct dispatch at delivery time (no inbox/dispatcher process).
        payload = message.payload
        if isinstance(payload, Response):
            if (
                self._stamp_crc
                and payload.ok
                and payload.value is not None
                and payload.value.has_data
            ):
                # Same end-to-end integrity check the client performs:
                # a peer response mangled in flight (e.g. a chunk fetched
                # during server-side decode) must surface as a typed
                # CORRUPT failure, never as silently accepted bytes.
                expected = payload.meta.get("crc")
                if (
                    expected is not None
                    and payload.value.checksum() != expected
                ):
                    self.metrics.counter("server.corrupt_responses").inc()
                    # the corrupt original is discarded; its meta can be
                    # handed to the rewrap without a copy
                    payload = Response(
                        req_id=payload.req_id,
                        ok=False,
                        server=payload.server,
                        error=protocol.ERR_CORRUPT,
                        meta=payload.meta,
                    )
            self.pending.complete(payload)
        elif isinstance(payload, Request):
            if payload.op == "cancel":
                # Pure bookkeeping: no service process, no reply.
                self.note_cancel(
                    payload.reply_to,
                    payload.meta.get("op", "get"),
                    payload.key,
                )
                return
            self.sim.process(
                self._handle_request(payload, message.size),
                name=(
                    "%s.%s" % (self.name, payload.op)
                    if self.tracer.enabled
                    else self._service_name
                ),
            )

    def _handle_request(self, request: Request, message_size: int) -> Generator:
        self.requests_handled += 1
        cancellable = self._cancellable
        if cancellable and self._consume_cancel(request):
            # Cancelled before service even began (e.g. a retransmit of
            # a request whose original already satisfied the client).
            self.metrics.counter("server.cancelled_drops").inc()
            return
        admission = self.admission
        granted_at = self.sim.now
        if admission is not None:
            lane = LANE_BG if request.meta.get("lane") == "bg" else LANE_FG
            ticket = admission.offer(lane)
            if ticket is None:
                self._send_busy(request)
                return
            outcome = ticket.value if ticket.processed else (yield ticket)
            if outcome == SHED:
                self._send_busy(request)
                return
            granted_at = self.sim.now
            if cancellable and self._consume_cancel(request):
                # Cancelled while queued: the slot was granted an instant
                # ago and nothing ran yet, so hand it straight back.
                self.metrics.counter("server.cancelled_drops").inc()
                admission.release(0.0)
                return
        span = (
            self.tracer.span(
                self.name,
                "service:%s" % request.op,
                category="server-service",
                key=request.key,
            )
            if self.tracer.enabled
            else NULL_SPAN
        )
        base_cpu = self._parse_cpu + (
            self._recv_cpu_per_message
            + message_size * self._recv_cpu_per_byte
        )

        try:
            op = request.op
            handler = self.handlers.get(op)
            if handler is not None:
                yield from self.cpu(base_cpu, request)
                try:
                    response = yield from handler(self, request)
                except RequestCancelled:
                    raise
                except Exception as exc:  # noqa: BLE001 - to wire error
                    response = Response(
                        req_id=request.req_id,
                        ok=False,
                        server=self.name,
                        error="%s: %s" % (protocol.ERR_SERVER, exc),
                    )
            else:
                if self._track_epoch:
                    req_epoch = request.meta.get("epoch")
                    if req_epoch is not None and req_epoch != self.epoch:
                        self.metrics.counter("server.epoch_mismatch").inc()
                builtin = self._builtin_ops.get(op, self._op_unknown)
                response = yield from builtin(request, base_cpu)
        except RequestCancelled:
            # The client gave up mid-service; no reply owed, no further
            # CPU burned on zombie work.
            self.metrics.counter("server.cancelled_aborts").inc()
            span.finish(cancelled=True)
            return
        finally:
            if admission is not None:
                admission.release(self.sim.now - granted_at)

        if response is None:
            span.finish(replied="async")
            return  # handler replied on its own
        span.finish(ok=response.ok)

        if admission is not None:
            # Piggyback the backlog so clients' brownout controllers see
            # server pressure without a separate health channel.  The
            # response meta may be the shared sentinel or alias a stored
            # item's meta (the Get path), so stamping always copies.
            meta = dict(response.meta)
            meta["qd"] = admission.backlog
            response.meta = meta

        send_event = self.fabric.send(
            self.name, request.reply_to, response.wire_size(), response,
            protocol.TAG_RESPONSE,
        )
        send_event.defuse()  # a dead client simply never hears back

    def _send_busy(self, request: Request) -> None:
        """Reject with a typed SERVER_BUSY plus a deterministic retry hint.

        The whole point of admission control is that saying *no* costs
        near-zero CPU: no worker is held, no service process survives
        this call.
        """
        self.metrics.counter("server.busy_rejects").inc()
        admission = self.admission
        response = Response(
            req_id=request.req_id,
            ok=False,
            server=self.name,
            error=protocol.ERR_BUSY,
            meta={
                "retry_after": admission.retry_after(),
                "qd": admission.backlog,
            },
        )
        send_event = self.fabric.send(
            self.name,
            request.reply_to,
            size=response.wire_size(),
            payload=response,
            tag=protocol.TAG_RESPONSE,
        )
        send_event.defuse()

    def store_item(self, key: str, value_len: int, data, meta) -> bool:
        """Store into the slab cache, notifying the on_store hook."""
        stored = self.cache.set(key, value_len, data=data, meta=meta)
        if stored and self.on_store is not None:
            self.on_store(key, value_len)
        return stored

    def is_stale_write(self, key: str, meta) -> bool:
        """Whether ``meta`` carries an older write version than what is
        stored under ``key``.

        Version-carrying writes are last-writer-wins: a delayed replay
        (duplicate delivery, a retry whose original eventually landed, a
        slow coordinator finishing after a newer overwrite) must never
        clobber newer bytes — that is how an acknowledged write would
        silently vanish.
        """
        ver = (meta or {}).get("ver")
        if ver is None:
            return False
        existing = self.cache.peek(key)
        if existing is None or not existing.meta:
            return False
        current = existing.meta.get("ver")
        return current is not None and ver < current

    # -- built-in ops ---------------------------------------------------------
    def _op_ping(self, request: Request, base_cpu: float = 0.0) -> Generator:
        # heartbeat: parse-cost only, epoch echoed for the detector
        yield from self.cpu(base_cpu)
        return Response(
            req_id=request.req_id,
            ok=True,
            server=self.name,
            meta={"epoch": self.epoch},
        )

    def _op_unknown(self, request: Request, base_cpu: float = 0.0) -> Generator:
        yield from self.cpu(base_cpu)
        return Response(
            req_id=request.req_id,
            ok=False,
            server=self.name,
            error=protocol.ERR_UNKNOWN_OP,
        )

    def _op_set(self, request: Request, base_cpu: float = 0.0) -> Generator:
        value = request.value
        if value is None:
            value = Payload.sized(0)
        cpu_cost = base_cpu + value.size * COPY_CPU_PER_BYTE / self.cpu_speed
        # the request's meta is stored as-is; only the CRC-stamping path
        # below needs a private copy to write into
        meta = request.meta
        if self._stamp_crc and value.has_data:
            # end-to-end integrity: checksum computed at ingest
            cpu_cost += value.size * CHECKSUM_CPU_PER_BYTE / self.cpu_speed
            # Cached on the Payload: a replicated Set hands the same object
            # to every replica server, so only the first one pays the CRC.
            actual = value.checksum()
            expected = meta.get("crc")
            if expected is not None and actual != expected:
                # The sender stamped a checksum and the bytes that arrived
                # do not match: in-flight corruption.  Refuse the write so
                # a poisoned chunk is never acknowledged; the client
                # retransmits.
                yield from self.cpu(cpu_cost)
                self.corruption_detected += 1
                return Response(
                    req_id=request.req_id,
                    ok=False,
                    server=self.name,
                    error=protocol.ERR_CORRUPT,
                )
            meta = dict(meta)
            meta["crc"] = actual
        yield from self.cpu(cpu_cost)
        if self._check_stale and self.is_stale_write(request.key, meta):
            # A newer version is already stored: acknowledge without
            # writing (the sender's intent is long superseded).  The
            # ``stale`` marker lets repair paths skip relocation
            # bookkeeping for a write that did not actually land.
            self.metrics.counter("writes.stale_dropped").inc()
            return Response(
                req_id=request.req_id,
                ok=True,
                server=self.name,
                meta={"stale": True},
            )
        stored = self.store_item(
            request.key, value.size, data=value.data, meta=meta
        )
        return Response(
            req_id=request.req_id,
            ok=stored,
            server=self.name,
            error="" if stored else protocol.ERR_OUT_OF_MEMORY,
        )

    def _op_get(self, request: Request, base_cpu: float = 0.0) -> Generator:
        item = self.cache.get(request.key)
        if item is None:
            yield from self.cpu(base_cpu)
            return Response(
                req_id=request.req_id,
                ok=False,
                server=self.name,
                error=protocol.ERR_NOT_FOUND,
            )
        verified = None
        crc = None
        if (
            self.verify_on_read
            and item.data is not None
            and "crc" in item.meta
        ):
            yield from self.cpu(
                base_cpu
                + item.value_len * CHECKSUM_CPU_PER_BYTE / self.cpu_speed,
                request,
            )
            base_cpu = 0.0
            verified = item.data
            crc = zlib.crc32(verified)
            if crc != item.meta["crc"]:
                # bit rot: drop the poisoned item and tell the client,
                # which recovers from a replica or parity chunk
                self.corruption_detected += 1
                self.cache.delete(request.key)
                return Response(
                    req_id=request.req_id,
                    ok=False,
                    server=self.name,
                    error=protocol.ERR_CORRUPT,
                )
        yield from self.cpu(
            base_cpu + item.value_len * COPY_CPU_PER_BYTE / self.cpu_speed,
            request,
        )
        # The CRC just computed rides along as the payload's memoized
        # checksum, so the requester's end-to-end check does not hash the
        # same bytes again — unless they were replaced during the copy
        # phase.  A payload mangled in flight is a fresh Payload without
        # the memo, so the requester still recomputes and catches it.
        data = item.data
        value = Payload(
            item.value_len, data, crc if data is verified else None
        )
        # the stored meta is aliased into the response (read-only by
        # contract; the one writer, admission's qd stamp, copies first)
        return Response(
            req_id=request.req_id,
            ok=True,
            server=self.name,
            value=value,
            meta=item.meta,
        )

    def _op_delete(self, request: Request, base_cpu: float = 0.0) -> Generator:
        yield from self.cpu(base_cpu)  # hash probe is in the base cost
        removed = self.cache.delete(request.key)
        return Response(
            req_id=request.req_id,
            ok=removed,
            server=self.name,
            error="" if removed else protocol.ERR_NOT_FOUND,
        )
