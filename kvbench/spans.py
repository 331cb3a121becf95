"""In-memory span recorder and the layer wrappers of a traced run.

A span is one timed call into a layer: ``(layer, outer_start, start,
end, outer_end, parent)``.  ``start``/``end`` bound the layer's own code;
``outer_start``/``outer_end`` also cover the wrapper's recording work
around it.  Spans are appended to flat arrays while the measured phase
runs and turned into per-layer self times once the phase is over.  The
self time of a span is its inner duration minus the outer durations of
its direct child spans, and each span's recording work (outer minus
inner duration) is charged to the ``trace`` pseudo-layer.  So every
nanosecond of a root span is charged to exactly one layer, and the cost
of wrapping a child is not charged to its caller.

Wrappers are installed only for a traced round (:meth:`Instrumentation.
install`) and removed after it (:meth:`Instrumentation.uninstall`); an
untraced round runs the program's own functions with nothing in between.
Calls are timed around each call.  Generator entry points (scheme
Set/Get, client Set/Get, server service processes, background loops) are
timed per resume of the returned generator, so a span never includes
virtual-time waiting.
"""

from __future__ import annotations

import zlib
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: every layer a span can be charged to, in report order
LAYERS = (
    "simulation",
    "bench",
    "network",
    "store.client",
    "store.server",
    "store.hashring",
    "store.slab",
    "resilience.scheme",
    "resilience.recovery",
    "ec.encode",
    "ec.decode",
    "common.crc",
    "stripes",
    "scrub",
    # recording work of the wrappers themselves
    "trace",
)


class SpanRecorder:
    """Flat, append-only span storage with a stack of open spans."""

    def __init__(self):
        self.layers = LAYERS
        self.layer_id = {name: i for i, name in enumerate(self.layers)}
        #: spans are recorded only while this is set (the measured phase)
        self.active = False
        self.clear()

    def clear(self) -> None:
        """Drop every recorded span and count."""
        self.layer = array("b")
        self.parent = array("l")
        self.outer_start = array("q")
        self.start = array("q")
        self.end = array("q")
        self.outer_end = array("q")
        self._stack: List[int] = []
        #: byte counts gathered at the same boundaries as the spans
        self.counts: Dict[str, int] = {}

    def open(self, layer_id: int, outer_start: int) -> int:
        """Open a span whose wrapper was entered at ``outer_start`` (ns)."""
        index = len(self.layer)
        stack = self._stack
        self.layer.append(layer_id)
        self.parent.append(stack[-1] if stack else -1)
        self.outer_start.append(outer_start)
        self.end.append(0)
        self.outer_end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                "span %d closed while span %d was innermost" % (index, top)
            )
        self.outer_end[index] = perf_counter_ns()

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times_ns(self) -> Dict[str, int]:
        """Total self time per layer (ns), recording work under ``trace``.

        A span's self time is its inner duration minus the outer
        durations of its direct children; its own recording work (outer
        minus inner duration) goes to ``trace``.  The totals add up to
        the outer durations of the root spans.
        """
        if self._stack:
            raise RuntimeError("%d spans still open" % len(self._stack))
        n = len(self.layer)
        child = [0] * n
        outer_start, start = self.outer_start, self.start
        end, outer_end, parent = self.end, self.outer_end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += outer_end[i] - outer_start[i]
        totals = [0] * len(self.layers)
        trace = self.layer_id["trace"]
        layer = self.layer
        for i in range(n):
            inner = end[i] - start[i]
            totals[layer[i]] += inner - child[i]
            totals[trace] += outer_end[i] - outer_start[i] - inner
        return dict(zip(self.layers, totals))

    def span_counts(self) -> Dict[str, int]:
        """How many spans each layer recorded."""
        totals = [0] * len(self.layers)
        for layer_id in self.layer:
            totals[layer_id] += 1
        return dict(zip(self.layers, totals))


def timed_call(
    rec: SpanRecorder,
    layer: str,
    fn: Callable,
    count: Optional[Tuple[str, Callable]] = None,
) -> Callable:
    """Wrap a plain function: one span per call.

    ``count`` is ``(name, measure)``: each recorded call also adds
    ``measure(*args)`` (e.g. the bytes it processes) to ``rec.counts``.
    """
    layer_id = rec.layer_id[layer]

    def wrapper(*args, **kwargs):
        outer_start = perf_counter_ns()
        if not rec.active:
            return fn(*args, **kwargs)
        if count is not None:
            rec.add(count[0], count[1](*args, **kwargs))
        index = rec.open(layer_id, outer_start)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def timed_resumes(rec: SpanRecorder, layer_id: int, gen):
    """Delegate to ``gen``, timing each resume as one span.

    Yields exactly what ``gen`` yields and forwards sends, throws and
    close, so the simulation sees the same events in the same order.
    """
    value = None
    error: Optional[BaseException] = None
    while True:
        outer_start = perf_counter_ns()
        index = rec.open(layer_id, outer_start) if rec.active else -1
        try:
            if error is None:
                target = gen.send(value)
            else:
                target = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if index >= 0:
                rec.close(index)
        try:
            value = yield target
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, as yield from does
            value = None
            error = exc


def timed_generator(rec: SpanRecorder, layer: str, fn: Callable) -> Callable:
    """Wrap a generator function: one span per resume of each generator."""
    layer_id = rec.layer_id[layer]

    def wrapper(*args, **kwargs):
        return timed_resumes(rec, layer_id, fn(*args, **kwargs))

    return wrapper


class Instrumentation:
    """Installs and removes the layer wrappers around one traced round."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self._saved: list = []

    def _patch(self, owner, attr: str, make: Callable) -> None:
        had_own = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, had_own, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        """Wrap every layer's entry points (classes and ``zlib.crc32``)."""
        if self._saved:
            raise RuntimeError("instrumentation already installed")
        from repro.ec.base import ErasureCodec
        from repro.membership.epoch import RingView
        from repro.network.fabric import Fabric
        from repro.resilience.erasure import EraCECD, ErasureScheme
        from repro.resilience.recovery import RepairManager
        from repro.scrub.scrubber import Scrubber
        from repro.simulation.engine import Simulator
        from repro.store.client import KVClient
        from repro.store.hashring import HashRing
        from repro.store.server import MemcachedServer
        from repro.store.slab import SlabCache
        from repro.stripes.scheme import StripedScheme

        rec = self.rec
        patch = self._patch

        def call(layer):
            return lambda fn: timed_call(rec, layer, fn)

        def gen(layer):
            return lambda fn: timed_generator(rec, layer, fn)

        patch(Simulator, "run", call("simulation"))
        for name in ("send", "rdma_write", "rdma_read"):
            patch(Fabric, name, call("network"))
        patch(KVClient, "get", gen("store.client"))
        patch(KVClient, "set", gen("store.client"))
        patch(KVClient, "request", call("store.client"))
        # the fabric's delivery hook on the client (bound at construction,
        # which is why wrappers go in before the cluster is built)
        patch(KVClient, "_on_message", call("store.client"))
        patch(MemcachedServer, "_on_message", call("store.server"))
        patch(MemcachedServer, "_handle_request", gen("store.server"))
        for owner in (RingView, HashRing):
            for name in ("placement", "primary", "next_alive"):
                patch(owner, name, call("store.hashring"))
        for name in ("get", "set", "peek", "delete"):
            patch(SlabCache, name, call("store.slab"))
        patch(EraCECD, "set", gen("resilience.scheme"))
        patch(EraCECD, "get", gen("resilience.scheme"))
        patch(ErasureScheme, "_client_encode_set", gen("resilience.scheme"))
        patch(ErasureScheme, "_client_decode_get", gen("resilience.scheme"))
        patch(RepairManager, "repair_server", gen("resilience.recovery"))
        patch(ErasureCodec, "encode", lambda fn: timed_call(
            rec, "ec.encode", fn,
            ("ec.encode_bytes", lambda _codec, data: len(data)),
        ))
        patch(ErasureCodec, "decode", lambda fn: timed_call(
            rec, "ec.decode", fn,
            ("ec.decode_bytes", lambda _codec, _chunks, data_len: data_len),
        ))
        patch(zlib, "crc32", lambda fn: timed_call(
            rec, "common.crc", fn,
            ("common.crc_bytes", lambda data, *_start: len(data)),
        ))
        for name in (
            "set", "get", "delete", "_seal_timer", "_seal_process",
            "_compact_process",
        ):
            patch(StripedScheme, name, gen("stripes"))
        patch(Scrubber, "scan_once", gen("scrub"))
        patch(Scrubber, "audit_once", gen("scrub"))

    def uninstall(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
