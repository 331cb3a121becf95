"""Rounds: build, preload, warm up, then measure one workload.

A run is a sequence of rounds.  Every round builds a fresh cluster from
the same inputs and replays the same operations, so every round does the
same virtual-time work: its virtual-time metrics and counts must match
the first round's exactly (a check the run enforces), while its wall
times are independent samples whose median the run reports.

Clients are closed-loop simulated processes inside the one simulator:
each issues its next operation only when the previous one completed.
"""

from __future__ import annotations

import gc
import math
import resource
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from repro import Payload, build_cluster
from repro.common.stats import percentile
from repro.core.features import Features
from repro.resilience.recovery import RepairManager
from repro.store.client import KVStoreError

from kvbench.check import NOT_FOUND, WRONG_VALUE, ValueOracle
from kvbench.pace import Reference, run_sliced
from kvbench.spans import Instrumentation, SpanRecorder, timed_resumes
from kvbench.workloads import CLIENTS, Inputs

#: preload clients; each keeps its Sets in flight through the ARPE window
LOADERS = 4
LOADER_WINDOW = 16

#: virtual seconds of background work after the measured phase (seal
#: timers, scrubber exit) before the memory footprint is read
SETTLE_S = 0.1

#: cluster counters whose measured-phase delta every round reports
COUNTERS = (
    "fabric.messages",
    "fabric.bytes_sent",
    "fabric.unreachable",
    "reads.degraded",
    "stripes.sealed",
    "stripes.journal_writes",
    "stripes.slice_reads",
    "stripes.journal_reads",
    "stripes.buffer_serves",
    "stripes.degraded_reads",
    "scrub.chunks_verified",
    "scrub.corrupt_found",
    "scrub.repairs_triggered",
    "scrub.bytes_read",
)


@dataclass
class Tally:
    """Outcomes and virtual latencies of one phase's operations."""

    get_latency: List[float] = field(default_factory=list)
    set_latency: List[float] = field(default_factory=list)
    attempted: int = 0
    not_found: int = 0
    wrong_value: int = 0
    errors: int = 0
    failed_sets: int = 0

    @property
    def failed(self) -> int:
        return self.not_found + self.wrong_value + self.errors + self.failed_sets


@dataclass
class RoundResult:
    """One round: wall-clock samples plus its exact virtual signature."""

    traced: bool
    #: wall seconds in the program, and the host's slowdown against the
    #: nominal host over the same phase (see kvbench.pace)
    build_wall_s: float
    preload_wall_s: float
    setup_slowdown: float
    measured_wall_s: float
    measure_slowdown: float
    ops: int
    #: everything virtual-time or counted; identical across rounds
    virtual: Dict[str, float]
    attempted: int
    failed: int
    wrong_values: int
    get_samples: int
    set_samples: int
    #: per-layer self time (ns) and span-side byte counts (traced only)
    self_ns: Dict[str, int] = field(default_factory=dict)
    span_counts: Dict[str, int] = field(default_factory=dict)
    span_bytes: Dict[str, int] = field(default_factory=dict)

    # wall-clock figures below are scaled to the nominal host

    @property
    def build_s(self) -> float:
        return self.build_wall_s / self.setup_slowdown

    @property
    def preload_s(self) -> float:
        return self.preload_wall_s / self.setup_slowdown

    @property
    def setup_s(self) -> float:
        return self.build_s + self.preload_s

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.measured_wall_s * self.measure_slowdown

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.measured_wall_s


def features_for(inputs: Inputs) -> Features:
    spec = inputs.spec
    config = Features()
    if spec.stripes:
        config.with_small_object_stripes()
    if spec.scrub_period:
        config.with_scrubbing(
            scan_period=spec.scrub_period, seed=inputs.seed
        )
    return config


def _payload(value, sized: bool) -> Payload:
    return Payload.sized(value) if sized else Payload.from_bytes(value)


def _preload(cluster, inputs: Inputs, tally: Tally, reference: Reference) -> float:
    """Set every key through loader clients; returns simulator wall seconds."""
    sized = inputs.sized
    loaders = [
        cluster.add_client(name_hint="loader", window=LOADER_WINDOW)
        for _ in range(LOADERS)
    ]
    handles = []

    def load(index: int, client):
        mine = [
            client.iset(inputs.keys[i], _payload(inputs.preload[i], sized))
            for i in range(index, len(inputs.keys), LOADERS)
        ]
        handles.extend(mine)
        yield client.wait(mine)

    sim = cluster.sim
    procs = [sim.process(load(i, c)) for i, c in enumerate(loaders)]
    wall = run_sliced(
        sim, sim.all_of(procs), inputs.spec.preload_slice, reference
    )
    tally.attempted += len(handles)
    tally.failed_sets += sum(1 for h in handles if not h.result.ok)
    return wall


def client_loop(client, ops, oracle: ValueOracle, tally: Tally, sized: bool):
    """One closed-loop client: issue, wait, check, record, repeat."""
    sim = client.sim
    get_latency = tally.get_latency
    set_latency = tally.set_latency
    for is_get, key, value in ops:
        tally.attempted += 1
        start = sim.now
        if is_get:
            try:
                got = yield from client.get(key)
            except KVStoreError:
                tally.errors += 1
            else:
                outcome = oracle.check(key, got)
                if outcome is NOT_FOUND:
                    tally.not_found += 1
                elif outcome is WRONG_VALUE:
                    tally.wrong_value += 1
            get_latency.append(sim.now - start)
        else:
            oracle.wrote(key, value)
            try:
                stored = yield from client.set(key, _payload(value, sized))
            except KVStoreError:
                stored = False
            if not stored:
                tally.failed_sets += 1
            set_latency.append(sim.now - start)


def _snapshot(cluster) -> Dict[str, float]:
    """Counters and gauges at one instant of the simulation."""
    registry = cluster.metrics
    out = {name: registry.counter(name).value for name in COUNTERS}
    out["events"] = cluster.sim.processed_events
    out["now"] = cluster.sim.now
    out["slab_evictions"] = cluster.total_evictions
    return out


def run_round(inputs: Inputs, recorder: Optional[SpanRecorder] = None) -> RoundResult:
    """Build, preload, warm up and measure once; trace iff ``recorder``."""
    spec = inputs.spec
    sized = inputs.sized
    reference = Reference()
    instrumentation = None
    if recorder is not None:
        recorder.clear()
        instrumentation = Instrumentation(recorder)
        # before the build: clients and servers bind their delivery
        # hooks at construction
        instrumentation.install()
    try:
        gc.collect()
        start = perf_counter()
        cluster = build_cluster(
            scheme="era-ce-cd",
            servers=spec.servers,
            k=3,
            m=2,
            config=features_for(inputs),
        )
        build_wall = perf_counter() - start
        reference.unit()
        setup_tally = Tally()
        preload_wall = _preload(cluster, inputs, setup_tally, reference)
        setup_slowdown = reference.slowdown
        sim = cluster.sim
        window_wait = cluster.metrics.histogram("arpe.window_wait").samples
        window_wait_p99 = percentile(window_wait, 99) if window_wait else 0.0

        oracle = ValueOracle(inputs.keys, inputs.preload, sized)
        clients = [
            cluster.add_client(name_hint="ycsb") for _ in range(CLIENTS)
        ]
        warm = Tally()
        procs = [
            sim.process(client_loop(c, ops, oracle, warm, sized))
            for c, ops in zip(clients, inputs.warmup)
        ]
        sim.run(sim.all_of(procs))

        measured = Tally()
        gc.collect()
        reference.reset()
        before = _snapshot(cluster)
        waits = []
        repair = None
        repair_done: Dict[str, float] = {}
        if inputs.victim is not None:
            cluster.fail_servers([inputs.victim])
            repair = RepairManager(cluster, cluster.scheme)
            waits.append(sim.process(_repair(repair, inputs, repair_done)))
        if cluster.scrubber is not None:
            cluster.scrubber.start(math.inf)
        for client, ops in zip(clients, inputs.measured):
            loop = client_loop(client, ops, oracle, measured, sized)
            if recorder is not None:
                loop = timed_resumes(recorder, recorder.layer_id["bench"], loop)
            waits.append(sim.process(loop))
        done = sim.all_of(waits)
        after: Dict[str, float] = {}
        # the phase ends when the last operation does, mid-slice
        done.callbacks.append(lambda _event: after.update(_snapshot(cluster)))
        if recorder is not None:
            recorder.active = True
        measured_wall = run_sliced(sim, done, spec.measure_slice, reference)
        if recorder is not None:
            recorder.active = False
        # let background work settle before reading the memory footprint:
        # stop the scrubber, let open stripes seal
        if cluster.scrubber is not None:
            cluster.scrubber.uninstall()
        sim.run(until=sim.now + SETTLE_S)
        settled_amplification = cluster.memory_overhead_ratio()
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()

    v0 = before["now"]
    ops = spec.measured_ops
    virtual = {
        "get_p50_us": percentile(measured.get_latency, 50) * 1e6,
        "get_p99_us": percentile(measured.get_latency, 99) * 1e6,
        "set_p50_us": percentile(measured.set_latency, 50) * 1e6,
        "set_p99_us": percentile(measured.set_latency, 99) * 1e6,
        "vthroughput_kops": ops / ((after["now"] - v0) * 1e3),
        "mem_amplification": settled_amplification,
        "slab_evictions": after["slab_evictions"],
        "arpe_window_wait_p99_us": window_wait_p99 * 1e6,
        "not_found": measured.not_found + warm.not_found,
        "wrong_value": measured.wrong_value + warm.wrong_value,
        "errors": measured.errors + warm.errors,
        "failed_sets": measured.failed_sets + warm.failed_sets + setup_tally.failed_sets,
    }
    for name in COUNTERS + ("events",):
        virtual[name] = after[name] - before[name]
    if repair is not None:
        virtual["repair_keys"] = repair.repaired_keys
        virtual["repair_bytes"] = repair.repaired_bytes
        virtual["repair_read_bytes"] = repair.bytes_read_for_repair
        virtual["redundancy_restore_ms"] = (repair_done["at"] - v0) * 1e3
    result = RoundResult(
        traced=recorder is not None,
        build_wall_s=build_wall,
        preload_wall_s=preload_wall,
        setup_slowdown=setup_slowdown,
        measured_wall_s=measured_wall,
        measure_slowdown=reference.slowdown,
        ops=ops,
        virtual=virtual,
        attempted=setup_tally.attempted + warm.attempted + measured.attempted,
        failed=setup_tally.failed + warm.failed + measured.failed,
        wrong_values=measured.wrong_value + warm.wrong_value,
        get_samples=len(measured.get_latency),
        set_samples=len(measured.set_latency),
    )
    if recorder is not None:
        result.self_ns = recorder.self_times_ns()
        result.span_counts = recorder.span_counts()
        result.span_bytes = dict(recorder.counts)
    return result


def _repair(repair: RepairManager, inputs: Inputs, done: Dict[str, float]):
    yield from repair.repair_server(inputs.victim, list(inputs.keys))
    done["at"] = repair.sim.now


def peak_rss_mib() -> float:
    """Peak resident set of this process (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
