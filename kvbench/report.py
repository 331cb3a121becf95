"""Run a workload's rounds and turn them into the reported metrics."""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from kvbench.rounds import RoundResult, peak_rss_mib, run_round
from kvbench.spans import SpanRecorder
from kvbench.workloads import Inputs, WorkloadSpec

#: (name, unit) of every end-to-end metric, printed with --trace 0
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("get_p50_us", "vus"),
    ("get_p99_us", "vus"),
    ("set_p50_us", "vus"),
    ("set_p99_us", "vus"),
    ("vthroughput_kops", "kops/vs"),
    ("mem_amplification", "ratio"),
)

#: (name, unit) of every per-layer metric, printed with --trace 1
PER_LAYER = (
    ("simulation.events_per_op", "count"),
    ("simulation.self_us_per_op", "us"),
    ("network.messages_per_op", "count"),
    ("network.bytes_per_op", "B"),
    ("network.unreachable_per_op", "count"),
    ("network.self_us_per_op", "us"),
    ("store.client.self_us_per_op", "us"),
    ("store.server.self_us_per_op", "us"),
    ("store.hashring.self_us_per_op", "us"),
    ("store.slab.self_us_per_op", "us"),
    ("store.slab.evictions", "count"),
    ("store.arpe.window_wait_us.p99", "vus"),
    ("resilience.scheme.self_us_per_op", "us"),
    ("resilience.degraded_reads_per_get", "count"),
    ("resilience.repair.keys", "count"),
    ("resilience.repair.read_amplification", "ratio"),
    ("resilience.repair.self_us_per_key", "us"),
    ("redundancy_restore_ms", "vms"),
    ("ec.encode_bytes_per_op", "B"),
    ("ec.decode_bytes_per_op", "B"),
    ("ec.encode_self_us_per_op", "us"),
    ("ec.decode_self_us_per_op", "us"),
    ("ec.encode_mbps", "MB/s"),
    ("ec.decode_mbps", "MB/s"),
    ("common.crc_bytes_per_op", "B"),
    ("common.crc_self_us_per_op", "us"),
    ("stripes.slice_read_ratio", "ratio"),
    ("stripes.sealed_per_kop", "count"),
    ("stripes.journal_writes_per_set", "count"),
    ("stripes.self_us_per_op", "us"),
    ("scrub.verifies_per_kop", "count"),
    ("scrub.bytes_read_per_op", "B"),
    ("scrub.spurious_repairs", "count"),
    ("scrub.self_us_per_op", "us"),
    ("bench.self_us_per_op", "us"),
    ("core.build_s", "s"),
    ("core.preload_s", "s"),
    ("fail_ratio", "ratio"),
    ("trace.self_us_per_op", "us"),
    ("trace.overhead_ratio", "ratio"),
)


#: no round starts unless it is expected to end this many wall seconds
#: after the run began (a run must end within 180 s on a slow host)
WALL_LIMIT_S = 150.0


def round_count(spec: WorkloadSpec, seconds: float, trace: bool) -> int:
    """Rounds in a run of ``seconds``: at least one, two when tracing."""
    return max(2 if trace else 1, round(seconds / spec.round_s))


def run_rounds(
    inputs: Inputs,
    seconds: float,
    trace: bool,
    started: float,
    recorder: Optional[SpanRecorder] = None,
) -> List[RoundResult]:
    """Replay the workload in :func:`round_count` fresh rounds.

    The count depends only on the workload and ``seconds``, so a seed
    always gives the same attempted and failed operations.  Tracing
    alternates untraced and traced rounds, untraced first.  A host too
    slow to finish in :data:`WALL_LIMIT_S` gets fewer rounds.
    """
    target = round_count(inputs.spec, seconds, trace)
    minimum = 2 if trace else 1
    rounds: List[RoundResult] = []
    longest = 0.0
    while len(rounds) < target:
        now = perf_counter()
        if len(rounds) >= minimum and now - started + longest > WALL_LIMIT_S:
            print("kvbench: host too slow, stopping after %d of %d rounds"
                  % (len(rounds), target), file=sys.stderr)
            break
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(inputs, recorder if traced else None))
        longest = max(longest, perf_counter() - now)
    return rounds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _virtual_mismatch(rounds: List[RoundResult]) -> List[str]:
    first = rounds[0].virtual
    bad = set()
    for r in rounds[1:]:
        for name in set(first) | set(r.virtual):
            if first.get(name) != r.virtual.get(name):
                bad.add(name)
    return sorted(bad)


def end_to_end(inputs: Inputs, rounds: List[RoundResult]) -> Dict[str, float]:
    untraced = [r for r in rounds if not r.traced]
    v = rounds[0].virtual
    return {
        "ops_per_s": statistics.median(r.ops_per_s for r in untraced),
        "setup_s": statistics.median(r.setup_s for r in untraced),
        "peak_rss_mib": peak_rss_mib(),
        "get_p50_us": v["get_p50_us"],
        "get_p99_us": v["get_p99_us"],
        "set_p50_us": v["set_p50_us"],
        "set_p99_us": v["set_p99_us"],
        "vthroughput_kops": v["vthroughput_kops"],
        "mem_amplification": v["mem_amplification"],
    }


def per_layer(inputs: Inputs, rounds: List[RoundResult]) -> Dict[str, float]:
    spec = inputs.spec
    ops = spec.measured_ops
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    v = rounds[0].virtual

    def self_us(layer: str) -> float:
        return statistics.median(
            r.self_ns[layer] / r.measure_slowdown for r in traced
        ) / 1e3

    def span_bytes(name: str) -> int:
        return traced[0].span_bytes.get(name, 0)

    def mbps(name: str, layer: str) -> float:
        return _ratio(span_bytes(name), self_us(layer))

    stripe_reads = (
        v["stripes.slice_reads"] + v["stripes.journal_reads"]
        + v["stripes.buffer_serves"] + v["stripes.degraded_reads"]
    )
    repair_keys = v.get("repair_keys", 0)
    attempted = sum(r.attempted for r in rounds)
    return {
        "simulation.events_per_op": v["events"] / ops,
        "simulation.self_us_per_op": self_us("simulation") / ops,
        "network.messages_per_op": v["fabric.messages"] / ops,
        "network.bytes_per_op": v["fabric.bytes_sent"] / ops,
        "network.unreachable_per_op": v["fabric.unreachable"] / ops,
        "network.self_us_per_op": self_us("network") / ops,
        "store.client.self_us_per_op": self_us("store.client") / ops,
        "store.server.self_us_per_op": self_us("store.server") / ops,
        "store.hashring.self_us_per_op": self_us("store.hashring") / ops,
        "store.slab.self_us_per_op": self_us("store.slab") / ops,
        "store.slab.evictions": v["slab_evictions"],
        "store.arpe.window_wait_us.p99": v["arpe_window_wait_p99_us"],
        "resilience.scheme.self_us_per_op": self_us("resilience.scheme") / ops,
        "resilience.degraded_reads_per_get": v["reads.degraded"] / spec.gets,
        "resilience.repair.keys": repair_keys,
        "resilience.repair.read_amplification": _ratio(
            v.get("repair_read_bytes", 0), v.get("repair_bytes", 0)
        ),
        "resilience.repair.self_us_per_key": _ratio(
            self_us("resilience.recovery"), repair_keys
        ),
        "redundancy_restore_ms": v.get("redundancy_restore_ms", 0.0),
        "ec.encode_bytes_per_op": span_bytes("ec.encode_bytes") / ops,
        "ec.decode_bytes_per_op": span_bytes("ec.decode_bytes") / ops,
        "ec.encode_self_us_per_op": self_us("ec.encode") / ops,
        "ec.decode_self_us_per_op": self_us("ec.decode") / ops,
        "ec.encode_mbps": mbps("ec.encode_bytes", "ec.encode"),
        "ec.decode_mbps": mbps("ec.decode_bytes", "ec.decode"),
        "common.crc_bytes_per_op": span_bytes("common.crc_bytes") / ops,
        "common.crc_self_us_per_op": self_us("common.crc") / ops,
        "stripes.slice_read_ratio": _ratio(
            v["stripes.slice_reads"], stripe_reads
        ),
        "stripes.sealed_per_kop": v["stripes.sealed"] * 1e3 / ops,
        "stripes.journal_writes_per_set": v["stripes.journal_writes"] / spec.sets,
        "stripes.self_us_per_op": self_us("stripes") / ops,
        "scrub.verifies_per_kop": v["scrub.chunks_verified"] * 1e3 / ops,
        "scrub.bytes_read_per_op": v["scrub.bytes_read"] / ops,
        "scrub.spurious_repairs": (
            v["scrub.repairs_triggered"] - v["scrub.corrupt_found"]
        ),
        "scrub.self_us_per_op": self_us("scrub") / ops,
        "bench.self_us_per_op": self_us("bench") / ops,
        "core.build_s": statistics.median(r.build_s for r in untraced),
        "core.preload_s": statistics.median(r.preload_s for r in untraced),
        "fail_ratio": _ratio(sum(r.failed for r in rounds), attempted),
        "trace.self_us_per_op": self_us("trace") / ops,
        "trace.overhead_ratio": (
            statistics.median(r.ops_per_s for r in traced)
            / statistics.median(r.ops_per_s for r in untraced)
        ),
    }


def virtual_digest(virtual: Dict[str, float]) -> str:
    """SHA-256 of a round's virtual-time results, for comparing runs."""
    text = json.dumps(virtual, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def build_report(
    inputs: Inputs, seconds: float, trace: bool, started: float
) -> Tuple[dict, dict]:
    """Run the rounds; return (details, result) for the two output lines."""
    recorder = SpanRecorder() if trace else None
    rounds = run_rounds(inputs, seconds, trace, started, recorder)
    mismatch = _virtual_mismatch(rounds)
    wrong = sum(r.wrong_values for r in rounds)
    evictions = rounds[0].virtual["slab_evictions"]
    problems = []
    if mismatch:
        problems.append(
            "virtual-time results differ between rounds: %s" % ", ".join(mismatch)
        )
    if wrong:
        problems.append("%d Gets returned a value never written" % wrong)
    if evictions:
        problems.append("%d slab evictions (data must fit)" % evictions)
    for problem in problems:
        print("kvbench: %s" % problem, file=sys.stderr)

    values = per_layer(inputs, rounds) if trace else end_to_end(inputs, rounds)
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    first = rounds[0]
    details = {
        "workload": inputs.spec.name,
        "seed": inputs.seed,
        "trace": trace,
        "rounds": len(rounds),
        "traced_rounds": sum(1 for r in rounds if r.traced),
        "samples": {
            "ops_per_s": sum(1 for r in rounds if not r.traced),
            "setup_s": sum(1 for r in rounds if not r.traced),
            "get_latency": first.get_samples,
            "set_latency": first.set_samples,
            "measured_ops": first.ops,
        },
        "ops_per_s_by_round": [round(r.ops_per_s, 3) for r in rounds],
        "raw_ops_per_s_by_round": [round(r.raw_ops_per_s, 3) for r in rounds],
        "measure_slowdown_by_round": [
            round(r.measure_slowdown, 4) for r in rounds
        ],
        "setup_s_by_round": [round(r.setup_s, 4) for r in rounds],
        "setup_slowdown_by_round": [round(r.setup_slowdown, 4) for r in rounds],
        "traced_by_round": [r.traced for r in rounds],
        "failures": {
            name: first.virtual[name]
            for name in ("not_found", "wrong_value", "errors", "failed_sets")
        },
        "problems": problems,
        "virtual_digest": virtual_digest(first.virtual),
    }
    if trace:
        last = [r for r in rounds if r.traced][-1]
        details["spans_per_round"] = last.span_counts
        details["self_ns_last_traced_round"] = last.self_ns
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    return details, result
