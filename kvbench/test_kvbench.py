"""The benchmark's own tests: smoke runs, oracle, span arithmetic, determinism.

Run from the repository root with ``python -m pytest kvbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter, perf_counter_ns

import pytest

from repro import Payload
from repro.store.client import KVClient

from kvbench.check import NOT_FOUND, OK, WRONG_VALUE, ValueOracle
from kvbench.rounds import run_round
from kvbench import run
from kvbench.report import (
    END_TO_END,
    PER_LAYER,
    build_report,
    round_count,
    virtual_digest,
)
from kvbench.spans import (
    Instrumentation,
    SpanRecorder,
    timed_resumes,
)
from kvbench.workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SCALE = 0.03


def tiny(name: str, seed: int = 3):
    return generate(WORKLOADS[name].scaled(SCALE), seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_reports_every_metric_with_its_unit(name, trace):
    details, result = build_report(tiny(name), 0.001, trace, perf_counter())
    expected = dict(PER_LAYER if trace else END_TO_END)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(expected)
    for metric, unit in expected.items():
        entry = result["metrics"][metric]
        assert entry["unit"] == unit
        assert isinstance(entry["value"], (int, float))
    if not trace:
        for metric in result["metrics"].values():
            assert metric["value"] > 0
    assert details["samples"]["get_latency"] > 0
    assert details["samples"]["set_latency"] > 0
    if trace:
        assert sum(details["spans_per_round"].values()) > 0
        assert details["self_ns_last_traced_round"]["trace"] > 0


def test_cli_last_line_is_the_result(monkeypatch, capsys):
    spec = WORKLOADS["ycsb-b-sized"]
    monkeypatch.setitem(WORKLOADS, spec.name, spec.scaled(SCALE))
    code = run.main([
        "--workload", spec.name, "--seed", "2", "--seconds", "0.001",
        "--trace", "0",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    details, result = (json.loads(line) for line in lines[-2:])
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in END_TO_END}
    assert len(details["virtual_digest"]) == 64


def test_cli_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "kvbench"
    bench.mkdir()
    for source in (ROOT / "kvbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    out = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "ycsb-b-sized",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_oracle_flags_a_corrupted_get_value():
    value = bytes(range(256)) * 4
    oracle = ValueOracle(["k"], [value], sized=False)
    assert oracle.check("k", Payload.from_bytes(value)) is OK
    corrupted = bytearray(value)
    corrupted[17] ^= 0x40
    assert oracle.check("k", Payload.from_bytes(bytes(corrupted))) is WRONG_VALUE
    assert oracle.check("k", None) is NOT_FOUND
    # a value written to another key is wrong for this one
    other = b"x" * len(value)
    oracle.wrote("j", other)
    assert oracle.check("k", Payload.from_bytes(other)) is WRONG_VALUE
    # once a Set is issued, its value is acceptable (Get may race it)
    oracle.wrote("k", other)
    assert oracle.check("k", Payload.from_bytes(other)) is OK


def test_oracle_compares_sizes_for_sized_workloads():
    oracle = ValueOracle(["k"], [4096], sized=True)
    assert oracle.check("k", Payload.sized(4096)) is OK
    assert oracle.check("k", Payload.sized(4095)) is WRONG_VALUE


def test_round_counts_a_corrupted_get_as_failed(monkeypatch):
    inputs = tiny("ycsb-a-bytes-repair")
    original_get = KVClient.get

    def corrupting_get(self, key):
        payload = yield from original_get(self, key)
        if payload is None or payload.data is None:
            return payload
        return Payload.from_bytes(bytes([payload.data[0] ^ 1]) + payload.data[1:])

    monkeypatch.setattr(KVClient, "get", corrupting_get)
    result = run_round(inputs)
    assert result.wrong_values > 0
    assert result.failed >= result.wrong_values


def _span(rec, layer, outer_start, start, end, outer_end, parent):
    rec.layer.append(rec.layer_id[layer])
    rec.outer_start.append(outer_start)
    rec.start.append(start)
    rec.end.append(end)
    rec.outer_end.append(outer_end)
    rec.parent.append(parent)
    return len(rec.layer) - 1


def test_self_time_subtracts_only_direct_children():
    rec = SpanRecorder()
    root = _span(rec, "simulation", 0, 0, 100, 100, -1)
    net = _span(rec, "network", 10, 10, 40, 40, root)
    _span(rec, "store.slab", 20, 20, 30, 30, net)
    client = _span(rec, "store.client", 50, 50, 90, 90, root)
    _span(rec, "store.client", 60, 60, 70, 70, client)
    totals = rec.self_times_ns()
    assert totals["simulation"] == 100 - 30 - 40
    assert totals["network"] == 30 - 10
    assert totals["store.slab"] == 10
    # nested same-layer spans: 40 - 10 for the outer, 10 for the inner
    assert totals["store.client"] == 30 + 10
    assert totals["trace"] == 0
    assert sum(totals.values()) == 100


def test_recording_work_is_charged_to_trace_not_to_the_caller():
    rec = SpanRecorder()
    # outer bounds: the wrapper's work before start and after end
    root = _span(rec, "simulation", 0, 5, 195, 200, -1)
    server = _span(rec, "store.server", 10, 14, 90, 96, root)
    _span(rec, "store.slab", 20, 23, 40, 42, server)
    _span(rec, "common.crc", 50, 51, 60, 62, server)
    scheme = _span(rec, "resilience.scheme", 100, 102, 180, 185, root)
    _span(rec, "ec.encode", 110, 112, 150, 151, scheme)
    totals = rec.self_times_ns()
    # inner durations minus the children's outer durations
    assert totals["simulation"] == 190 - 86 - 85
    assert totals["store.server"] == 76 - 22 - 12
    assert totals["store.slab"] == 17
    assert totals["common.crc"] == 9
    assert totals["resilience.scheme"] == 78 - 41
    assert totals["ec.encode"] == 38
    # outer minus inner duration of every span
    assert totals["trace"] == 10 + 10 + 5 + 3 + 7 + 3
    assert sum(totals.values()) == 200


def test_generator_resumes_nest_and_sum_to_the_root():
    rec = SpanRecorder()
    rec.active = True

    def inner():
        got = yield "a"
        yield got
        return "done"

    def outer():
        result = yield from timed_resumes(rec, rec.layer_id["resilience.scheme"], inner())
        return result

    root = rec.open(rec.layer_id["simulation"], perf_counter_ns())
    gen = timed_resumes(rec, rec.layer_id["store.client"], outer())
    assert next(gen) == "a"
    assert gen.send("b") == "b"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    rec.close(root)
    assert stop.value.value == "done"
    counts = rec.span_counts()
    assert counts["store.client"] == 3 and counts["resilience.scheme"] == 3
    totals = rec.self_times_ns()
    assert sum(totals.values()) == rec.outer_end[root] - rec.outer_start[root]
    assert totals["trace"] > 0
    assert all(value >= 0 for value in totals.values())


def test_uninstall_restores_every_patched_attribute():
    import zlib

    original_get = KVClient.__dict__["get"]
    original_crc = zlib.crc32
    instrumentation = Instrumentation(SpanRecorder())
    instrumentation.install()
    try:
        assert KVClient.__dict__["get"] is not original_get
        assert zlib.crc32 is not original_crc
    finally:
        instrumentation.uninstall()
    assert KVClient.__dict__["get"] is original_get
    assert zlib.crc32 is original_crc


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_virtual_result(name):
    inputs = tiny(name)
    untraced = run_round(inputs)
    traced = run_round(inputs, SpanRecorder())
    assert traced.virtual == untraced.virtual
    assert traced.self_ns["simulation"] > 0
    assert sum(traced.span_counts.values()) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_and_other_seed_differs(name):
    first = run_round(tiny(name, seed=5)).virtual
    again = run_round(tiny(name, seed=5)).virtual
    other = run_round(tiny(name, seed=6)).virtual
    assert first == again
    assert first != other


def test_round_count_depends_on_the_workload_and_seconds_only():
    spec = WORKLOADS["ycsb-a-bytes-repair"]
    assert round_count(spec, 30, False) == round(30 / spec.round_s)
    assert round_count(spec, 0.001, False) == 1
    assert round_count(spec, 0.001, True) == 2


def test_same_seed_gives_the_same_attempted_and_failed():
    spec = replace(WORKLOADS["ycsb-a-bytes-repair"].scaled(SCALE), round_s=1.0)
    inputs = generate(spec, 5)
    results = [build_report(inputs, 3.0, False, perf_counter())[1]
               for _ in range(2)]
    assert results[0]["attempted"] == results[1]["attempted"]
    assert results[0]["failed"] == results[1]["failed"]
    one_round = build_report(inputs, 1.0, False, perf_counter())[1]
    assert results[0]["attempted"] == 3 * one_round["attempted"]


HASH_SEED_SNIPPET = """
import sys
sys.path[:0] = [%r, %r]
from kvbench.report import virtual_digest
from kvbench.rounds import run_round
from kvbench.workloads import WORKLOADS, generate
for name in sorted(WORKLOADS):
    inputs = generate(WORKLOADS[name].scaled(%r), 5)
    print(name, virtual_digest(run_round(inputs).virtual))
"""


def test_same_seed_repeats_across_processes_and_hash_seeds():
    snippet = HASH_SEED_SNIPPET % (str(ROOT / "src"), str(ROOT), SCALE)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", snippet], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=300,
        )
        outputs.append(out.stdout)
    assert outputs[0] == outputs[1]
    expected = "".join(
        "%s %s\n" % (name, virtual_digest(run_round(tiny(name, seed=5)).virtual))
        for name in sorted(WORKLOADS)
    )
    assert outputs[0] == expected
