"""Golden schedule: fixed-seed runs whose event order must never drift.

The simulator's contract includes the order of same-instant events:
``(time, priority, sequence)`` decides which of two events scheduled
for one instant fires first, so any change to how the engine, fabric,
servers, clients or schemes schedule work can silently reorder a run.
Performance work on that event path must keep every simulated run
identical.  Each case here drives a small fixed-seed workload and pins a
SHA-256 over every operation's ``(kind, key, repr(latency))`` plus the
total number of processed events; the literals were computed before the
event path was optimised and must not change.

To print the digests of the current tree::

    PYTHONPATH=src python -m tests.simulation.test_golden_schedule
"""

import hashlib
import random

import pytest

pytest.importorskip("numpy")

from repro import Payload, build_cluster  # noqa: E402
from repro.core.features import Features  # noqa: E402
from repro.store.client import KVStoreError  # noqa: E402
from repro.store.policy import RetryPolicy  # noqa: E402

KEYS = 40
CLIENTS = 4
OPS_PER_CLIENT = 75


def _value(rng: random.Random, sized: bool) -> Payload:
    size = rng.randrange(256, 4096)
    if sized:
        return Payload.sized(size)
    return Payload.from_bytes(rng.randbytes(size))


def _run(
    scheme: str,
    seed: int,
    sized: bool = False,
    crash: bool = False,
    hedge: bool = False,
    servers: int = 6,
) -> str:
    """Preload, run closed-loop clients, return the schedule digest."""
    cluster = build_cluster(
        scheme=scheme, servers=servers, k=3, m=2, config=Features()
    )
    sim = cluster.sim
    rng = random.Random(seed)
    keys = ["g%03d" % i for i in range(KEYS)]

    # preload through the non-blocking (ARPE) path
    loader = cluster.add_client(name_hint="loader", window=8)
    handles = [loader.iset(key, _value(rng, sized)) for key in keys]
    sim.run(loader.wait(handles))

    if crash:
        # degraded reads: lose the first data-chunk holder of key 0
        cluster.fail_servers([cluster.ring.placement(keys[0], 5)[0]])
    policy = None
    if hedge:
        # a low cutoff plus one slow node make the adaptive hedge timer
        # win some races (and lose others)
        policy = RetryPolicy(
            hedge=True,
            hedge_min_samples=10,
            hedge_percentile=0.5,
            hedge_multiplier=1.2,
        )
        cluster.servers["server-2"].cpu_throttle = 30.0

    log = []

    def client_loop(client, ops):
        for is_get, key, value in ops:
            start = sim.now
            if is_get:
                try:
                    got = yield from client.get(key)
                    outcome = "miss" if got is None else got.size
                except KVStoreError as exc:
                    outcome = exc.code.name
                kind = "get"
            else:
                try:
                    outcome = yield from client.set(key, value)
                except KVStoreError as exc:
                    outcome = exc.code.name
                kind = "set"
            log.append((kind, key, repr(sim.now - start), outcome))

    procs = []
    for _ in range(CLIENTS):
        client = cluster.add_client(name_hint="golden", policy=policy)
        ops = []
        for _ in range(OPS_PER_CLIENT):
            key = keys[min(int(rng.expovariate(0.12)), KEYS - 1)]
            if rng.random() < 0.8:
                ops.append((True, key, None))
            else:
                ops.append((False, key, _value(rng, sized)))
        procs.append(sim.process(client_loop(client, ops)))
    sim.run(sim.all_of(procs))

    text = "\n".join("%s %s %s %s" % entry for entry in log)
    text += "\nevents=%d" % sim.processed_events
    return hashlib.sha256(text.encode()).hexdigest()


CASES = {
    "era-ce-cd": dict(scheme="era-ce-cd", seed=1),
    "era-ce-cd-sized": dict(scheme="era-ce-cd", seed=2, sized=True),
    "era-se-sd": dict(scheme="era-se-sd", seed=3),
    "era-se-cd": dict(scheme="era-se-cd", seed=4),
    "era-ce-sd": dict(scheme="era-ce-sd", seed=5),
    "sync-rep": dict(scheme="sync-rep", seed=6),
    "era-ce-cd-degraded": dict(scheme="era-ce-cd", seed=7, crash=True),
    "era-ce-cd-hedge": dict(scheme="era-ce-cd", seed=8, hedge=True),
}

GOLDEN = {
    "era-ce-cd": "574e51b993a2e77428ffdb2faef03600644c42182ae113308100d61c5a5194fe",
    "era-ce-cd-degraded": "487331ec0373e2d074976225d0e63b63cd4afaaaab1b6cbf1f019fb5b6526bd8",
    "era-ce-cd-hedge": "a001a90c3abcea65c0e197c501327ae61f2bacdff1b5f7f4b538ddb43439304e",
    "era-ce-cd-sized": "dc40c09a738a48dd982db93c6db415ce71f53b64864ebcc0e4707494d174fed6",
    "era-ce-sd": "c7023bf619b12dff2c3d3458ee6da3765f86057d2a0de84ca4c6f55c37252ec6",
    "era-se-cd": "25afd24ed392ff65ba38835538c86316665dd206649c6ab2781a751e02e630ed",
    "era-se-sd": "f5f617f9174da3264e1e904a4ffd331b53114bbcae930f85746b0663e2ed9094",
    "sync-rep": "a3453439a36f46e9bfc79f81d28855bcb0cd3a7d37c9a69905a39a61d0eee369",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_matches_golden(name):
    assert _run(**CASES[name]) == GOLDEN[name]


def test_digest_is_deterministic():
    assert _run(**CASES["era-ce-cd"]) == _run(**CASES["era-ce-cd"])


if __name__ == "__main__":
    for case in sorted(CASES):
        print('    "%s": "%s",' % (case, _run(**CASES[case])))
