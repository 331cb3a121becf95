"""Workload definitions and seeded input generation.

Everything a round feeds the store is generated here, before any timer
starts: the preload values, every client's operation list and all value
bytes.  The same seed gives the same inputs; the program only ever sees
the generated keys and values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.store.hashring import stable_hash
from repro.workloads.etc import EtcSizeSampler

KIB = 1024

#: closed-loop clients per workload, one operation outstanding each
CLIENTS = 8
#: Zipfian skew of key popularity (YCSB's default)
THETA = 0.99

#: distinct values of each key in "per-key" workloads
VALUES_PER_KEY = 2

#: the ETC size distribution, as this many draws of a fixed-seed sampler
ETC_SAMPLE = 50_000
ETC_SIZE_SEED = 21

#: one operation: (is_get, key, value) — value is None for a Get, the
#: size (int) for size-only workloads, or the bytes to store
Op = Tuple[bool, str, object]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload; sizes are per round."""

    name: str
    servers: int
    keys: int
    #: measured-phase operation mix, exact counts (shuffled per seed);
    #: the warm-up has the same mix
    gets: int
    sets: int
    #: "sized" (size-only payloads), "per-key" (random bytes, a few
    #: values of each key's own) or "etc" (bytes with ETC-distributed sizes)
    values: str
    value_size: int = 4 * KIB
    #: warm-up operations per client, run and discarded before measuring
    warmup_per_client: int = 50
    #: crash one server at the start of the measured phase and rebuild
    #: its chunks with RepairManager while the foreground load runs
    crash_and_repair: bool = False
    stripes: bool = False
    #: scrubber scan period in virtual seconds (0: no scrubber)
    scrub_period: float = 0.0
    #: virtual seconds per timed slice of the preload and measured phase
    #: (about 25 ms of wall time each; see kvbench.pace)
    preload_slice: float = 50e-6
    measure_slice: float = 80e-6
    #: wall seconds one round takes on the nominal host; a run of
    #: ``--seconds`` does ``seconds / round_s`` rounds (see
    #: kvbench.report.round_count), a count that does not depend on how
    #: fast the host happens to be
    round_s: float = 10.0

    @property
    def measured_ops(self) -> int:
        return self.gets + self.sets

    def scaled(self, factor: float) -> "WorkloadSpec":
        """A smaller copy for smoke tests (same shape, fewer keys/ops)."""
        return replace(
            self,
            keys=max(20, int(self.keys * factor)),
            gets=max(20, int(self.gets * factor)),
            sets=max(20, int(self.sets * factor)),
            warmup_per_client=max(2, int(self.warmup_per_client * factor)),
        )


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="ycsb-b-sized",
            servers=5,
            keys=5000,
            gets=19000,
            sets=1000,
            values="sized",
            value_size=4 * KIB,
            preload_slice=35e-6,
            measure_slice=80e-6,
        ),
        WorkloadSpec(
            name="ycsb-a-bytes-repair",
            servers=6,
            keys=200,
            gets=2000,
            sets=2000,
            values="per-key",
            value_size=256 * KIB,
            warmup_per_client=10,
            crash_and_repair=True,
            preload_slice=500e-6,
            measure_slice=500e-6,
            round_s=5.0,
        ),
        WorkloadSpec(
            name="etc-stripes-scrub",
            servers=6,
            keys=2000,
            gets=60000,
            sets=2000,
            values="etc",
            stripes=True,
            scrub_period=0.01,
            preload_slice=15e-6,
            measure_slice=150e-6,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one round of a workload needs, fixed by the seed."""

    spec: WorkloadSpec
    seed: int
    keys: List[str]
    #: preload value per key (size or bytes, as in :data:`Op`)
    preload: List[object]
    #: per-client operation lists
    warmup: List[List[Op]]
    measured: List[List[Op]]
    #: the server crashed at the start of the measured phase, if any
    victim: Optional[str]

    @property
    def sized(self) -> bool:
        return self.spec.values == "sized"


def _key(index: int) -> str:
    # 16-byte keys, the width the paper fixes
    return ("w%d" % index).ljust(16, "_")


def stratified(count: int, rng) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata, shuffled."""
    draws = (np.arange(count) + rng.random(count)) / count
    rng.shuffle(draws)
    return draws


def etc_sizes(count: int, rng) -> List[int]:
    """``count`` ETC value sizes by stratified sampling, in ``rng`` order."""
    table = np.sort(EtcSizeSampler(seed=ETC_SIZE_SEED).sample_sizes(ETC_SAMPLE))
    picks = (stratified(count, rng) * len(table)).astype(np.int64)
    return [int(size) for size in table[picks]]


def zipf_indices(count: int, items: int, theta: float, rng) -> List[int]:
    """``count`` key indices with Zipfian popularity, stratified.

    Ranks come from inverting the exact Zipf CDF at one uniform draw per
    equal-probability stratum, in shuffled order, so every seed sees
    close to the expected number of accesses per rank and the seed moves
    the order and the draws within strata.  Ranks are scrambled across
    the keyspace as YCSB does (the scramble does not depend on the seed).
    """
    weights = 1.0 / np.power(np.arange(1, items + 1, dtype=np.float64), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ranks = np.searchsorted(cdf, stratified(count, rng), side="right")
    ranks = np.minimum(ranks, items - 1)
    scramble = [stable_hash("zipf%d" % rank) % items for rank in range(items)]
    return [scramble[rank] for rank in ranks]


def generate(spec: WorkloadSpec, seed: int) -> Inputs:
    """Build a workload's full inputs from ``seed``."""
    rng = np.random.default_rng([seed, 0x6B76])
    keys = [_key(i) for i in range(spec.keys)]
    if spec.values == "sized":
        def value(_index: int) -> object:
            return spec.value_size
    elif spec.values == "per-key":
        # No two keys share a value, so a Get that returns another key's
        # value is caught.  A key's writes (preload, then Sets in the
        # order generated) cycle through its values.
        own = [
            [rng.bytes(spec.value_size) for _ in range(VALUES_PER_KEY)]
            for _ in range(spec.keys)
        ]
        writes = [0] * spec.keys

        def value(index: int) -> object:
            count = writes[index]
            writes[index] = count + 1
            return own[index][count % VALUES_PER_KEY]
    elif spec.values == "etc":
        # Every key has one ETC size, the same for every seed, and every
        # Set rewrites it with fresh bytes of that size: the size mix and
        # the hot keys' sizes then do not swing from seed to seed.
        key_sizes = etc_sizes(spec.keys, np.random.default_rng(ETC_SIZE_SEED))
        buffer = rng.integers(0, 256, 1 << 20, dtype=np.uint8).tobytes()

        def value(index: int) -> object:
            size = key_sizes[index]
            offset = int(rng.integers(0, len(buffer) - size + 1))
            return buffer[offset:offset + size]
    else:
        raise ValueError("unknown value kind %r" % spec.values)

    preload = [value(i) for i in range(spec.keys)]

    def ops(gets: int, sets: int) -> List[Op]:
        get_keys = iter(zipf_indices(gets, spec.keys, THETA, rng))
        set_keys = iter(zipf_indices(sets, spec.keys, THETA, rng))
        is_get = np.array([True] * gets + [False] * sets)
        rng.shuffle(is_get)
        out = []
        for flag in is_get:
            if flag:
                out.append((True, keys[next(get_keys)], None))
            else:
                index = next(set_keys)
                out.append((False, keys[index], value(index)))
        return out

    n = CLIENTS
    warm_total = spec.warmup_per_client * n
    warm_sets = round(warm_total * spec.sets / spec.measured_ops)
    warm = ops(warm_total - warm_sets, warm_sets)
    measured = ops(spec.gets, spec.sets)
    # the same server every seed: which keys lose a chunk then depends
    # on placement alone, not on the seed
    victim = "server-1" if spec.crash_and_repair else None
    return Inputs(
        spec=spec,
        seed=seed,
        keys=keys,
        preload=preload,
        warmup=[warm[i::n] for i in range(n)],
        measured=[measured[i::n] for i in range(n)],
        victim=victim,
    )
