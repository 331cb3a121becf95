"""End-to-end integrity: checksums, corruption detection, and recovery."""

import pytest

from repro.common.payload import Payload
from repro.core.cluster import build_cluster
from repro.resilience.erasure import chunk_key
from repro.store import protocol

MIB = 1024 * 1024


def fresh(scheme, **kwargs):
    kwargs.setdefault("servers", 5)
    kwargs.setdefault("memory_per_server", 64 * MIB)
    return build_cluster(scheme=scheme, **kwargs)


def drive(cluster, gen):
    return cluster.sim.run(cluster.sim.process(gen))


def patterned(size):
    return bytes((i * 13 + 1) % 256 for i in range(size))


class TestChecksums:
    def test_crc_stored_with_data(self):
        cluster = fresh("no-rep")
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.from_bytes(b"payload"))

        drive(cluster, body())
        server = cluster.servers[cluster.ring.primary("k")]
        assert "crc" in server.cache.peek("k").meta

    def test_sized_payloads_have_no_crc(self):
        cluster = fresh("no-rep")
        client = cluster.add_client()

        def body():
            yield from client.set("k", Payload.sized(100))

        drive(cluster, body())
        server = cluster.servers[cluster.ring.primary("k")]
        assert "crc" not in server.cache.peek("k").meta

    def test_clean_read_passes_verification(self):
        cluster = fresh("no-rep")
        client = cluster.add_client()
        data = patterned(10_000)

        def body():
            yield from client.set("k", Payload.from_bytes(data))
            return (yield from client.get("k"))

        assert drive(cluster, body()).data == data


class TestCorruptionDetection:
    def test_corrupt_item_reported_and_dropped(self):
        cluster = fresh("no-rep")
        client = cluster.add_client()
        primary = cluster.ring.primary("k")

        def store():
            yield from client.set("k", Payload.from_bytes(b"x" * 1000))

        drive(cluster, store())
        assert cluster.servers[primary].corrupt_item("k", byte_offset=5)

        def read():
            return (yield client.request(primary, "get", "k"))

        response = drive(cluster, read())
        assert not response.ok
        assert response.error == protocol.ERR_CORRUPT
        assert cluster.servers[primary].corruption_detected == 1
        # the poisoned item was evicted so it cannot be served again
        assert cluster.servers[primary].cache.peek("k") is None

    def test_corrupt_hook_needs_real_data(self):
        cluster = fresh("no-rep")
        client = cluster.add_client()

        def store():
            yield from client.set("k", Payload.sized(100))

        drive(cluster, store())
        primary = cluster.ring.primary("k")
        assert not cluster.servers[primary].corrupt_item("k")

    def test_verification_can_be_disabled(self):
        from repro.network.fabric import Fabric
        from repro.network.profiles import RI_QDR
        from repro.simulation import Simulator
        from repro.store.server import MemcachedServer

        sim = Simulator()
        fabric = Fabric(sim, RI_QDR)
        server = MemcachedServer(
            sim, fabric, "s", memory_limit=16 * MIB, verify_on_read=False
        )
        assert server.verify_on_read is False


class _FlipGetResponses:
    """Interceptor flipping one bit of every Get response carrying bytes."""

    def __init__(self):
        from repro.faults.engine import ChaosEngine

        self.mutate = ChaosEngine._corrupter(pos=7, bit=2)
        self.flipped = 0

    def on_message(self, src, dst, size, payload, tag, one_sided):
        from repro.network.fabric import FaultAction

        value = getattr(payload, "value", None)
        if tag == protocol.TAG_RESPONSE and value is not None and value.has_data:
            self.flipped += 1
            return FaultAction(mutate=self.mutate)
        return None


class TestVerifiedChecksumMemo:
    """A Get response carries the CRC its server just verified, so the
    client's end-to-end check reuses it instead of hashing again."""

    def _stored(self, data):
        cluster = fresh("no-rep")
        client = cluster.add_client()
        drive(cluster, client.set("k", Payload.from_bytes(data)))
        return cluster, client

    def test_clean_get_hashes_the_value_once(self, monkeypatch):
        import zlib

        data = patterned(4_000)
        cluster, client = self._stored(data)
        hashed = []
        real_crc32 = zlib.crc32

        def counting_crc32(buf, *start):
            hashed.append(len(buf))
            return real_crc32(buf, *start)

        monkeypatch.setattr(zlib, "crc32", counting_crc32)
        value = drive(cluster, client.get("k"))
        assert value.data == data
        # the server's verify-on-read; the client reuses its result
        assert hashed == [len(data)]
        assert value.checksum() == real_crc32(data)

    def test_bit_flipped_in_flight_is_still_caught(self):
        data = patterned(4_000)
        cluster, client = self._stored(data)
        flipper = _FlipGetResponses()
        cluster.fabric.add_interceptor(flipper)
        primary = cluster.ring.primary("k")

        def read():
            return (yield client.request(primary, "get", "k"))

        response = drive(cluster, read())
        assert flipper.flipped == 1
        assert not response.ok
        assert response.error == protocol.ERR_CORRUPT
        assert cluster.metrics.counter("client.corrupt_responses").value == 1

    def test_memo_only_covers_the_verified_bytes(self):
        payload = Payload(3, b"abc", checksum=123)
        assert payload.checksum() == 123
        # size-only payloads have no bytes to memoize a checksum of
        assert Payload(3, None, checksum=123).checksum() is None


class TestCorruptionRecovery:
    def test_replication_fails_over_on_corruption(self):
        cluster = fresh("async-rep")
        client = cluster.add_client()
        data = patterned(5_000)

        def store():
            yield from client.set("k", Payload.from_bytes(data))

        drive(cluster, store())
        primary = cluster.ring.placement("k", 3)[0]
        cluster.servers[primary].corrupt_item("k")

        def read():
            return (yield from client.get("k"))

        value = drive(cluster, read())
        assert value.data == data  # served by a clean replica

    def test_erasure_recovers_corrupt_chunk_from_parity(self):
        cluster = fresh("era-ce-cd")
        client = cluster.add_client()
        data = patterned(12_000)

        def store():
            yield from client.set("k", Payload.from_bytes(data))

        drive(cluster, store())
        placement = cluster.ring.placement("k", 5)
        cluster.servers[placement[1]].corrupt_item(chunk_key("k", 1))

        def read():
            return (yield from client.get("k"))

        value = drive(cluster, read())
        assert value.data == data  # decoded around the poisoned chunk
        assert cluster.servers[placement[1]].corruption_detected == 1

    def test_corruption_beyond_tolerance_is_data_loss(self):
        """More poisoned chunks than parity can absorb: the value reads
        back as lost (NOT_FOUND), never as silently wrong data."""
        cluster = fresh("era-ce-cd")
        client = cluster.add_client()

        def store():
            yield from client.set("k", Payload.from_bytes(patterned(3_000)))

        drive(cluster, store())
        placement = cluster.ring.placement("k", 5)
        for index in range(3):  # > m = 2 chunks poisoned
            cluster.servers[placement[index]].corrupt_item(
                chunk_key("k", index)
            )

        def read():
            return (yield from client.get("k"))

        assert drive(cluster, read()) is None

    def test_hybrid_routes_around_corrupt_stub(self):
        cluster = fresh("hybrid")
        client = cluster.add_client()
        data = patterned(100_000)  # large: erasure path + stub

        def store():
            yield from client.set("k", Payload.from_bytes(data))

        drive(cluster, store())

        def read():
            return (yield from client.get("k"))

        assert drive(cluster, read()).data == data
