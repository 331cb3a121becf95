"""Fabric timing, protocols, contention, and failure semantics."""

import pytest

from repro.network.fabric import (
    FAILURE_DETECT_DELAY,
    Fabric,
    NodeUnreachableError,
)
from repro.network.profiles import RI_QDR, profile_by_name


@pytest.fixture
def sim():
    from repro.simulation import Simulator

    return Simulator()


@pytest.fixture
def fabric(sim):
    fabric = Fabric(sim, RI_QDR)
    fabric.add_node("a")
    fabric.add_node("b")
    return fabric


def run_send(sim, fabric, src, dst, size, **kwargs):
    event = fabric.send(src, dst, size, **kwargs)
    return sim.run(event)


def software_overhead(profile, size):
    """A lone send's delivery time less its wire time and latency."""
    from repro.simulation import Simulator

    sim = Simulator()
    fabric = Fabric(sim, profile)
    fabric.add_node("a")
    fabric.add_node("b")
    run_send(sim, fabric, "a", "b", size)
    return sim.now - size / profile.bandwidth - profile.link_latency


class TestEagerPath:
    def test_small_message_timing(self, sim, fabric):
        """eager: overhead + wire + one latency."""
        size = 1024
        message = run_send(sim, fabric, "a", "b", size)
        profile = RI_QDR
        expected = (
            profile.eager_overhead
            + size / profile.bandwidth
            + profile.link_latency
        )
        assert sim.now == pytest.approx(expected)
        assert message.size == size

    def test_delivered_into_inbox(self, sim, fabric):
        run_send(sim, fabric, "a", "b", 100, payload={"op": "x"}, tag="req")
        inbox = fabric.endpoint("b").inbox
        assert len(inbox) == 1
        message = inbox.try_get()
        assert message.payload == {"op": "x"}
        assert message.tag == "req"
        assert message.sent_at == 0.0
        assert message.delivered_at == sim.now


class TestRendezvousPath:
    def test_large_message_pays_control_round_trip(self, sim, fabric):
        size = 64 * 1024  # > 16 KB threshold
        run_send(sim, fabric, "a", "b", size)
        profile = RI_QDR
        control = profile.link_latency + profile.control_message_size / (
            profile.bandwidth
        )
        expected = (
            profile.rendezvous_overhead
            + 2 * control
            + size / profile.bandwidth
            + profile.link_latency
        )
        assert sim.now == pytest.approx(expected)

    def test_protocol_switch_exactly_at_threshold(self):
        profile = RI_QDR
        at = software_overhead(profile, profile.eager_threshold)
        above = software_overhead(profile, profile.eager_threshold + 1)
        assert at == pytest.approx(profile.eager_overhead)
        assert above > profile.eager_overhead

    def test_ipoib_never_uses_eager_rendezvous_split(self):
        profile = profile_by_name("ri-qdr-ipoib")
        small = software_overhead(profile, 100)
        large = software_overhead(profile, 10**6)
        assert small == pytest.approx(large)  # single software path over TCP


class TestBandwidthContention:
    def test_sequential_transfers_serialize_on_egress(self, sim, fabric):
        fabric.add_node("c")
        size = 1024 * 1024
        event_b = fabric.send("a", "b", size)
        event_c = fabric.send("a", "c", size)
        sim.run(sim.all_of([event_b, event_c]))
        profile = RI_QDR
        min_two_transfers = 2 * size / profile.bandwidth
        assert sim.now >= min_two_transfers

    def test_incast_serializes_on_ingress(self, sim, fabric):
        fabric.add_node("c")
        size = 1024 * 1024
        event_1 = fabric.send("a", "b", size)
        event_2 = fabric.send("c", "b", size)
        sim.run(sim.all_of([event_1, event_2]))
        assert sim.now >= 2 * size / RI_QDR.bandwidth

    def test_disjoint_paths_run_in_parallel(self, sim, fabric):
        fabric.add_node("c")
        fabric.add_node("d")
        size = 1024 * 1024
        events = [fabric.send("a", "b", size), fabric.send("c", "d", size)]
        sim.run(sim.all_of(events))
        one_transfer = size / RI_QDR.bandwidth
        assert sim.now < 1.5 * one_transfer

    def test_byte_counters(self, sim, fabric):
        run_send(sim, fabric, "a", "b", 5000)
        assert fabric.endpoint("a").bytes_sent == 5000
        assert fabric.endpoint("b").bytes_received == 5000
        assert fabric.endpoint("a").messages_sent == 1
        assert fabric.endpoint("b").messages_received == 1


class TestSharedHosts:
    def test_same_host_clients_share_nic(self, sim, fabric):
        fabric.add_node("c1", host="h0")
        fabric.add_node("c2", host="h0")
        size = 1024 * 1024
        events = [fabric.send("c1", "a", size), fabric.send("c2", "b", size)]
        sim.run(sim.all_of(events))
        # both egress streams share one link: strictly serialized
        assert sim.now >= 2 * size / RI_QDR.bandwidth

    def test_different_hosts_do_not_share(self, sim, fabric):
        fabric.add_node("c1", host="h0")
        fabric.add_node("c2", host="h1")
        size = 1024 * 1024
        events = [fabric.send("c1", "a", size), fabric.send("c2", "b", size)]
        sim.run(sim.all_of(events))
        assert sim.now < 1.5 * size / RI_QDR.bandwidth

    def test_duplicate_node_rejected(self, fabric):
        with pytest.raises(ValueError):
            fabric.add_node("a")


class TestOneSided:
    def test_rdma_write_timing(self, sim, fabric):
        size = 4096
        sim.run(fabric.rdma_write("a", "b", size))
        profile = RI_QDR
        expected = (
            profile.rdma_post_overhead
            + size / profile.bandwidth
            + profile.link_latency
        )
        assert sim.now == pytest.approx(expected)

    def test_rdma_write_skips_inbox(self, sim, fabric):
        sim.run(fabric.rdma_write("a", "b", 4096))
        assert len(fabric.endpoint("b").inbox) == 0

    def test_rdma_read_pays_request_latency(self, sim, fabric):
        size = 4096
        sim.run(fabric.rdma_read("a", "b", size))
        profile = RI_QDR
        expected = (
            profile.rdma_post_overhead
            + 2 * profile.link_latency
            + size / profile.bandwidth
        )
        assert sim.now == pytest.approx(expected)

    def test_rdma_read_uses_remote_egress(self, sim, fabric):
        sim.run(fabric.rdma_read("a", "b", 4096))
        assert fabric.endpoint("b").bytes_sent == 4096
        assert fabric.endpoint("a").bytes_received == 4096


class TestFailures:
    def test_send_to_dead_node_fails_after_detect_delay(self, sim, fabric):
        fabric.endpoint("b").fail()
        event = fabric.send("a", "b", 100)

        def waiter():
            try:
                yield event
            except NodeUnreachableError as exc:
                return exc.node, sim.now

        node, when = sim.run(sim.process(waiter()))
        assert node == "b"
        assert when == pytest.approx(FAILURE_DETECT_DELAY)

    def test_send_from_dead_node_fails(self, sim, fabric):
        fabric.endpoint("a").fail()
        event = fabric.send("a", "b", 100)

        def waiter():
            try:
                yield event
            except NodeUnreachableError:
                return "failed"

        assert sim.run(sim.process(waiter())) == "failed"

    def test_death_in_flight_drops_message(self, sim, fabric):
        event = fabric.send("a", "b", 10 * 1024 * 1024)  # ~3 ms transfer
        fabric.endpoint("b").fail()

        def waiter():
            try:
                yield event
            except NodeUnreachableError:
                return "dropped"

        assert sim.run(sim.process(waiter())) == "dropped"
        assert len(fabric.endpoint("b").inbox) == 0

    def test_recover_restores_traffic(self, sim, fabric):
        fabric.endpoint("b").fail()
        fabric.endpoint("b").recover()
        message = run_send(sim, fabric, "a", "b", 100)
        assert message.size == 100

    def test_rdma_read_from_dead_node_fails(self, sim, fabric):
        fabric.endpoint("b").fail()
        event = fabric.rdma_read("a", "b", 100)

        def waiter():
            try:
                yield event
            except NodeUnreachableError:
                return "failed"

        assert sim.run(sim.process(waiter())) == "failed"


class TestProfileEffects:
    def test_edr_beats_qdr_for_same_transfer(self):
        from repro.simulation import Simulator

        times = {}
        for name in ("ri-qdr", "ri2-edr"):
            sim = Simulator()
            fabric = Fabric(sim, profile_by_name(name))
            fabric.add_node("a")
            fabric.add_node("b")
            sim.run(fabric.send("a", "b", 1024 * 1024))
            times[name] = sim.now
        assert times["ri2-edr"] < times["ri-qdr"]

    def test_ipoib_much_slower_than_rdma(self):
        from repro.simulation import Simulator

        times = {}
        for name in ("ri-qdr", "ri-qdr-ipoib"):
            sim = Simulator()
            fabric = Fabric(sim, profile_by_name(name))
            fabric.add_node("a")
            fabric.add_node("b")
            sim.run(fabric.send("a", "b", 4096))
            times[name] = sim.now
        assert times["ri-qdr-ipoib"] > 5 * times["ri-qdr"]
