"""FirstOf, the re-armable wait the erasure chunk gather uses.

Each case runs the same scenario twice, once waiting through
``sim.any_of`` and once through one ``FirstOf``, and asserts that both
resume the waiting process at the same point of the schedule: the same
virtual time, the same count of processed events, the same winner, and
the same interleaving with a bystander process acting at the same
instants.
"""

import pytest

from repro.simulation import FirstOf, SimulationError, Simulator


class AnyOfWaits:
    """The reference: a fresh ``any_of`` per wait, watching nothing."""

    def __init__(self, sim):
        self.sim = sim

    def watch(self, event):
        pass

    def unwatch(self, event):
        pass

    def wait(self, events):
        return self.sim.any_of(list(events))


class FirstOfWaits:
    def __init__(self, sim):
        self.first = sim.first_of()

    def watch(self, event):
        self.first.watch(event)

    def unwatch(self, event):
        self.first.unwatch(event)

    def wait(self, events):
        return self.first.wait(events)


def _bystander(sim, log, times):
    """Logs at each given instant, twice, to expose same-time ordering."""
    for at in times:
        yield sim.timeout(at - sim.now)
        log.append(("bystander", sim.now, sim.processed_events))
        yield sim.timeout(0)
        log.append(("bystander+0", sim.now, sim.processed_events))


def _run(scenario, waits_cls):
    sim = Simulator()
    log = []
    scenario(sim, waits_cls(sim), log)
    sim.run()
    return log


def _same_schedule(scenario):
    reference = _run(scenario, AnyOfWaits)
    assert reference  # the scenario did resume
    assert _run(scenario, FirstOfWaits) == reference
    return reference


def _record(sim, log, names, fired, value):
    log.append(("resume", sim.now, sim.processed_events, names[id(fired)], value))


def test_already_processed_sub_event_wins_in_order():
    def scenario(sim, waits, log):
        a, b = sim.event(), sim.event()
        names = {id(a): "a", id(b): "b"}
        waits.watch(a)
        waits.watch(b)

        def firer():
            yield sim.timeout(1.0)
            b.succeed("b")
            yield sim.timeout(0.5)
            a.succeed("a")

        def waiter():
            yield sim.timeout(2.0)
            # both fired already: the first in wait order wins, not the
            # first to have fired
            fired, value = yield waits.wait([a, b])
            _record(sim, log, names, fired, value)

        sim.process(firer())
        sim.process(waiter())
        sim.process(_bystander(sim, log, [2.0]))

    log = _same_schedule(scenario)
    assert [entry[3] for entry in log if entry[0] == "resume"] == ["a"]


def test_two_sub_events_firing_at_the_same_instant():
    def scenario(sim, waits, log):
        a = sim.timeout(1.0, "a")
        b = sim.timeout(1.0, "b")
        names = {id(a): "a", id(b): "b"}
        waits.watch(a)
        waits.watch(b)

        def waiter():
            fired, value = yield waits.wait([b, a])
            _record(sim, log, names, fired, value)

        sim.process(_bystander(sim, log, [1.0]))
        sim.process(waiter())

    log = _same_schedule(scenario)
    # a was scheduled first, so it fires first and wins
    assert [entry[3] for entry in log if entry[0] == "resume"] == ["a"]


def test_failing_sub_event_fails_the_wait():
    def scenario(sim, waits, log):
        a, b = sim.event(), sim.timeout(2.0, "b")
        waits.watch(a)
        waits.watch(b)

        def firer():
            yield sim.timeout(1.0)
            a.fail(ValueError("boom"))

        def waiter():
            try:
                yield waits.wait([a, b])
            except ValueError as exc:
                log.append(("failed", sim.now, sim.processed_events, str(exc)))

        sim.process(firer())
        sim.process(waiter())
        sim.process(_bystander(sim, log, [1.0, 2.0]))

    log = _same_schedule(scenario)
    assert ("failed", 1.0) in [entry[:2] for entry in log]


def test_waiters_left_over_from_earlier_waits():
    """A gather-shaped loop: later waits reuse earlier waits' sub-events,
    and a timer that lost its race must not wake a later wait."""

    def scenario(sim, waits, log):
        a = sim.timeout(1.0, "a")
        b = sim.timeout(3.0, "b")
        c = sim.event()
        names = {id(a): "a", id(b): "b", id(c): "c"}
        for event in (a, b, c):
            waits.watch(event)
        outstanding = {a: 0, b: 1, c: 2}

        def firer():
            yield sim.timeout(2.0)
            c.succeed("c")

        def gather():
            while outstanding:
                timer = None
                if len(outstanding) == 2:
                    # a hedge-style timer that loses to c, then goes off
                    # while the next wait is pending
                    timer = sim.timeout(2.5 - sim.now, "timer")
                    names[id(timer)] = "timer"
                    waits.watch(timer)
                    fired, value = yield waits.wait(
                        list(outstanding) + [timer]
                    )
                    if fired is not timer:
                        waits.unwatch(timer)
                else:
                    fired, value = yield waits.wait(outstanding)
                _record(sim, log, names, fired, value)
                outstanding.pop(fired)
                yield sim.timeout(0.25)

        sim.process(firer())
        sim.process(gather())
        sim.process(_bystander(sim, log, [1.0, 2.0, 2.5, 3.0]))

    log = _same_schedule(scenario)
    assert [entry[3] for entry in log if entry[0] == "resume"] == ["a", "c", "b"]


def test_watch_rejects_foreign_events():
    sim, other = Simulator(), Simulator()
    with pytest.raises(SimulationError):
        FirstOf(sim).watch(other.event())
