"""Host-speed reference: wall time scaled to a nominal host.

The host this benchmark runs on is shared, and its speed drifts by tens
of percent within seconds.  A timed phase therefore runs the simulator in
short virtual-time slices and, after every slice, one *reference unit*:
a fixed piece of pure-Python work that uses no repro code and allocates
no garbage-collected objects.  The slices' wall time, scaled by how long
the reference units took against :data:`NOMINAL_UNIT_S`, is the phase's
time on a host of nominal speed.  Program changes cannot speed the
reference up, so a faster program still reads as faster.

Slicing changes no behaviour: ``Simulator.run(until=t)`` stops between
events, and every round slices at the same virtual instants.
"""

from __future__ import annotations

from time import perf_counter

#: wall seconds one reference unit takes on the nominal host
NOMINAL_UNIT_S = 0.002

#: loop iterations in one reference unit
UNIT_ITERATIONS = 7000


class _Cell:
    __slots__ = ("value", "next")


def _mix(acc: int, value: int) -> int:
    return (acc * 33 + value) & 0xFFFFF


class Reference:
    """Runs reference units and keeps their total wall time."""

    def __init__(self):
        cells = [_Cell() for _ in range(512)]
        for i, cell in enumerate(cells):
            cell.value = i
            cell.next = cells[(i * 7 + 1) % len(cells)]
        self._cell = cells[0]
        self._table = {i: (i * 2654435761) & 0xFFFF for i in range(1024)}
        self.seconds = 0.0
        self.units = 0

    def reset(self) -> None:
        self.seconds = 0.0
        self.units = 0

    def unit(self) -> None:
        """Run and time one reference unit."""
        table = self._table
        cell = self._cell
        acc = 0
        start = perf_counter()
        for i in range(UNIT_ITERATIONS):
            cell = cell.next
            value = cell.value
            cell.value = (value * 31 + i) & 0xFFFF
            acc = _mix(acc, table[value & 1023])
        self.seconds += perf_counter() - start
        self._cell = cell
        self.units += 1

    @property
    def slowdown(self) -> float:
        """Mean unit time over the nominal one (>1: host slower)."""
        return self.seconds / (self.units * NOMINAL_UNIT_S)


def run_sliced(sim, done, slice_s: float, reference: Reference) -> float:
    """Run ``sim`` until ``done`` fires, in virtual slices of ``slice_s``.

    One reference unit runs after every slice.  Returns the wall seconds
    spent in the simulator (reference units excluded).
    """
    wall = 0.0
    while not done.processed:
        if sim.peek() == float("inf"):
            raise RuntimeError("simulation ran dry before the phase ended")
        start = perf_counter()
        sim.run(until=sim.now + slice_s)
        wall += perf_counter() - start
        reference.unit()
    return wall
