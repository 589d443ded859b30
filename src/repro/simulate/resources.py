"""Shared resources for the simulation kernel.

- :class:`Resource` — a FIFO server pool with ``capacity`` slots; the
  building block for the metadata server, token manager and storage
  targets of the filesystem model. Queueing here is what turns
  "96 ranks open one file" into the contention the paper observes.
- :class:`Barrier` — an n-party rendezvous, used for the MPI barriers
  separating IOR's write and read phases.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro._util.errors import SimulationError
from repro.simulate.kernel import SimEvent, Simulator


class Resource:
    """FIFO resource with ``capacity`` concurrent holders.

    Usage inside a process generator::

        grant = resource.acquire()
        yield grant
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: deque[SimEvent] = deque()
        #: peak queue length observed (diagnostics / tests)
        self.peak_queue = 0
        #: total completed acquisitions
        self.total_acquired = 0

    def acquire(self) -> SimEvent:
        """Event that triggers when a slot is granted (FIFO order)."""
        event = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            self.total_acquired += 1
            event.succeed()
        else:
            self._waiting.append(event)
            self.peak_queue = max(self.peak_queue, len(self._waiting))
        return event

    def release(self) -> None:
        """Free a slot; wakes the longest-waiting acquirer, if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiting:
            self.total_acquired += 1
            self._waiting.popleft().succeed()
        else:
            self._in_use -= 1

    def use(self, service_us: int) -> Generator[SimEvent, None, None]:
        """Sub-process: acquire, hold for ``service_us``, release."""
        yield self.acquire()
        try:
            yield self.sim.timeout(service_us)
        finally:
            self.release()


class Barrier:
    """An n-party barrier: the nth arrival releases everyone.

    Reusable across phases (it resets after releasing).
    """

    def __init__(self, sim: Simulator, parties: int,
                 name: str = "barrier") -> None:
        if parties < 1:
            raise SimulationError(f"parties must be >= 1, got {parties}")
        self.sim = sim
        self.parties = parties
        self.name = name
        self._waiting: list[SimEvent] = []
        #: number of completed barrier rounds
        self.generations = 0

    def wait(self) -> SimEvent:
        """Event that triggers when all parties have arrived."""
        event = self.sim.event()
        self._waiting.append(event)
        if len(self._waiting) == self.parties:
            waiters, self._waiting = self._waiting, []
            self.generations += 1
            for waiter in waiters:
                waiter.succeed()
        elif len(self._waiting) > self.parties:  # pragma: no cover
            raise SimulationError(f"{self.name}: too many waiters")
        return event
