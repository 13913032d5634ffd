"""Discrete-event simulation substrate for the DPDPU reproduction.

Everything performance-related in this repository runs inside this
engine: hardware devices charge simulated time and cycles, protocol
state machines exchange messages through simulated links, and the
DPDPU engines schedule work across simulated processing units.

Quickstart::

    from repro.sim import Environment

    env = Environment()

    def worker(env):
        yield env.timeout(1.0)
        return "done"

    proc = env.process(worker(env))
    env.run()
    assert proc.value == "done"
"""

from .batch import EventPopulation
from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Container, PriorityResource, Resource, Store
from .stats import Counter, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "EventPopulation",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Container",
    "PriorityResource",
    "Resource",
    "Store",
    "Counter",
    "Tally",
    "TimeWeighted",
]
