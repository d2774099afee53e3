"""All-to-all broadcast over ring embeddings, single or split across two.

Model: synchronous lock-step rounds, unit messages, no queuing. Every node
starts holding its own message; at each step it passes the message it most
recently received (initially its own) to its ring successor and receives
one from its predecessor. A ring of m nodes completes the all-to-all
broadcast in exactly m - 1 steps, and every ring edge carries exactly one
message per step, one direction, so loads come out perfectly even.

Splitting traffic across two rings means each node halves its message and
broadcasts one half per ring, both rings running concurrently. A pair of
(edge, step) uses of the same undirected edge by different rings is a
contention event; with edge-disjoint rings there are none, which
`simulate_split_broadcast` measures rather than assumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .construction import Cycle, HamiltonianPair
from .errors import InvalidPairError, LtqError
from .topology import Edge

_DIRECTIONS = ("forward", "backward")


@dataclass(frozen=True)
class RingSchedule:
    """One ring's role in a broadcast: the cycle, a direction, a message class."""

    ring: Cycle
    direction: str = "forward"
    message_class: str = "payload"

    def __post_init__(self) -> None:
        if self.direction not in _DIRECTIONS:
            raise LtqError(f"direction must be one of {_DIRECTIONS}, got {self.direction!r}")

    def ring_edges(self) -> list[Edge]:
        nodes = self.ring.nodes
        return [Edge(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]


@dataclass(frozen=True)
class TrafficReport:
    """Outcome of one simulated broadcast.

    per_edge_load counts total traversals per undirected edge (only used
    edges appear); max_concurrent_per_edge is the peak number of messages
    crossing one edge in one step; contention_events counts (edge, step)
    pairs contested by different rings. completed, that every node ends
    holding every message of every class, is asserted rather than
    simulated: each schedule runs on a Cycle, which is a ring, and m - 1
    lock-step relays on a ring of m nodes deliver every message.
    """

    steps: int
    per_edge_load: Mapping[Edge, int]
    max_concurrent_per_edge: int
    contention_events: int
    completed: bool


def simulate_schedules(schedules: Sequence[RingSchedule]) -> TrafficReport:
    """Run any number of equal-length ring broadcasts concurrently.

    Each schedule keeps its ring saturated: all of its edges carry one
    message at every step, so an edge's load is steps times the number of
    rings traversing it, and an edge used by two or more rings is contested
    at every step. Delivery is asserted, not simulated (see TrafficReport).
    """
    if not schedules:
        raise LtqError("need at least one ring schedule")
    lengths = {len(s.ring) for s in schedules}
    if len(lengths) != 1:
        raise LtqError(f"rings must have equal length, got {sorted(lengths)}")
    steps = lengths.pop() - 1
    multiplicity: Counter[Edge] = Counter()
    for schedule in schedules:
        multiplicity.update(schedule.ring_edges())
    shared = sum(1 for count in multiplicity.values() if count > 1)
    return TrafficReport(
        steps=steps,
        per_edge_load={edge: steps * count for edge, count in multiplicity.items()},
        max_concurrent_per_edge=max(multiplicity.values()),
        contention_events=steps * shared,
        completed=True,
    )


def simulate_ring_broadcast(ring: Cycle) -> TrafficReport:
    """All-to-all broadcast on a single ring: len(ring) - 1 steps, even load."""
    return simulate_schedules([RingSchedule(ring)])


def simulate_split_broadcast(pair: HamiltonianPair) -> TrafficReport:
    """Broadcast half of every node's message along each of two disjoint rings.

    The pair type guarantees edge-disjointness, so the measured contention
    must come out zero; the report states what was measured.
    """
    if pair.kind != "cycles":
        raise InvalidPairError("split broadcast needs a pair of cycles")
    return simulate_schedules(
        [
            RingSchedule(pair.first, "forward", "half-0"),
            RingSchedule(pair.second, "forward", "half-1"),
        ]
    )
