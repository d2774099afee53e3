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
from collections.abc import Iterator, Mapping, Sequence, ValuesView

from ._record import _Record
from .construction import Cycle, HamiltonianPair
from .errors import InvalidPairError, LtqError
from .topology import Edge, _edges_of


class TrafficReport(_Record):
    """Outcome of one simulated broadcast.

    per_edge_load counts total traversals per undirected edge (only used
    edges appear). It is a read-only mapping over label-value pairs: `len`,
    `values()`, `in` and lookup build no `Edge`; iteration and `items()`
    build the keys, in ring order. max_concurrent_per_edge is the peak
    number of messages crossing one edge in one step; contention_events
    counts (edge, step) pairs contested by different rings. completed, that
    every node ends holding every message of every ring, is asserted rather
    than simulated: each ring is a Cycle, and m - 1 lock-step relays on a
    ring of m nodes deliver every message.
    """

    __slots__ = _fields = (
        "steps", "per_edge_load", "max_concurrent_per_edge", "contention_events", "completed"
    )

    def __init__(
        self, steps: int, per_edge_load: Mapping[Edge, int], max_concurrent_per_edge: int,
        contention_events: int, completed: bool,
    ) -> None:
        self._set((steps, per_edge_load, max_concurrent_per_edge, contention_events, completed))


class _EdgeLoads(Mapping):
    """`Edge` -> load, held as multiplicities of (smaller, larger) value pairs
    in ring order, each load being `steps` times the multiplicity."""

    def __init__(self, dim: int, steps: int, counts: Mapping[tuple[int, int], int]) -> None:
        self._dim, self._steps, self._counts = dim, steps, counts

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, edge: object) -> int:
        if isinstance(edge, Edge) and edge.dim == self._dim:
            count = self._counts.get((edge.a.value, edge.b.value))
            if count is not None:
                return self._steps * count
        raise KeyError(edge)

    def __iter__(self) -> Iterator[Edge]:
        return _edges_of(self._dim, self._counts)

    def values(self) -> ValuesView[int]:
        return _Loads(self)

    def __repr__(self) -> str:
        return f"<per-edge loads of {len(self)} dim-{self._dim} edges>"


class _Loads(ValuesView):
    """The loads of an `_EdgeLoads`, read from its counts without its keys."""

    def __iter__(self) -> Iterator[int]:
        steps = self._mapping._steps
        return (steps * count for count in self._mapping._counts.values())


def simulate_schedules(rings: Sequence[Cycle]) -> TrafficReport:
    """Run any number of equal-length ring broadcasts concurrently.

    Each ring stays saturated: all of its edges carry one message at every
    step, so an edge's load is steps times the number of rings traversing
    it, and an edge used by two or more rings is contested at every step.
    Edges are counted as label-value pairs; `per_edge_load` reads those
    counts and builds an `Edge` key only when iterated. Delivery is
    asserted, not simulated (see TrafficReport).
    """
    if not rings:
        raise LtqError("need at least one ring")
    lengths = {len(ring) for ring in rings}
    if len(lengths) != 1:
        raise LtqError(f"rings must have equal length, got {sorted(lengths)}")
    dims = {ring.dim for ring in rings}
    if len(dims) != 1:
        raise LtqError(f"rings must have equal dimension, got {sorted(dims)}")
    steps = lengths.pop() - 1
    multiplicity: Counter[tuple[int, int]] = Counter()
    for ring in rings:
        multiplicity.update(ring.edge_pairs())
    shared = sum(1 for count in multiplicity.values() if count > 1)
    return TrafficReport(
        steps=steps,
        per_edge_load=_EdgeLoads(dims.pop(), steps, multiplicity),
        max_concurrent_per_edge=max(multiplicity.values()),
        contention_events=steps * shared,
        completed=True,
    )


def simulate_ring_broadcast(ring: Cycle) -> TrafficReport:
    """All-to-all broadcast on a single ring: len(ring) - 1 steps, even load."""
    return simulate_schedules([ring])


def simulate_split_broadcast(pair: HamiltonianPair) -> TrafficReport:
    """Broadcast half of every node's message along each of two disjoint rings.

    The pair type guarantees edge-disjointness, so the measured contention
    must come out zero; the report states what was measured.
    """
    if pair.kind != "cycles":
        raise InvalidPairError("split broadcast needs a pair of cycles")
    return simulate_schedules(pair.members)
