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

A `TrafficReport` holds only its rings and reads every count from them
when it is built: the counts, and the per-edge loads' keys in ascending
order, come from the edge masks by node value that `topology` reads, not
from a walk over each ring. Each ring keeps its masks: the rings of
`edh_cycles` hold those the doubling derived, and a user-built ring computes
its own on first use. The three `simulate_*` calls only build the report.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, ValuesView
from itertools import chain, repeat

from ._record import _Record
from .construction import Cycle, HamiltonianPair
from .errors import InvalidPairError, LtqError
from .topology import Edge, _edges_of, _holds, _mask_edges, _need, _sharing, _union


class TrafficReport(_Record):
    """Outcome of one simulated broadcast, built from its one field, `rings`:
    one or more `Cycle`s of equal length and dimension, checked by
    `__init__`, which a load (`pickle`, `copy.deepcopy`) runs too. Every
    count is read from the rings' edge masks when the report is built.

    steps is len(rings[0]) - 1. per_edge_load counts total traversals per
    undirected edge (only used edges appear): a read-only mapping whose
    `len`, `values()`, `in` and lookup build no `Edge`; iteration and
    `items()` build the keys, in ascending order. max_concurrent_per_edge is
    the peak number of messages crossing one edge in one step;
    contention_events counts (edge, step) pairs contested by different
    rings. completed, that every node ends holding every message of every
    ring, is a class constant, asserted rather than simulated: each ring is
    a Cycle, and m - 1 lock-step relays on a ring of m nodes deliver every
    message. Equality and the hash read the rings in order, by their dims
    and value bytes, so comparing two reports builds no `Edge`.
    """

    __slots__ = ("rings", "per_edge_load", "steps", "max_concurrent_per_edge", "contention_events")
    _fields = ("rings",)
    completed = True

    def __init__(self, rings: Iterable[Cycle]) -> None:
        rings = tuple(rings)  # read once: every check below reads them again
        if not rings:
            raise LtqError("need at least one ring")
        if not all(isinstance(ring, Cycle) for ring in rings):
            raise LtqError("every ring must be a Cycle; an open path does not complete a broadcast")
        lengths = {len(ring) for ring in rings}
        if len(lengths) != 1:
            raise LtqError(f"rings must have equal length, got {sorted(lengths)}")
        dims = {ring.dim for ring in rings}
        if len(dims) != 1:
            raise LtqError(f"rings must have equal dimension, got {sorted(dims)}")
        loads = _EdgeLoads(rings)
        steps, sharing = loads._steps, loads._sharing
        contested = steps * (len(loads) - sharing.get(1, 0))
        for name, value in zip(self.__slots__, (rings, loads, steps, max(sharing), contested)):
            object.__setattr__(self, name, value)  # the field, then what it determines


class _EdgeLoads(Mapping):
    """`Edge` -> load: `steps` times the number of rings whose edge masks
    hold the edge. Iteration lists the edges of their OR, ascending."""

    def __init__(self, rings: tuple[Cycle, ...]) -> None:
        self._rings, self._masks = rings, [ring._masks() for ring in rings]
        self._sharing = _sharing(self._masks)
        self._dim, self._steps = rings[0].dim, len(rings[0]) - 1

    def __len__(self) -> int:
        return sum(self._sharing.values())

    def __getitem__(self, edge: object) -> int:
        if isinstance(edge, Edge) and edge.dim == self._dim:
            rings = sum(map(_holds, self._masks, repeat(edge.a.value), repeat(edge.b.value)))
            if rings:
                return self._steps * rings
        raise KeyError(edge)

    def __iter__(self) -> Iterator[Edge]:
        used = _union(self._masks, max(map(len, self._masks)))
        return _edges_of(self._dim, list(_mask_edges(used)))

    def values(self) -> ValuesView[int]:
        return _Loads(self)

    def __reduce__(self) -> tuple:
        # loaded as its report's loads, through the report's checks
        return getattr, (TrafficReport(self._rings), "per_edge_load")


class _Loads(ValuesView):
    """The loads of an `_EdgeLoads`, read from its sharing counts without its
    keys: those of the edges one ring uses, then two, and so on."""

    def __iter__(self) -> Iterator[int]:
        steps, sharing = self._mapping._steps, self._mapping._sharing
        return chain.from_iterable(map(repeat, map(steps.__mul__, sharing), sharing.values()))

    def __contains__(self, load: object) -> bool:
        return any(load == self._mapping._steps * rings for rings in self._mapping._sharing)


def simulate_schedules(rings: Iterable[Cycle]) -> TrafficReport:
    """Run any number of equal-length ring broadcasts concurrently.

    Each ring stays saturated: all of its edges carry one message at every
    step, so an edge's load is steps times the number of rings traversing
    it, and an edge used by two or more rings is contested at every step.
    Every ring must be a `Cycle`: a one-way relay along an open path never
    brings the last node's message to the others. The counts come from the
    edge masks each ring keeps, which end at its largest label, so memory
    grows with that label, not with 2**dim. Delivery is asserted, not
    simulated, and the rings are checked (see TrafficReport).
    """
    return TrafficReport(rings)


def simulate_ring_broadcast(ring: Cycle) -> TrafficReport:
    """All-to-all broadcast on a single ring: len(ring) - 1 steps, even load."""
    return TrafficReport((ring,))


def simulate_split_broadcast(pair: HamiltonianPair) -> TrafficReport:
    """Broadcast half of every node's message along each of two disjoint rings.

    The pair type guarantees edge-disjointness, so the measured contention
    must come out zero; the report states what was measured. The counts
    read the edge masks each ring keeps: derived by the doubling for a
    constructed pair, computed on first use for user-built rings.
    """
    _need("simulate_split_broadcast", HamiltonianPair, (pair,))
    if pair.kind != "cycles":
        raise InvalidPairError("split broadcast needs a pair of cycles")
    return TrafficReport(pair.members)
