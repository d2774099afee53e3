"""Two edge-disjoint Hamiltonian paths and cycles, built inductively.

Dimension 4 is the seed: two explicit edge-disjoint Hamiltonian paths
(constants below) running 0010 -> 0000 and 0110 -> 0100. Dimension n >= 5
doubles dimension n-1: lay the old path down in the 0-half, append the
reversed copy from the 1-half, and join the two through the twist edge
between their old end nodes. The resulting end nodes are

    first:   00 0^(n-5) 010  ->  10 0^(n-5) 010
    second:  00 0^(n-5) 110  ->  10 0^(n-5) 110

and each start/end pair is itself a twist edge, so closing both paths
yields two edge-disjoint Hamiltonian cycles for every n >= 4. Dimension 3
admits no such pair: each node has only three incident edges and two
edge-disjoint cycles would need four.

Unrolled, the doubling is the reflected Gray code over the seed. Position i
of a member of the dim-n pair of paths holds

    gray(i >> 4) << 4 | seed[(i & 15) ^ (15 if (i >> 4) & 1 else 0)]

with gray(h) = h ^ (h >> 1): each block of 16 positions is the seed path,
run backwards in the odd blocks, and consecutive blocks differ in the one
high bit the Gray code flips. For n >= 5 the last block, 2^(n-4) - 1, is odd
and its Gray code is 2^(n-5), so a path ends at its first node with the
leading bit set. Both seeds start at an even node, where the twist edge
flips the leading bit alone: that is why each path closes through a twist
edge.

The doubling runs on plain integer labels, in 4-byte arrays, and makes no
Python int per node: each level's reversed half is copied as bytes, and the
new high bit is set in the one byte column that holds it, by one table
lookup per entry (`_doubled_half`). `Path` and `Cycle` hold the dimension
plus their label values in immutable `bytes`, four a value, shown as a
read-only `memoryview` of format "I" (`values`), and read their edges as
value pairs (`edge_pairs()`, in ascending order) from per-node edge masks,
an `array("I")`; `nodes` makes the `NodeLabel`s only when it is read, and a
whole read builds its cube's labels from the cube, which later reads of that
cube share (`topology._hold`). The masks have two sources. A walk from
`Path(nodes)`, `from_values` or `pickle` is validated once and computes its
masks on first use. A constructed pair is not validated node by node: the
doubling carries the induction's proof. The seeds are validated as
`from_values` would, each seed tuple once per process (`_seed`); each level
doubles the mask array (each half holds a copy of the old path) and adds its
junction edge after checking that the old end is even, and a cycle's closing
edge is checked the same way at its start. So these masks are *derived*, and
`HamiltonianPair` checks on them that the members share no edge.
`verify.verify_pair` and the CLI `verify` stay the *measured* check: they
re-derive every verdict from the node sequences and the adjacency rule,
with none of the mask helpers.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, MutableSequence, Sequence
from functools import cache
from itertools import repeat

from ._record import _Record
from .errors import (
    AdjacencyError,
    DimensionError,
    InvalidPairError,
    LabelFormatError,
    LtqError,
    OverlapError,
)
from .topology import (
    Edge,
    NodeLabel,
    _adjacent_values,
    _edges_of,
    _hold,
    _labels,
    _mask_edges,
    _need,
    _node_masks,
    _sharing,
    _step_tops,
    check_dim,
    make_label,
)

_BASE_FIRST = (
    "0010", "0110", "0111", "0101", "0100", "1100", "1110", "1010",
    "1000", "1001", "1011", "1101", "1111", "0011", "0001", "0000",
)
_BASE_SECOND = (
    "0110", "1110", "1111", "1001", "0101", "0011", "0010", "1010",
    "1011", "0111", "0001", "1101", "1100", "1000", "0000", "0100",
)


def _check_values(dim: int, values: Sequence[int], *, closed: bool) -> tuple[int, list[int]]:
    """Validate a walk once: in-range, distinct, consecutively adjacent integers.

    Each property is one C-level pass; only a walk that fails the adjacency
    pass is rescanned step by step, so that its first bad step is named.
    Returns the least value and `topology._step_tops`.
    """
    if not all(map(isinstance, values, repeat(int))):
        raise LabelFormatError(f"label values for dim {dim} must be integers")
    low, high = min(values), max(values)
    if not 0 <= low <= high < 1 << dim:
        raise LabelFormatError(f"label values out of range for dim {dim}")
    if len(set(values)) != len(values):
        raise OverlapError("sequence visits a node more than once")
    try:
        return low, _step_tops(values, closed=closed)
    except KeyError:  # a tag outside the table: some step is no edge
        pass
    width = f"0{dim}b"
    for i in range(len(values) - 1):
        if not _adjacent_values(dim, values[i], values[i + 1]):
            raise AdjacencyError(
                f"nodes {values[i]:{width}} and {values[i + 1]:{width}} "
                f"(positions {i}, {i + 1}) are not adjacent"
            )
    raise AdjacencyError(f"closing edge {values[-1]:{width}} .. {values[0]:{width}} is not an edge")


class _Walk(_Record):
    """What Path and Cycle share: a dimension and a non-empty sequence of
    label values, kept in immutable `bytes`, four a value, that `values`
    shows as a read-only `memoryview` of format "I", so nothing writes them
    once checked. Equality and the hash read the dimension and the bytes; the
    pickled state and the repr show the values as a tuple, which loads
    through the checks of `from_values`. NodeLabels are made, or taken from
    the cube's labels `topology._CUBE` holds, only when `nodes`, iteration
    or `edge_set()` ask."""

    __slots__ = ("dim", "values", "_kept_masks")
    _fields = ("dim", "values")
    _closed = False

    def __init__(self, nodes: Iterable[NodeLabel]) -> None:
        nodes = tuple(nodes)
        _need(self.__class__.__name__, NodeLabel, nodes)
        self._store(None, [node.value for node in nodes], nodes)

    @classmethod
    def from_values(cls, dim: int, values: Iterable[int]) -> Path | Cycle:
        """Build from plain label values; the validation is that of `cls(nodes)`."""
        walk = cls.__new__(cls)
        walk.__setstate__((dim, values))
        return walk

    def __setstate__(self, state: tuple[int, Iterable[int]]) -> None:
        """The body of `from_values`, so that unpickling and `copy.deepcopy`
        validate `(dim, values)` and raise what it raises on a bad state."""
        dim, values = state
        check_dim(dim)
        self._store(dim, list(values), ())

    def _store(self, dim: int | None, values: list[int], nodes: tuple[NodeLabel, ...]) -> None:
        """Validate and keep `values`; a `dim` of None is the first node's."""
        if len(values) < (3 if self._closed else 1):
            what = "cycle needs at least 3 nodes" if self._closed else "path needs at least 1 node"
            raise LtqError(f"a {what}, got {len(values)}")
        dim = nodes[0].dim if dim is None else dim
        for node in nodes:
            if node.dim != dim:
                raise DimensionError(f"mixed dimensions in sequence: {dim} and {node.dim}")
        low = _check_values(dim, values, closed=self._closed)[0]
        self._keep(dim, array("I", values), low, None)

    def _keep(self, dim: int, values: array, low: int, masks: Sequence[int] | None) -> None:
        """Store proven `values`, least value `low`, as bytes, with the edge
        masks proven for them (None: computed on first use). The caller gives
        `values` up: a cycle is reversed in place when the neighbor before
        `low` is the smaller, and one copy makes the rotated bytes."""
        at = 0
        if self._closed:  # rotate after validating, so errors name input positions
            at = values.index(low)
            if values[at - 1] < values[at + 1 - len(values)]:
                values.reverse()
                at = len(values) - 1 - at
        view = memoryview(values)
        self._set((dim, memoryview(b"".join((view[at:], view[:at]))).cast("I")))
        object.__setattr__(self, "_kept_masks", (None if masks is None else self.values, masks))

    def __getstate__(self) -> tuple[int, tuple[int, ...]]:
        return self.dim, tuple(self.values)

    def _key(self) -> tuple[int, bytes]:
        return self.dim, self.values.obj

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[NodeLabel]:
        return _labels(self.dim, self.values)

    @property
    def nodes(self) -> tuple[NodeLabel, ...]:
        """The labels in order, read through the cube's labels: the first
        whole read of a walk as long as its cube builds them from the cube
        (`topology._hold`), and every label read of that cube reuses them
        until a whole read of another cube."""
        _hold(self.dim, self.values)
        return tuple(self)

    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every edge walked, as a (smaller, larger) label-value pair, in
        ascending order (see `topology._mask_edges`)."""
        return tuple(list(_mask_edges(self._masks())))  # a list grows faster than a tuple

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(_edges_of(self.dim, self.edge_pairs()))

    def _masks(self) -> Sequence[int]:
        """The edge masks by node value (`topology._node_masks`), derived by
        the doubling for a constructed member, else computed on first use,
        and kept while `values` is the very view they came from: a walk
        whose `values` were replaced in place recomputes."""
        values, masks = self._kept_masks
        if values is not self.values:
            values = list(self.values)  # one read of the view for both helpers
            masks = _node_masks(values, _step_tops(values, closed=self._closed))
            object.__setattr__(self, "_kept_masks", (self.values, masks))
        return masks


class Path(_Walk):
    """A sequence of at least one node: distinct, consecutively adjacent nodes."""

    __slots__ = ()

    @property
    def start(self) -> NodeLabel:
        return next(_labels(self.dim, self.values[:1]))

    @property
    def end(self) -> NodeLabel:
        return next(_labels(self.dim, self.values[-1:]))


class Cycle(_Walk):
    """A closed tour of at least three distinct nodes, stored canonically.

    Canonical form: the rotation starts at the minimum-value node, and of
    the two traversal directions the one with the smaller second node is
    kept. Construction from any rotation or direction yields the same
    object, so value comparison and golden files are stable.
    """

    __slots__ = ()
    _closed = True


class HamiltonianPair(_Record):
    """Two Hamiltonian paths (or cycles) over the same cube, sharing no edge.

    The pair holds its two members and nothing else: `dim` is read off the
    first, and the second must share it. The invariants are enforced at
    construction, and again when a pair is unpickled or deep-copied, so
    holding a pair is proof it was verified: both members visit all 2**dim
    nodes exactly once and their edge sets are disjoint, which
    `topology._sharing` checks on the edge masks each member keeps
    (`_Walk._masks`). A mask bit names an edge only for a step that is one:
    a member's own validation proves that, or, for `edh_paths` and
    `edh_cycles`, the seed check and the parity of each level's junction
    from which their masks are derived. The residual and the broadcast model
    read the same masks.
    """

    __slots__ = _fields = ("first", "second")

    def __init__(self, first: Path | Cycle, second: Path | Cycle) -> None:
        _need("HamiltonianPair", (Path, Cycle), (first, second))
        if type(first) is not type(second):
            raise InvalidPairError("pair members must both be paths or both be cycles")
        if second.dim != first.dim:
            raise DimensionError(f"member dim {second.dim} does not match pair dim {first.dim}")
        visits = min(len(first), len(second))  # distinct valid labels: at most 2**dim
        if visits != 1 << first.dim:  # so a full count is full coverage
            raise InvalidPairError(f"member visits {visits} nodes, expected {1 << first.dim}")
        if 2 in _sharing((first._masks(), second._masks())):
            raise InvalidPairError("pair members share an edge")
        self._set((first, second))

    dim = property(lambda self: self.first.dim, doc="The dimension both members share.")

    @property
    def kind(self) -> str:
        return "cycles" if isinstance(self.first, Cycle) else "paths"

    @property
    def members(self) -> tuple[Path | Cycle, Path | Cycle]:
        return (self.first, self.second)


def _check_pair_dim(dim: int) -> None:
    """`check_dim`, then refuse the dims below 4, which admit no pair."""
    check_dim(dim)
    if dim < 4:
        raise DimensionError(
            f"dim {dim} has no edge-disjoint Hamiltonian pair: every node of the"
            " 3-dimensional cube is incident to only three edges"
        )


def expected_endpoints(dim: int) -> tuple[NodeLabel, NodeLabel, NodeLabel, NodeLabel]:
    """(start, end) of the first and second constructed paths, in order.

    Dimension 4 uses the seed's end nodes; from dimension 5 on the pattern
    is 00 0^(dim-5) 010 -> 10 0^(dim-5) 010 and 00 0^(dim-5) 110 ->
    10 0^(dim-5) 110, each pair joined by a twist edge.
    """
    _check_pair_dim(dim)
    if dim == 4:
        names = ("0010", "0000", "0110", "0100")
    else:
        pad = "0" * (dim - 5)
        names = ("00" + pad + "010", "10" + pad + "010", "00" + pad + "110", "10" + pad + "110")
    labels = tuple(make_label(dim, name) for name in names)
    return labels[0], labels[1], labels[2], labels[3]


def _join(masks: MutableSequence[int], end: int, n: int, what: str) -> None:
    """OR the edge `end` .. `end | 2^(n-1)` into the masks of a level-n walk.
    The two differ in bit n-1 alone, which is an edge exactly when `end` is
    even: from an odd node the twist flips bit n-2 with it."""
    top = 1 << (n - 1)
    if end & 1:
        width = f"0{n}b"
        raise AdjacencyError(f"{what} {end:{width}} .. {end | top:{width}} is not an edge")
    masks[end] |= top
    masks[end | top] |= top


#: Entry k ORs bit k into a byte, as a 256-byte table for `bytes.translate`.
_OR_TABLES = tuple(bytes(b | 1 << k for b in range(256)) for k in range(8))


def _doubled_half(values: array, bit: int) -> bytearray:
    """The bytes of `values` reversed, with `bit` set in every entry: those
    of `map(or_, values[::-1], repeat(1 << bit))` when every entry is below
    2**bit, with no Python int per entry. The bit lies in one byte column of
    the array, set by one table lookup per entry; which column depends on
    the machine's byte order."""
    half = bytearray(values[::-1])
    step, byte = values.itemsize, bit >> 3
    at = byte if sys.byteorder == "little" else step - 1 - byte
    half[at::step] = half[at::step].translate(_OR_TABLES[bit & 7])
    return half


@cache
def _seed(seed: tuple[str, ...], closed: bool) -> tuple[bytes, int, bytes]:
    """A seed path's values, least value and edge masks, validated as
    `from_values` would, as bytes of 4-byte arrays: each seed tuple is
    validated once per process."""
    values = array("I", [int(bits, 2) for bits in seed])
    low, tops = _check_values(4, values, closed=closed)
    return values.tobytes(), low, _node_masks(values, tops).tobytes()


def _constructed_pair(member: type[Path] | type[Cycle], dim: int) -> HamiltonianPair:
    """Double both seed paths up to `dim` on label values and edge masks,
    and store each as a `member` (Path or Cycle) with the masks it derived.

    Only the seeds are validated, as `from_values` would, and each seed
    tuple once per process (`_seed`); every call copies them into fresh
    arrays. Level n lays the level n-1 path down in the 0-half and its
    reversed copy in the 1-half (`_doubled_half`, with no Python int per
    node), each half a copy of the level n-1 cube, so the mask array
    doubles; `_join` adds the junction at the old end, and a cycle's
    closing edge at its start, once their parity proves them edges.
    `HamiltonianPair` counts the members' nodes and checks on these masks
    that they share no edge.
    """
    _check_pair_dim(dim)
    members = []
    for seed in (_BASE_FIRST, _BASE_SECOND):
        values, low, masks = _seed(seed, member._closed and dim == 4)
        values, masks = array("I", values), array("I", masks)
        for n in range(5, dim + 1):
            masks *= 2
            _join(masks, values[-1], n, f"level-{n} junction")
            values.frombytes(_doubled_half(values, n - 1))
        if member._closed and dim > 4:
            _join(masks, values[0], dim, "closing edge")
        walk = member.__new__(member)
        walk._keep(dim, values, low, masks)
        members.append(walk)
    return HamiltonianPair(members[0], members[1])


def edh_paths(dim: int) -> HamiltonianPair:
    """Two edge-disjoint Hamiltonian paths of the dim-dimensional cube.

    End nodes match `expected_endpoints(dim)`. Built by doubling the
    dimension-4 seed one dimension at a time.
    """
    return _constructed_pair(Path, dim)


def edh_cycles(dim: int) -> HamiltonianPair:
    """Two edge-disjoint Hamiltonian cycles of the dim-dimensional cube.

    Each path of `edh_paths(dim)` closes through its start-end twist edge,
    an edge because the start is even. The members' masks are derived from
    the doubling, certified by the seed check and that parity at each level;
    the pair checks on them that the two closing edges are distinct and
    unused by either path. `verify.verify_pair` remains the measured check.
    """
    return _constructed_pair(Cycle, dim)
