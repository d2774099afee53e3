"""Locally twisted cube topology: bit-string labels, adjacency, and edges.

An n-dimensional locally twisted cube has 2**n nodes, each labeled by an
n-bit string b_{n-1} .. b_1 b_0 written most significant bit first. The
graph is defined recursively: the 2-dimensional cube is the four-cycle on
00, 01, 11, 10, and for n >= 3 the graph consists of two (n-1)-dimensional
copies, one holding the labels with leading bit 0 and one with leading
bit 1, joined by a twist edge from each node 0 b_{n-2} .. b_0 to
1 (b_{n-2} xor b_0) b_{n-3} .. b_0.

A node is a `NodeLabel`, the tuple `(dim, value)` of the bit width and the
label read as an unsigned integer (an int, never a bool); an edge is an
`Edge`, the tuple `(a, b)` of its two labels, smaller value first. Both
equal and order only against their own class. `NodeLabel(dim, value)`,
`make_label(dim, bits)` and `Edge(a, b)` validate once; where the parts are
already proven, the package builds labels and edges with no further check.
An entry point handed an object of the wrong type raises TypeError naming
that type (`_need`). The first whole read of a walk's `.nodes` over every
node of a cube keeps its labels, indexed by value, as `_CUBE`, and every
later label of that cube the package returns is one of them: one NodeLabel
per node. At most one cube's labels are kept (about 56 bytes a node); a
whole read of another cube replaces them.

Two neighbor routines are provided. `neighbors` applies the closed-form
rule the recursion unfolds to: flip bit 0, flip bit 1, or, for any
k >= 2, flip bit k and replace bit k-1 with b_{k-1} xor b_0. The mask of
each flip depends only on b_0, so one table `_FLIPS` holds them, and a
node's neighbors are its value XORed with each mask in one C-level pass.
`neighbors_recursive` instead expands the recursive definition literally
on bit strings: it passes the fixed leading bits down as a prefix,
recurses on the suffix down to the LTQ_2 edge list, and adds one twist
partner per level. It shares no code with the closed form, and exists as
the oracle the closed form is tested against.

Walks and edge sets are read in bulk as edge masks, one 4-byte `array("I")`
entry per node indexed by value (`MAX_DIM` is 30, so every label and mask
fits in 32 bits): bit k marks the node's edge of dimension k, the top set
bit of `u ^ v` for an edge u .. v. `_node_masks` makes a walk's masks and
`EdgeSet._without` removes them from the cube. An `EdgeSet` is a plain
frozen `_record._Record`, like every result of the package: it keeps its
masks in immutable bytes, equals and hashes by its dim and those bytes (not
as a set of `Edge`; `frozenset(es)` is one), is copied as itself, and is
loaded through its constructor's checks, which refuse a mask bit at or
above `dim`; `_without` stores the union of proven walks' masks without
that pass. The one writer of masks outside this module is the
construction, which derives its members' masks from the seeds':
`construction._constructed_pair` doubles the array at each level and
`construction._join` ORs in each junction's bits. `_mask_edges` is the one
edge enumerator: every edge list of the package comes out of it, in
ascending order.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import partial, reduce
from itertools import chain, repeat
from operator import and_, is_, itemgetter, lshift, or_, setitem, xor

from ._record import _Record
from .errors import AdjacencyError, DimensionError, LabelFormatError

#: Largest supported dimension. Keeps exhaustive edge sets addressable, and
#: every label and edge mask within a 4-byte `array("I")` entry.
MAX_DIM = 30


def check_dim(dim: int) -> None:
    """Raise DimensionError unless `dim` is an integer in [2, MAX_DIM]."""
    if not isinstance(dim, int) or not 2 <= dim <= MAX_DIM:
        raise DimensionError(f"dim must be an integer in [2, {MAX_DIM}], got {dim!r}")


def _ordering(op, symbol: str):
    """A comparison that orders a value only against another of its class."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self, other)
        if isinstance(other, tuple):  # else tuple's reflected `op` would answer
            raise TypeError(
                f"'{symbol}' not supported between instances of {type(self).__name__!r}"
                f" and {type(other).__name__!r}"
            )
        return NotImplemented

    return compare


class _Value(tuple):
    """A tuple validated when built that equals, orders and hashes like its
    items, but only against a value of its own class: it is unequal to a
    plain tuple, and ordering against one raises TypeError."""

    __slots__ = ()

    #: `cls._trusted(items)` builds the value with no check, for items the
    #: caller has already proven valid; `_labels` and `_edges_of` map it.
    _trusted = classmethod(tuple.__new__)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __copy__(self) -> _Value:  # immutable, as a plain tuple is
        return self

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    __lt__ = _ordering(tuple.__lt__, "<")
    __le__ = _ordering(tuple.__le__, "<=")
    __gt__ = _ordering(tuple.__gt__, ">")
    __ge__ = _ordering(tuple.__ge__, ">=")
    __hash__ = tuple.__hash__


class NodeLabel(_Value):
    """One node of a locally twisted cube: the tuple `(dim, value)` of a bit
    width and an unsigned value, validated when built; `NodeLabel(4, 3) !=
    (4, 3)`, and ordering against a tuple raises TypeError."""

    __slots__ = ()

    def __new__(cls, dim: int, value: int) -> NodeLabel:
        check_dim(dim)
        if isinstance(value, bool) or not isinstance(value, int):
            raise LabelFormatError(f"value must be an integer, got {value!r}")
        if not 0 <= value < 1 << dim:
            raise LabelFormatError(f"value {value} out of range for dim {dim}")
        return tuple.__new__(cls, (dim, value))

    dim = property(itemgetter(0), doc="The bit width.")
    value = property(itemgetter(1), doc="The label as an unsigned integer.")

    @property
    def bits(self) -> str:
        """Binary rendering, exactly `dim` characters, most significant bit first."""
        return format(self[1], f"0{self[0]}b")

    def __repr__(self) -> str:
        return f"NodeLabel(dim={self[0]}, value={self[1]})"

    def __str__(self) -> str:
        return self.bits


#: The labels of the last cube a whole walk's `.nodes` read (`_hold`), indexed
#: by value, or `()`: at most one cube's labels are kept.
_CUBE: tuple[NodeLabel, ...] = ()


def _labels(dim: int, values: Iterable[int]) -> Iterator[NodeLabel]:
    """A NodeLabel per value, unchecked: `dim` and every value are proven
    valid. The labels are `_CUBE`'s own when it holds the dim-cube."""
    cube = _CUBE  # one read: another thread may replace it
    if cube and cube[0][0] == dim:
        return map(cube.__getitem__, values)
    return map(NodeLabel._trusted, zip(repeat(dim), values))


def _hold(dim: int, values: Sequence[int], labels: Sequence[NodeLabel]) -> None:
    """Make `labels`, a walk's labels of `values`, the new `_CUBE`, scattered
    by value, when it holds no dim-cube and the scatter proves the values
    0 .. 2**dim - 1, each once, so that no tampered walk is held. Only a
    `memoryview` of format "I" is scattered: its entries are non-negative
    ints, so no bool or negative index reaches the scatter."""
    global _CUBE
    size = 1 << dim
    if len(values) != size or _CUBE and _CUBE[0][0] == dim:
        return
    if type(values) is not memoryview or values.format != "I":
        return
    cube = [None] * size
    try:
        any(map(setitem, repeat(cube), values, labels))  # C-level stores
    except IndexError:  # a value past the cube
        return
    if not any(map(is_, cube, repeat(None))):  # `size` values fill `size` slots
        _CUBE = tuple(cube)


class Edge(_Value):
    """An unordered pair of adjacent nodes: the tuple `(a, b)` of its two
    NodeLabels, smaller value first, validated when built."""

    __slots__ = ()

    def __new__(cls, a: NodeLabel, b: NodeLabel) -> Edge:
        _need("Edge", NodeLabel, (a, b))
        if a.dim != b.dim:
            raise DimensionError(f"edge endpoints differ in dim: {a.dim} vs {b.dim}")
        if a.value > b.value:
            a, b = b, a
        if not _adjacent_values(a.dim, a.value, b.value):
            raise AdjacencyError(f"{a.bits} and {b.bits} are not adjacent")
        return tuple.__new__(cls, (a, b))

    a = property(itemgetter(0), doc="The end with the smaller value.")
    b = property(itemgetter(1), doc="The end with the larger value.")

    @property
    def dim(self) -> int:
        return self[0][0]

    def __repr__(self) -> str:
        return f"Edge(a={self[0]!r}, b={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0].bits} {self[1].bits}"


def make_label(dim: int, bits: str) -> NodeLabel:
    """Parse a binary string of exactly `dim` characters into a NodeLabel."""
    check_dim(dim)
    if len(bits) != dim:
        raise LabelFormatError(f"expected {dim} characters, got {len(bits)}: {bits!r}")
    if bits.strip("01"):
        raise LabelFormatError(f"label must contain only 0 and 1: {bits!r}")
    return NodeLabel._trusted((dim, int(bits, 2)))


#: `_FLIPS[u & 1][k]` is the mask u XORs with to reach its neighbor in
#: dimension k: bit k alone for even u; bit 0, bit 1, or bits k and k - 1 for
#: odd u. Which edges a node has depends only on its parity.
_FLIPS = (
    tuple(1 << k for k in range(MAX_DIM)),
    (1, 2, *(3 << (k - 1) for k in range(2, MAX_DIM))),
)


def _neighbor_values(dim: int, value: int) -> list[int]:
    """The values of `value`'s neighbors, in dimension order."""
    return list(map(xor, repeat(value, dim), _FLIPS[value & 1]))


def _adjacent_values(dim: int, u: int, v: int) -> bool:
    """True iff `u ^ v` is a flip of `u` in one of the cube's `dim` dimensions."""
    d = u ^ v
    return 0 < d < 1 << dim and d == _FLIPS[u & 1][d.bit_length() - 1]


def _need(what: str, kind: type | tuple[type, ...], items: Sequence[object]) -> None:
    """Raise TypeError naming the type of the first of `items` that is no
    `kind`, a class or a tuple of classes, in one C-level pass when all are."""
    if not all(map(isinstance, items, repeat(kind))):
        bad = next(item for item in items if not isinstance(item, kind))
        names = " or ".join(k.__name__ for k in kind) if isinstance(kind, tuple) else kind.__name__
        article = "an" if names[0] in "AEIOU" else "a"
        raise TypeError(f"{what} needs {article} {names}, got {type(bad).__name__}")


def neighbors(x: NodeLabel) -> set[NodeLabel]:
    """All `dim` neighbors of `x`, by the closed-form rule.

    For dim 2 the rule degenerates to flipping either bit, which is exactly
    the four-cycle adjacency of LTQ_2.
    """
    _need("neighbors", NodeLabel, (x,))  # a plain tuple was never validated
    dim, value = x
    return set(_labels(dim, _neighbor_values(dim, value)))


#: The four defining edges of LTQ_2, and each 2-bit label's two neighbors.
_LTQ2_EDGES = (("00", "01"), ("00", "10"), ("01", "11"), ("10", "11"))
_LTQ2_NEIGHBORS = {
    bits: tuple(b if a == bits else a for a, b in _LTQ2_EDGES if bits in (a, b))
    for bits in ("00", "01", "10", "11")
}


def _twist_string(bits: str) -> str:
    lead = "1" if bits[0] == "0" else "0"
    second = "1" if bits[1] != bits[-1] else "0"
    return lead + second + bits[2:]


def _recursive_neighbor_strings(prefix: str, bits: str) -> list[str]:
    """The neighbors of `prefix + bits` inside the subcube that fixes `prefix`."""
    if len(bits) == 2:
        return list(map(prefix.__add__, _LTQ2_NEIGHBORS[bits]))
    found = _recursive_neighbor_strings(prefix + bits[0], bits[1:])
    found.append(prefix + _twist_string(bits))
    return found


def neighbors_recursive(x: NodeLabel) -> set[NodeLabel]:
    """All neighbors of `x`, computed by literal recursion on bit strings.

    Base case: the explicit LTQ_2 edge list. Level n: the neighbors within
    x's (n-1)-dimensional half share its leading bit, so the recursion
    moves that bit onto the prefix it passes down and recurses on the
    (n-1)-bit suffix; the level adds the one twist-edge partner, the prefix
    plus the suffix with its leading bit flipped and its second bit xor its
    last. Each neighbor string is built once, at the level that finds it,
    and the labels are parsed in one pass after one check that every string
    is `dim` characters long. Agrees with `neighbors` everywhere; kept
    deliberately independent of the bitwise closed form.
    """
    _need("neighbors_recursive", NodeLabel, (x,))
    dim = x.dim
    found = _recursive_neighbor_strings("", x.bits)
    lengths = set(map(len, found))
    if lengths != {dim}:
        raise LabelFormatError(f"recursion built labels of lengths {sorted(lengths)}, not {dim}")
    return set(_labels(dim, map(int, found, repeat(2))))


def is_adjacent(x: NodeLabel, y: NodeLabel) -> bool:
    """True iff `x` and `y` are joined by an edge."""
    _need("is_adjacent", NodeLabel, (x, y))
    if x.dim != y.dim:
        raise DimensionError(f"cannot compare labels of dim {x.dim} and {y.dim}")
    return _adjacent_values(x.dim, x.value, y.value)


#: `_STEP_TOPS[(u ^ v) << 1 | (u & 1)]` is the top set bit of `u ^ v` for each
#: step u -> v along an edge, read off `_FLIPS`: which differences are edges
#: depends only on the parity of u, so a step whose tag is missing is no edge.
_STEP_TOPS = {
    flip << 1 | parity: 1 << k for parity in (0, 1) for k, flip in enumerate(_FLIPS[parity])
}


def _step_tops(values: Sequence[int], *, closed: bool) -> list[int]:
    """The top bit of the step leaving each position of a walk over in-range
    values (0 at the end of an open walk), which names the step's edge among
    the n at either end; KeyError if a step is no edge. One `_STEP_TOPS`
    lookup per step, in C-level passes with no tuple per step."""
    ends = chain(values[1:], values[:1]) if closed else values[1:]
    tags = map(or_, map(lshift, map(xor, values, ends), repeat(1)), map(and_, values, repeat(1)))
    tops = list(map(_STEP_TOPS.__getitem__, tags))
    if len(tops) < len(values):
        tops.append(0)  # no step leaves the last node of an open walk
    return tops


def _node_masks(values: Sequence[int], tops: list[int]) -> array:
    """A walk's edge masks by node, from its `_step_tops`: entry u ORs the top
    bits of the steps entering and leaving u, in a new array that ends at the
    walk's largest value (not 2**dim). Each node is visited once."""
    masks = array("I", [0]) * (max(values, default=-1) + 1)
    any(map(setitem, repeat(masks), values, map(or_, tops, chain(tops[-1:], tops))))  # C-level
    return masks


def _union(masks: Sequence[array], size: int) -> array:
    """The entrywise OR of one or more mask arrays, `size` entries long, in
    one C-level pass that builds no array but the result."""
    padded = (chain(walk, repeat(0, size - len(walk))) for walk in masks)
    return array("I", reduce(partial(map, or_), padded))


def _sharing(masks: Sequence[array]) -> dict[int, int]:
    """{j: edges exactly j walks use}: each mask array, read as one integer, joins
    bit-sliced levels (level j: bits set in over j walks; an edge sets a bit per end)."""
    levels: list[int] = []
    for walk in map(int.from_bytes, masks, repeat("little")):
        levels = list(map(or_, [*levels, 0], [walk, *map(and_, levels, repeat(walk))]))
    more = [level.bit_count() // 2 for level in levels] + [0]
    return {j: n - fewer for j, (n, fewer) in enumerate(zip(more, more[1:]), 1) if n > fewer}


def _holds(masks: Sequence[int], u: int, v: int) -> bool:
    """Whether the mask array holds the edge u .. v, u < v (none past its end)."""
    return u < len(masks) and masks[u] >> ((u ^ v).bit_length() - 1) & 1 == 1


def _mask_edges(masks: Iterable[int]) -> Iterator[tuple[int, int]]:
    """Every edge a node-indexed mask array holds, as (smaller, larger) value
    pairs in strictly ascending order: the edge of dimension k leads up from
    v exactly when v lacks bit k (its flip sets bit k and no higher bit), so
    v's larger ends ascend with k. Nodes past the array's end have none."""
    for v, mask in enumerate(masks):
        up, flips = mask & ~v, _FLIPS[v & 1]
        while up:
            low = up & -up
            yield v, v ^ flips[low.bit_length() - 1]
            up ^= low


def edge_pairs(dim: int) -> Iterator[tuple[int, int]]:
    """Every edge of the dim-dimensional cube as a (smaller, larger) value
    pair, in strictly ascending order (see `_mask_edges`)."""
    check_dim(dim)
    return _mask_edges(repeat((1 << dim) - 1, 1 << dim))


class EdgeSet(_Record):
    """A read-only set of edges of one cube: every edge of the dim-cube
    except some removed ones, held as one edge mask per node (bit k set when
    the node's edge of dimension k is removed), in immutable `bytes` that
    `_removed` shows as a read-only `memoryview` of format "I", empty when
    none is removed. `len` and `in` are answered from the masks alone, and
    `_fixed_bits` proves some sets disconnected from them. `.pairs` (a tuple
    of value pairs) and iteration (an `Edge` each) list the members in
    ascending order; `frozenset(es)` is the set for set algebra. As a record
    it equals and hashes by its dim and mask bytes, is frozen, `copy.copy`
    returns it, and a load runs `__init__`. `EdgeSet(dim)` is the whole cube,
    and `EdgeSet._without(dim, masks)` the cube minus the edges of some
    walks, read from their mask arrays.
    """

    __slots__ = ("dim", "_removed", "_popcounts")
    _fields = ("dim", "_removed")

    def __init__(self, dim: int, _removed: Sequence[int] = ()) -> None:
        """Every edge of the dim-cube but those the per-node masks `_removed`
        mark: none, or one mask below bit `dim` for each of the 2**dim nodes."""
        check_dim(dim)
        try:  # a list first, so that bytes are read as masks, not as machine words
            masks = array("I", _removed if isinstance(_removed, array) else list(_removed))
        except OverflowError:
            raise DimensionError(f"a removed mask is negative or past bit 31, dim {dim}") from None
        if masks and len(masks) != 1 << dim:
            raise DimensionError(f"dim {dim} needs {1 << dim} removed masks, got {len(masks)}")
        if max(masks, default=0) >> dim:
            raise DimensionError(f"a removed mask sets bit {max(masks).bit_length() - 1}, past dim {dim}")
        removed = masks.tobytes() if any(masks) else b""
        self._set((dim, memoryview(removed).cast("I")))
        counts = Counter(map(int.bit_count, masks)) if removed else {0: 1 << dim}
        object.__setattr__(self, "_popcounts", counts)

    @classmethod
    def _without(cls, dim: int, masks: Sequence[array]) -> EdgeSet:
        """The dim-cube minus every edge the mask arrays hold, such as those
        each `Path` or `Cycle` keeps; none may reach past node 2**dim. With
        no arrays it is the whole cube."""
        return cls(dim, _union(masks, 1 << dim) if masks else ())

    def __getstate__(self) -> tuple[int, array]:
        # an array pickles portably, and `__init__` loads it as it loads any sequence
        return self.dim, array("I", self._removed.obj)

    def _key(self) -> tuple[int, bytes]:
        return self.dim, self._removed.obj

    def _degree_histogram(self) -> dict[int, int]:
        """Node count by degree in this set: dim minus a mask's popcount."""
        return {self.dim - k: n for k, n in self._popcounts.items()}

    def _fixed_bits(self) -> int:
        """The label bits below `dim` that no member edge flips, as a mask.

        A member edge at a node of parity p flips `_FLIPS[p][k]` for a k not
        removed at every node of parity p (the AND of their masks). A bit no
        such flip touches never changes along an edge, so if any is fixed the
        set is disconnected and holds no Hamiltonian cycle. No edge is built.
        """
        flipped = 0
        for parity in (0, 1):
            gone = reduce(and_, self._removed[parity::2] or [0])  # empty when none is removed
            kept = (f for k, f in enumerate(_FLIPS[parity][: self.dim]) if not gone >> k & 1)
            flipped = reduce(or_, kept, flipped)
        return ~flipped & (1 << self.dim) - 1

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The members as (smaller, larger) value pairs, in ascending order."""
        full, removed = (1 << self.dim) - 1, self._removed or repeat(0, 1 << self.dim)
        return tuple(list(_mask_edges(map(xor, repeat(full), removed))))  # a list grows faster

    def __len__(self) -> int:
        removed = sum(k * n for k, n in self._popcounts.items()) // 2
        return (self.dim << (self.dim - 1)) - removed

    def __contains__(self, edge: object) -> bool:
        if not isinstance(edge, Edge) or edge.dim != self.dim:
            return False
        return not _holds(self._removed, edge.a.value, edge.b.value)

    def __iter__(self) -> Iterator[Edge]:
        return _edges_of(self.dim, self.pairs)

    def __repr__(self) -> str:
        return f"EdgeSet(dim={self.dim}, {len(self)} edges)"


def _edges_of(dim: int, pairs: Iterable[tuple[int, int]]) -> Iterator[Edge]:
    """An `Edge` per (smaller, larger) pair of adjacent values of the proven
    dimension `dim`, in the order given, unchecked, with one NodeLabel per
    node; `pairs` must be re-iterable."""
    nodes = dict.fromkeys(chain.from_iterable(pairs))
    label = dict(zip(nodes, _labels(dim, nodes)))
    smaller, larger = (map(label.__getitem__, map(itemgetter(k), pairs)) for k in (0, 1))
    return map(Edge._trusted, zip(smaller, larger))


def edges(dim: int) -> EdgeSet:
    """Every edge of the dim-dimensional cube, each stored smaller value
    first: an `EdgeSet` of dim * 2**(dim-1) members that removes none."""
    return EdgeSet(dim)

