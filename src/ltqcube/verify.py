"""Independent checkers and small-scale exhaustive oracles.

The checkers re-derive every verdict from raw node sequences and the
adjacency rule; the residual, like the broadcast model, reads the edge masks
each ring keeps, which the doubling derives for a constructed pair. The
enumeration engine exhaustively lists Hamiltonian cycles at desk scale (dim
<= 4 without a limit) and doubles as a bounded search for a Hamiltonian
cycle in the edges a pair leaves unused. The constructed pair's residual
never changes label bits 0 and 2 at any dim >= 5, so `EdgeSet._fixed_bits`
refutes it before any search; that says nothing of other pairs: LTQ_6 has
three edge-disjoint Hamiltonian cycles.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from itertools import chain, combinations, repeat
from operator import and_, eq, getitem, itemgetter, lshift, or_, setitem, xor

from ._record import _Record
from .construction import Cycle, HamiltonianPair, Path, edh_cycles
from .errors import DimensionError, InvalidPairError, LtqError, OracleScopeError
from .topology import (
    Edge,
    EdgeSet,
    NodeLabel,
    _adjacent_values,
    _need,
    _neighbor_values,
    check_dim,
)

#: Default node-expansion budget for the bounded third-cycle search.
DEFAULT_SEARCH_BUDGET = 10_000_000


class CheckResult(_Record):
    """One named pass/fail check, with an optional detail."""

    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        self._set((name, passed, detail))


class VerificationReport(_Record):
    """Named pass/fail checks about one subject; passes iff all checks do."""

    __slots__ = _fields = ("subject", "checks")

    def __init__(self, subject: str, checks: tuple[CheckResult, ...]) -> None:
        self._set((subject, checks))

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def lines(self) -> list[str]:
        out = [f"subject: {self.subject}"]
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            suffix = f": {check.detail}" if check.detail else ""
            out.append(f"[{mark}] {check.name}{suffix}")
        out.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return out

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
            "passed": self.passed,
        }


def _raw(
    obj: Path | Cycle | Sequence[NodeLabel], what: str
) -> tuple[Mapping[int, int], Sequence[int]]:
    """Label counts by dimension, and values in walk order: a walk's own
    4-byte view, which each check below reads once, as a list it drops when
    done, so that at most one walk's values are Python ints at a time; or a
    label list's values as a list, which no check copies again. Any other
    item than a NodeLabel raises TypeError for the checker `what`, so every
    value read is an int in [0, 2**MAX_DIM)."""
    if isinstance(obj, (Path, Cycle)):
        return {obj.dim: len(obj)}, obj.values
    nodes = obj if isinstance(obj, (list, tuple)) else tuple(obj)
    _need(what, NodeLabel, nodes)
    return Counter(map(itemgetter(0), nodes)), list(map(itemgetter(1), nodes))


def _sequence_checks(
    dim: int, dims: Mapping[int, int], values: Sequence[int], *, closed: bool
) -> list[CheckResult]:
    check_dim(dim)
    values = values if type(values) is list else list(values)  # a walk's view, read once
    checks = []
    expected = 1 << dim
    checks.append(
        CheckResult("node count", len(values) == expected, f"{len(values)} of {expected}")
    )
    bad_dim = len(values) - dims.get(dim, 0)
    checks.append(
        CheckResult(
            "label dimensions",
            not bad_dim,
            "" if not bad_dim else f"{bad_dim} labels of wrong dim",
        )
    )
    if bad_dim:
        return checks
    bits = f"0{dim}b"
    dupes = []
    if not _distinct(values):  # counted only to name the first repeat
        dupes = [v for v, c in Counter(values).items() if c > 1]
    checks.append(
        CheckResult(
            "nodes distinct",
            not dupes,
            "" if not dupes else f"repeated: {dupes[0]:{bits}}",
        )
    )
    broken = _first_non_edge(dim, values)
    checks.append(
        CheckResult(
            "consecutive adjacency",
            broken is None,
            ""
            if broken is None
            else f"{values[broken]:{bits}} .. {values[broken + 1]:{bits}} at position {broken}",
        )
    )
    if closed:
        closes = len(values) >= 3 and _adjacent_values(dim, values[-1], values[0])
        detail = "" if closes else "an empty walk has no closing edge"
        if 0 < len(values) < 3:  # the words of `Cycle.from_values`
            detail = f"a cycle needs at least 3 nodes, got {len(values)}"
        elif values and not closes:
            detail = f"{values[-1]:{bits}} .. {values[0]:{bits}} is not an edge"
        checks.append(CheckResult("closing edge", closes, detail))
    return checks


def _distinct(values: Sequence[int]) -> bool:
    """True when the values are shown distinct: each marks its byte of a
    table that ends at the largest value, and no two mark the same one.
    False when two do, or when the walk is too sparse for the table;
    `Counter` then decides."""
    size = max(values, default=-1) + 1
    if size > len(values) << 5:  # a byte per value up to the largest would cost more
        return False
    marks = bytearray(size)
    any(map(setitem, repeat(marks), values, repeat(1)))  # C-level stores
    return marks.count(1) == len(values)


def _first_non_edge(dim: int, values: Sequence[int]) -> int | None:
    """The position of the first step of a walk over in-range values that
    is not an edge, or None.

    Which differences are edges depends only on the parity of the node
    stepped from, so each step u -> v is tagged `(u ^ v) << 1 | (u & 1)` and
    the tags are tested in one set against those of the neighbors of nodes
    0 and 1. Only a walk that fails is rescanned step by step.
    """
    parities = map(and_, values, repeat(1))
    tags = set(map(or_, map(lshift, map(xor, values, values[1:]), repeat(1)), parities))
    if tags <= {(v ^ w) << 1 | v for v in (0, 1) for w in _neighbor_values(dim, v)}:
        return None
    steps = range(len(values) - 1)
    return next(i for i in steps if not _adjacent_values(dim, values[i], values[i + 1]))


def _successors(values: Sequence[int], closed: bool) -> Sequence[int]:
    """Where each step of a walk ends: the next value, and for a closed walk
    of two or more values the first one after the last."""
    return values[1:] + values[:1] if closed and len(values) > 1 else values[1:]


def _no_shared_step(
    a: Sequence[int], a_closed: bool, b: Sequence[int], b_closed: bool
) -> bool:
    """True when the walks are shown to step between no common pair of
    values, in either direction, with no object per step: `after[u]` holds
    the value `a` steps to from u, and no step of `b` is found there either
    way round. Each walk is read once, as a list, one after the other.
    False when some step of `b` is found, or when `a` leaves some value
    twice or is too sparse for the array, or `b` holds a value past it."""
    a = a if type(a) is list else list(a)
    a_next = _successors(a, a_closed)
    size, steps = max(a, default=-1) + 1, len(a_next)
    if size > len(a) << 5:  # four bytes per value up to the largest would cost more
        return False
    after = array("i", [-1]) * size
    try:
        any(map(setitem, repeat(after), a, a_next))  # C-level stores
        del a, a_next
        if after.count(-1) != size - steps:  # a step overwrote another
            return False
        b = b if type(b) is list else list(b)
        b_next = _successors(b, b_closed)
        found = any(map(eq, map(getitem, repeat(after), b), b_next))
        return not (found or any(map(eq, map(getitem, repeat(after), b_next), b)))
    except IndexError:  # `b` holds a value past `a`'s largest
        return False


def _shared_edges(
    a: Sequence[int], a_closed: bool, b: Sequence[int], b_closed: bool
) -> set[tuple[int, int]]:
    """Every (smaller, larger) value pair that both walks step between, in
    either direction. Walks `_no_shared_step` clears share none; any other
    is compared step by step as integer keys, not as edges, so the answer
    stays exact on walks that hold non-edges or repeated steps."""
    if _no_shared_step(a, a_closed, b, b_closed):
        return set()
    a, b = list(a), list(b)
    width = max(max(a, default=0), max(b, default=0)).bit_length()

    def keys(tails: Sequence[int], heads: Sequence[int]) -> Iterator[int]:
        return map(or_, map(lshift, tails, repeat(width)), heads)  # u << width | v

    a_next, b_next = _successors(a, a_closed), _successors(b, b_closed)
    hits = set(keys(a, a_next)).intersection(chain(keys(b, b_next), keys(b_next, b)))
    low = (1 << width) - 1
    return {(min(k >> width, k & low), max(k >> width, k & low)) for k in hits}


def is_hamiltonian_path(dim: int, p: Path | Sequence[NodeLabel]) -> bool:
    """True iff `p` visits every node of the dim-cube exactly once along edges.

    Raises DimensionError on a dim outside [2, MAX_DIM] and TypeError on an
    item that is no NodeLabel; broken sequences, empty ones too, simply fail.
    """
    checks = _sequence_checks(dim, *_raw(p, "is_hamiltonian_path"), closed=False)
    return all(check.passed for check in checks)


def is_hamiltonian_cycle(dim: int, c: Cycle | Sequence[NodeLabel]) -> bool:
    """As `is_hamiltonian_path`, plus the closing edge back to the start."""
    checks = _sequence_checks(dim, *_raw(c, "is_hamiltonian_cycle"), closed=True)
    return all(check.passed for check in checks)


def are_edge_disjoint(
    a: Path | Cycle | Sequence[NodeLabel], b: Path | Cycle | Sequence[NodeLabel]
) -> bool:
    """True iff the two walks share no edge, regardless of direction.

    Only a `Cycle` counts its closing edge: a plain sequence of labels, or a
    `Path`, is an open walk. Wrap a sequence in `Cycle` to count it closed.
    """
    (dims_a, values_a), (dims_b, values_b) = (_raw(w, "are_edge_disjoint") for w in (a, b))
    if len(dims_a.keys() | dims_b.keys()) > 1:
        raise DimensionError("cannot compare walks of different dimensions")
    return not _shared_edges(values_a, isinstance(a, Cycle), values_b, isinstance(b, Cycle))


def verify_pair(
    dim: int,
    first: Path | Cycle | Sequence[NodeLabel],
    second: Path | Cycle | Sequence[NodeLabel],
    kind: str = "cycles",
) -> VerificationReport:
    """Run every checker over a claimed Hamiltonian pair and report by name."""
    if kind not in ("paths", "cycles"):
        raise LtqError(f"kind must be 'paths' or 'cycles', got {kind!r}")
    members = [(*_raw(m, "verify_pair"), isinstance(m, Cycle)) for m in (first, second)]
    return _verify_members(dim, kind, members)


def _verify_values(
    dim: int, kind: str, first: Sequence[int], second: Sequence[int]
) -> VerificationReport:
    """`verify_pair` over two walks given as label values of dimension `dim`."""
    return _verify_members(dim, kind, [({dim: len(m)}, m, False) for m in (first, second)])


def _verify_members(dim: int, kind: str, members: Sequence[tuple]) -> VerificationReport:
    """The checks of `verify_pair` over each member's (label count by dim,
    label values, whether it is a Cycle); `kind` is 'paths' or 'cycles'."""
    closed = kind == "cycles"
    checks: list[CheckResult] = []
    for tag, (dims, values, _) in zip(("first", "second"), members):
        for check in _sequence_checks(dim, dims, values, closed=closed):
            checks.append(CheckResult(f"{tag}: {check.name}", check.passed, check.detail))
    # a Cycle's closing edge is one of its edges whatever `kind` says
    (_, first, first_cycle), (_, second, second_cycle) = members
    shared = _shared_edges(first, closed or first_cycle, second, closed or second_cycle)
    detail = ""
    if shared:
        u, v = min(shared)
        detail = f"{len(shared)} shared, e.g. {u:0{dim}b} .. {v:0{dim}b}"
    checks.append(CheckResult("pair: edge-disjoint", not shared, detail))
    return VerificationReport(f"{kind} pair, dim {dim}", tuple(checks))


def _search_cycles(
    adjacency: dict[int, Sequence[int]],
    *,
    limit: int | None = None,
    budget: int | None = None,
) -> tuple[list[tuple[int, ...]], bool, int]:
    """Backtracking Hamiltonian-cycle search over an integer adjacency map.

    Node values index flat arrays, and every neighbor list must be free of
    duplicates. Anchored at the smallest node, extending toward the smallest
    unvisited neighbor first, so the output order is deterministic. Each
    undirected cycle is emitted exactly once, oriented with its second node
    smaller than its last.

    A branch is pruned when some unvisited node keeps fewer than two
    available neighbors (unvisited nodes, the current tail, or the anchor).
    Each node holds a counter of its available neighbors. Extending the path
    from tail t removes only t from the available set (nothing when t is the
    anchor), so only t's neighbors lose a count, and only they can newly
    fail the rule; every other unvisited node passed it on an earlier step.
    A push therefore costs O(degree), and the decrements are undone when the
    branch is pruned or backtracked.

    Two kinds of graph have no Hamiltonian cycle and are answered without
    searching, with no cycle and 0 expansions: one with a node of degree
    < 2, and a disconnected one, which one traversal from the anchor finds.
    On every other graph the search tree is the same as without that check.

    Returns (cycles, exhausted, expansions). `exhausted` is True when the
    node-expansion budget ran out before the search space did; when it is
    False and `limit` was not reached, `cycles` is every cycle there is.
    """
    n = len(adjacency)
    found: list[tuple[int, ...]] = []
    if n < 3 or any(len(ws) < 2 for ws in adjacency.values()):
        return found, False, 0
    anchor = min(adjacency)
    reached = {anchor}
    frontier = [anchor]
    while frontier:
        for w in adjacency[frontier.pop()]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if len(reached) < n:
        return found, False, 0
    size = max(adjacency) + 1
    order: list[tuple[int, ...]] = [()] * size
    for v, ws in adjacency.items():
        order[v] = tuple(sorted(ws))
    available = [len(ws) for ws in order]
    visited = bytearray(size)

    visited[anchor] = 1
    path = [anchor]
    stack: list[Iterator[int]] = [iter(order[anchor])]
    expansions = 0
    exhausted = False
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                visited[path.pop()] = 0
                if path[-1] != anchor:
                    for u in order[path[-1]]:
                        available[u] += 1
            continue
        if visited[step]:
            continue
        if budget is not None and expansions >= budget:
            exhausted = True
            break
        expansions += 1
        tail = path[-1]
        path.append(step)
        if len(path) == n:
            if anchor in order[step] and path[1] < step:
                found.append(tuple(path))
                if limit is not None and len(found) >= limit:
                    break
            path.pop()
            continue
        visited[step] = 1
        if tail != anchor:
            lost = order[tail]
            for u in lost:
                available[u] -= 1
            if any(available[u] < 2 and not visited[u] for u in lost):
                for u in lost:
                    available[u] += 1
                visited[step] = 0
                path.pop()
                continue
        stack.append(iter(order[step]))
    return found, exhausted, expansions


def _check_count(name: str, count: int) -> None:
    """Refuse a search `limit` or `budget` that is not a positive int, or is a bool."""
    if isinstance(count, bool) or not isinstance(count, int):
        raise LtqError(f"{name} must be an integer, got {count!r}")
    if count < 1:
        raise LtqError(f"{name} must be positive, got {count}")


def enumerate_hamiltonian_cycles(dim: int, limit: int | None = None) -> list[Cycle]:
    """All Hamiltonian cycles of the dim-cube, canonical, deterministic order.

    Exhaustive only for dim <= 4 (at most 16 nodes). Dim 5 needs an
    explicit `limit`, at which the enumeration stops. Higher dims are
    refused: `limit` bounds the answer but not the search, which at dim 6
    runs for minutes before its first cycle. `residual_analysis` and
    `search_third_cycle` take a node-expansion budget instead.
    """
    check_dim(dim)
    if dim > 5:
        raise OracleScopeError(
            f"enumeration is guarded at dim <= 5, got {dim} (a limit bounds the answer, not"
            " the search); for a budget-limited search use `residual --budget`"
        )
    if dim > 4 and limit is None:
        raise OracleScopeError(
            f"exhaustive enumeration is guarded at dim <= 4; pass limit= for dim {dim}"
        )
    if limit is not None:
        _check_count("limit", limit)
    adjacency = {v: _neighbor_values(dim, v) for v in range(1 << dim)}
    raw, _, _ = _search_cycles(adjacency, limit=limit)
    return [Cycle.from_values(dim, cycle) for cycle in raw]


class PairExistence(_Record):
    """Outcome of the exhaustive two-disjoint-cycles question at one dim."""

    __slots__ = _fields = ("dim", "exists", "witness", "certificates")

    def __init__(
        self, dim: int, exists: bool, witness: HamiltonianPair | None, certificates: tuple[str, ...]
    ) -> None:
        self._set((dim, exists, witness, certificates))


def exists_two_edge_disjoint_hc(dim: int) -> PairExistence:
    """Decide, exhaustively, whether two edge-disjoint Hamiltonian cycles exist.

    Guarded to dim 3 and 4. Dimension 3 is refuted two independent ways:
    the degree argument (two edge-disjoint cycles need degree >= 4 at every
    node, but the graph is 3-regular) and a scan over every pair of
    enumerated Hamiltonian cycles. Dimension 4 is confirmed with the
    constructed pair as witness.
    """
    check_dim(dim)
    if dim not in (3, 4):
        raise OracleScopeError(f"exhaustive pair existence is guarded to dim 3 and 4, got {dim}")
    if dim == 3:
        degrees = {len(set(_neighbor_values(3, v))) for v in range(8)}
        cycles = enumerate_hamiltonian_cycles(3)
        disjoint = sum(1 for a, b in combinations(cycles, 2) if are_edge_disjoint(a, b))
        if degrees != {3} or disjoint:  # a raise, not an assert: `python -O` keeps it
            raise AssertionError(
                f"dim-3 proof fails: degrees {sorted(degrees)}, {disjoint} edge-disjoint pairs"
            )
        certificates = (
            "degree argument: two edge-disjoint Hamiltonian cycles need degree >= 4 "
            "at every node; every node here has degree 3",
            f"exhaustive scan: {len(cycles)} Hamiltonian cycles, "
            f"{disjoint} edge-disjoint pairs among {len(cycles) * (len(cycles) - 1) // 2}",
        )
        return PairExistence(3, False, None, certificates)

    pair = edh_cycles(4)
    failed = [c.name for c in verify_pair(4, pair.first, pair.second).checks if not c.passed]
    if failed:  # a raise, not an assert: `python -O` keeps it
        raise AssertionError(f"constructed witness failed its own checkers: {failed}")
    certificates = (
        "constructive: the dimension-4 pair closes into two Hamiltonian cycles",
        "checkers: both members Hamiltonian, edge sets disjoint",
    )
    return PairExistence(4, True, pair, certificates)


class ResidualAnalysis(_Record):
    """What remains of the cube once both constructed cycles are removed.

    When a third-cycle search ran, `search_verdict` says how strong its
    answer is: "found" (a cycle is in `third_cycle_found`), "refuted" (the
    residual of this pair holds no Hamiltonian cycle; this says nothing
    about other pairs or about LTQ_n itself) or "budget exhausted" (no
    answer). "refuted" comes either from a search that covered its whole
    space or, with 0 expansions, from a residual that a fixed label bit
    (`EdgeSet._fixed_bits`), some node of degree < 2 or a split into
    components rules out; the constructed pair's residual keeps bits 0 and
    2 at every dim >= 5, so no edge list is built for it. `search_expansions`
    counts the nodes the search expanded.

    `unused_edges` is an `EdgeSet` of the cube minus the edges the rings'
    kept masks hold (see `HamiltonianPair`); any other collection raises
    TypeError. It equals and hashes by its removed masks, so comparing or
    hashing two analyses lists no edge. `degree_histogram` is *measured*
    at every node as dim minus its mask's popcount; the residual's size is
    *derived* from the same popcounts (the cube's edges minus half their
    sum). A pair sharing an edge leaves one bit fewer at both ends, so it
    fails both checks below.
    """

    __slots__ = _fields = (
        "dim", "unused_edges", "degree_histogram", "third_cycle_found",
        "search_budget", "search_verdict", "search_expansions",
    )

    def __init__(
        self, dim: int, unused_edges: EdgeSet, degree_histogram: dict[int, int],
        third_cycle_found: Cycle | None = None, search_budget: int | None = None,
        search_verdict: str | None = None, search_expansions: int | None = None,
    ) -> None:
        _need("ResidualAnalysis", EdgeSet, (unused_edges,))
        expected = (dim << (dim - 1)) - (1 << (dim + 1))
        if len(unused_edges) != expected:
            raise InvalidPairError(f"residual has {len(unused_edges)} edges, expected {expected}")
        if degree_histogram != {dim - 4: 1 << dim}:
            raise InvalidPairError("residual graph is not uniformly (dim - 4)-regular")
        self._set((dim, unused_edges, degree_histogram, third_cycle_found, search_budget,
                   search_verdict, search_expansions))

    def _key(self) -> tuple:
        fields = self.__getstate__()
        return fields[:2] + fields[3:]  # all but degree_histogram


def residual_analysis(
    dim: int, pair: HamiltonianPair, *, search_budget: int | None = None
) -> ResidualAnalysis:
    """Edges unused by a verified cycle pair, their degrees, and optionally
    a bounded hunt for a third edge-disjoint Hamiltonian cycle among them.
    Without a search the work is one O(2**dim) union of the masks each
    ring keeps (derived by the doubling for a constructed pair, computed on
    first use for user-built rings); a residual the fixed-bits
    certificate refutes from them costs 0 expansions and builds no edge list
    or adjacency map.
    """
    check_dim(dim)
    if search_budget is not None:
        _check_count("budget", search_budget)
    _need("residual_analysis", HamiltonianPair, (pair,))
    if pair.kind != "cycles":
        raise InvalidPairError("residual analysis needs a pair of cycles")
    if pair.dim != dim:
        raise DimensionError(f"pair dim {pair.dim} does not match {dim}")
    unused = EdgeSet._without(dim, [member._masks() for member in pair.members])
    histogram = unused._degree_histogram()
    if search_budget is None:
        return ResidualAnalysis(dim, unused, histogram)
    third, verdict, expansions = _bounded_cycle_search(dim, unused, search_budget)
    return ResidualAnalysis(dim, unused, histogram, third, search_budget, verdict, expansions)


def _bounded_cycle_search(
    dim: int, pairs: EdgeSet | Iterable[tuple[int, int]], budget: int
) -> tuple[Cycle | None, str, int]:
    """Search distinct edges (u, v) for a Hamiltonian cycle of all 2^dim nodes.

    An `EdgeSet` with a fixed bit (`EdgeSet._fixed_bits`) is refuted with 0
    expansions before any of its pairs is read; any other is searched.
    Returns (cycle or None, verdict, expansions), the verdict being one of
    "found", "refuted" or "budget exhausted".
    """
    _check_count("budget", budget)
    if isinstance(pairs, EdgeSet):
        if pairs._fixed_bits():
            return None, "refuted", 0
        pairs = pairs.pairs
    adjacency: dict[int, list[int]] = {v: [] for v in range(1 << dim)}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    raw, exhausted, expansions = _search_cycles(adjacency, limit=1, budget=budget)
    if raw:
        return Cycle.from_values(dim, raw[0]), "found", expansions
    return None, "budget exhausted" if exhausted else "refuted", expansions


def search_third_cycle(
    dim: int, residual: Iterable[Edge], budget: int = DEFAULT_SEARCH_BUDGET
) -> Cycle | None:
    """Bounded backtracking search for a Hamiltonian cycle in the given edges.

    Returns the first cycle found within the node-expansion budget, else
    None. None means one of two things, which `residual_analysis` reports
    as its `search_verdict`: a Hamiltonian cycle in these edges is refuted,
    by a search that covered its whole space or, before any search, by a
    label bit no edge changes, a node of residual degree < 2 or a residual
    that is not connected; or the budget ran out first, which proves nothing.

    An `EdgeSet`, such as `ResidualAnalysis.unused_edges`, is first put to
    its fixed-bits certificate; only if that proves nothing are its value
    pairs read, so no `Edge` is built.
    """
    check_dim(dim)
    if isinstance(residual, EdgeSet):
        if residual.dim != dim:
            raise DimensionError(f"residual edge of dim {residual.dim} in a dim-{dim} search")
        return _bounded_cycle_search(dim, residual, budget)[0]
    residual = tuple(residual)
    _need("search_third_cycle", Edge, residual)
    pairs: set[tuple[int, int]] = set()
    for e in residual:
        if e.dim != dim:
            raise DimensionError(f"residual edge of dim {e.dim} in a dim-{dim} search")
        pairs.add((e.a.value, e.b.value))
    return _bounded_cycle_search(dim, pairs, budget)[0]
