import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from functools import partial
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltqcube.topology as topology_module
import ltqcube.verify as verify_module
from ltqcube import (
    Cycle,
    DimensionError,
    HamiltonianPair,
    InvalidPairError,
    LtqError,
    OracleScopeError,
    Path,
    ResidualAnalysis,
    are_edge_disjoint,
    edges,
    edh_cycles,
    edh_paths,
    enumerate_hamiltonian_cycles,
    exists_two_edge_disjoint_hc,
    expected_endpoints,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    make_label,
    neighbors_recursive,
    residual_analysis,
    search_third_cycle,
    verify_pair,
)
from ltqcube.topology import EdgeSet, NodeLabel, _adjacent_values, _neighbor_values, edge_pairs
from ltqcube.topology import Edge
from ltqcube.verify import _bounded_cycle_search, _first_non_edge, _search_cycles, _shared_edges

# Found by depth-first search: a Hamiltonian path of the dim-4 cube whose
# end nodes 0000 and 1111 are NOT adjacent, so only the closing-edge check
# can reject it when read as a cycle. Re-validated below before use.
OPEN_ENDED_HAM_PATH = (
    "0000", "0001", "0011", "0010", "0110", "0100", "0101", "0111",
    "1011", "1001", "1000", "1010", "1110", "1100", "1101", "1111",
)


def walked_pairs(values, closed):
    """The (smaller, larger) value pair of every step of a walk, in walk
    order; with `closed`, the step from the last value back to the first too."""
    ends = values[1:] + values[:1] if closed and len(values) > 1 else values[1:]
    return [(min(u, v), max(u, v)) for u, v in zip(values, ends)]


def nodes_of(dim, bits_seq):
    return [make_label(dim, b) for b in bits_seq]


def brute_force_cycle_count(dim):
    """Count undirected Hamiltonian cycles by scanning raw permutations."""
    n = 1 << dim
    count = 0
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue
        seq = (0,) + perm
        if all(_adjacent_values(dim, seq[i], seq[i + 1]) for i in range(n - 1)) and (
            _adjacent_values(dim, seq[-1], 0)
        ):
            count += 1
    return count


class TestCheckers:
    @pytest.mark.parametrize("dim", range(4, 11))
    def test_accept_constructed_paths_and_cycles(self, dim):
        paths = edh_paths(dim)
        cycles = edh_cycles(dim)
        for member in paths.members:
            assert is_hamiltonian_path(dim, member)
        for member in cycles.members:
            assert is_hamiltonian_cycle(dim, member)
        assert are_edge_disjoint(*paths.members)
        assert are_edge_disjoint(*cycles.members)

    def test_base_path_read_as_cycle_closes(self):
        pair = edh_paths(4)
        assert is_hamiltonian_cycle(4, list(pair.first.nodes))

    def test_non_adjacent_step_fails(self):
        assert not is_hamiltonian_path(4, nodes_of(4, ("0000", "0101")))

    def test_short_sequence_is_no_cycle(self):
        assert not is_hamiltonian_cycle(4, nodes_of(4, ("0000", "0001", "0011")))

    def test_wrong_dim_labels_fail(self):
        assert not is_hamiltonian_path(5, edh_paths(4).first)

    def test_empty_walk_fails(self):
        walk = []
        assert not is_hamiltonian_path(4, walk)
        assert not is_hamiltonian_cycle(4, walk)
        for kind in ("paths", "cycles"):
            report = verify_pair(4, walk, walk, kind)
            failed = {c.name: c.detail for c in report.checks if not c.passed}
            assert failed.keys() == {"first: node count", "second: node count"} | (
                {"first: closing edge", "second: closing edge"} if kind == "cycles" else set()
            )
            if kind == "cycles":
                assert failed["first: closing edge"] == "an empty walk has no closing edge"

    @pytest.mark.parametrize("dim", [-1, 0, 1, 31, 4.0])
    def test_dim_out_of_range_refused(self, dim):
        walk = edh_paths(4).first
        for check in (
            lambda: is_hamiltonian_path(dim, walk),
            lambda: is_hamiltonian_cycle(dim, walk),
            lambda: verify_pair(dim, walk, walk, "paths"),
        ):
            with pytest.raises(DimensionError, match="dim must be an integer in"):
                check()


class TestMutationBattery:
    def setup_method(self):
        self.valid = list(edh_paths(4).first.nodes)

    def test_valid_baseline(self):
        assert is_hamiltonian_path(4, self.valid)

    def test_swap_two_interior_nodes(self):
        mutated = list(self.valid)
        mutated[3], mutated[9] = mutated[9], mutated[3]
        assert not is_hamiltonian_path(4, mutated)

    def test_drop_a_node(self):
        assert not is_hamiltonian_path(4, self.valid[:7] + self.valid[8:])

    def test_duplicate_a_node(self):
        mutated = list(self.valid)
        mutated[5] = mutated[11]
        assert not is_hamiltonian_path(4, mutated)

    def test_break_the_closing_edge(self):
        open_ended = nodes_of(4, OPEN_ENDED_HAM_PATH)
        assert is_hamiltonian_path(4, open_ended)  # interior intact
        assert not _adjacent_values(4, open_ended[-1].value, open_ended[0].value)
        assert not is_hamiltonian_cycle(4, open_ended)

    def test_each_mutation_flips_a_named_check(self):
        cases = {
            "consecutive adjacency": self._swapped(),
            "node count": self.valid[:-1],
            "nodes distinct": self._duplicated(),
            "closing edge": nodes_of(4, OPEN_ENDED_HAM_PATH),
        }
        for name, mutated in cases.items():
            report = verify_pair(4, mutated, edh_paths(4).second.nodes, "cycles")
            failed = {c.name for c in report.checks if not c.passed}
            assert any(name in f for f in failed), (name, failed)

    def _swapped(self):
        mutated = list(self.valid)
        mutated[3], mutated[9] = mutated[9], mutated[3]
        return mutated

    def _duplicated(self):
        mutated = list(self.valid)
        mutated[5] = mutated[11]
        return mutated


class TestEdgeDisjoint:
    def test_seed_pair_is_disjoint(self):
        pair = edh_paths(4)
        assert are_edge_disjoint(pair.first, pair.second)

    def test_self_is_not(self):
        p = edh_paths(4).first
        assert not are_edge_disjoint(p, p)

    def test_reversal_keeps_edges(self):
        p = edh_paths(4).first
        assert not are_edge_disjoint(p, Path(p.nodes[::-1]))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            are_edge_disjoint(edh_paths(4).first, edh_paths(5).first)

    def test_labels_of_two_dims_raise_in_either_order(self):
        mixed = [NodeLabel(4, 0), NodeLabel(5, 1)]
        plain = [NodeLabel(4, 0), NodeLabel(4, 1)]
        for walk in (mixed, mixed[::-1]):
            for a, b in ((walk, plain), (plain, walk), (walk, [])):
                with pytest.raises(DimensionError):
                    are_edge_disjoint(a, b)
        report = verify_pair(4, mixed, plain, "paths")
        assert [c.detail for c in report.checks if c.name == "first: label dimensions"] == [
            "1 labels of wrong dim"
        ]


class TestEnumeration:
    def test_dim_2_single_four_cycle(self):
        got = enumerate_hamiltonian_cycles(2)
        assert len(got) == 1
        assert tuple(n.bits for n in got[0].nodes) == ("00", "01", "11", "10")

    def test_dim_3_count_and_oracle(self):
        got = enumerate_hamiltonian_cycles(3)
        assert len(got) == 5  # frozen; brute-force permutation scan agrees
        assert brute_force_cycle_count(3) == 5

    def test_dim_4_count_frozen(self):
        assert len(enumerate_hamiltonian_cycles(4)) == 780

    def test_dim_4_contains_constructed_pair(self):
        listed = {c.nodes for c in enumerate_hamiltonian_cycles(4)}
        pair = edh_cycles(4)
        assert pair.first.nodes in listed
        assert pair.second.nodes in listed

    @pytest.mark.parametrize("dim", (2, 3, 4))
    def test_outputs_are_hamiltonian_unique_and_reversal_closed(self, dim):
        got = enumerate_hamiltonian_cycles(dim)
        seen = {c.nodes for c in got}
        assert len(seen) == len(got)
        for c in got:
            assert is_hamiltonian_cycle(dim, c)
            assert Cycle(c.nodes[::-1]).nodes in seen

    def test_deterministic_order(self):
        first = enumerate_hamiltonian_cycles(4)
        second = enumerate_hamiltonian_cycles(4)
        assert first == second

    def test_limit_is_a_prefix(self):
        short = enumerate_hamiltonian_cycles(4, limit=5)
        assert short == enumerate_hamiltonian_cycles(4)[:5]

    def test_dim_5_requires_limit(self):
        with pytest.raises(OracleScopeError):
            enumerate_hamiltonian_cycles(5)

    @pytest.mark.parametrize("limit", [None, 1, 3])
    def test_refused_above_dim_5(self, monkeypatch, limit):
        # the limit bounds the answer, not the search: at dim 6 the first
        # cycle takes minutes, so the guard must refuse before searching
        monkeypatch.setattr(verify_module, "_search_cycles", None)
        with pytest.raises(OracleScopeError, match="residual --budget"):
            enumerate_hamiltonian_cycles(6, limit=limit)

    def test_dim_5_with_limit(self):
        got = enumerate_hamiltonian_cycles(5, limit=2)
        assert len(got) == 2
        for c in got:
            assert is_hamiltonian_cycle(5, c)

    def test_bad_limit(self):
        with pytest.raises(LtqError):
            enumerate_hamiltonian_cycles(4, limit=0)

    @pytest.mark.parametrize("dim", [4, 5])
    @pytest.mark.parametrize("limit", [2.5, True, False, "2"])
    def test_limit_that_is_no_int_refused(self, monkeypatch, dim, limit):
        monkeypatch.setattr(verify_module, "_search_cycles", None)
        with pytest.raises(LtqError, match=f"^limit must be an integer, got {limit!r}$"):
            enumerate_hamiltonian_cycles(dim, limit=limit)


class TestPairExistence:
    def test_dim_3_impossible_both_ways(self):
        result = exists_two_edge_disjoint_hc(3)
        assert not result.exists
        assert result.witness is None
        assert any("degree" in c for c in result.certificates)
        assert any("exhaustive" in c for c in result.certificates)
        assert any("5 Hamiltonian cycles" in c for c in result.certificates)

    def test_dim_4_with_witness(self):
        result = exists_two_edge_disjoint_hc(4)
        assert result.exists
        assert result.witness is not None
        assert are_edge_disjoint(*result.witness.members)

    def test_a_failing_witness_names_its_checks(self, monkeypatch):
        pair = edh_cycles(4)
        object.__setattr__(pair.second, "values", pair.first.values)
        monkeypatch.setattr(verify_module, "edh_cycles", lambda dim: pair)
        with pytest.raises(AssertionError) as caught:
            exists_two_edge_disjoint_hc(4)
        assert str(caught.value) == (
            "constructed witness failed its own checkers: ['pair: edge-disjoint']"
        )

    def test_scan_really_finds_no_disjoint_pair(self):
        cycles = enumerate_hamiltonian_cycles(3)
        assert not any(are_edge_disjoint(a, b) for a, b in combinations(cycles, 2))

    def test_out_of_scope(self):
        with pytest.raises(OracleScopeError):
            exists_two_edge_disjoint_hc(5)

    def test_broken_degree_certificate_raises_under_python_O(self):
        # with two neighbours per node the degree argument fails; `python -O`
        # strips asserts, and the verdict must still not be returned
        probe = (
            "import sys, ltqcube.verify as v\n"
            "whole = v._neighbor_values\n"
            "v._neighbor_values = lambda dim, value: whole(dim, value)[:2]\n"
            "try:\n"
            "    print(v.exists_two_edge_disjoint_hc(3))\n"
            "except AssertionError as e:\n"
            "    print(sys.flags.optimize, e)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(verify_module.__file__)))
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1 dim-3 proof fails: degrees [2], 0 edge-disjoint pairs\n"

    @pytest.mark.parametrize("dim", [3.0, 4.0, True, "4"])
    def test_dim_that_is_no_int_refused(self, dim):
        with pytest.raises(DimensionError, match="^dim must be an integer in"):
            exists_two_edge_disjoint_hc(dim)


class TestResidual:
    @pytest.mark.parametrize("dim,unused,degree", [(4, 0, 0), (5, 16, 1), (6, 64, 2)])
    def test_small_dim_arithmetic(self, dim, unused, degree):
        analysis = residual_analysis(dim, edh_cycles(dim))
        assert len(analysis.unused_edges) == unused
        assert analysis.degree_histogram == {degree: 1 << dim}
        assert analysis.third_cycle_found is None and analysis.search_budget is None

    @pytest.mark.parametrize("dim", range(4, 13))
    def test_formula_holds(self, dim):
        analysis = residual_analysis(dim, edh_cycles(dim))
        assert len(analysis.unused_edges) == dim * 2 ** (dim - 1) - 2 ** (dim + 1)
        assert analysis.degree_histogram == {dim - 4: 1 << dim}

    @pytest.mark.parametrize("dim", range(4, 11))
    def test_dim_and_histogram_are_the_sets(self, dim):
        analysis = residual_analysis(dim, edh_cycles(dim))
        unused = analysis.unused_edges
        assert ResidualAnalysis(unused) == analysis
        assert analysis.dim == unused.dim == dim
        assert analysis.degree_histogram == unused._degree_histogram()

    def test_unused_edges_are_real_and_unused(self):
        pair = edh_cycles(6)
        analysis = residual_analysis(6, pair)
        used = pair.first.edge_set() | pair.second.edge_set()
        assert frozenset(analysis.unused_edges) == frozenset(edges(6)) - used

    def test_requires_cycles(self):
        with pytest.raises(InvalidPairError):
            residual_analysis(5, edh_paths(5))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            residual_analysis(5, edh_cycles(6))


def highest_bit(edge):
    """k: the highest bit in which the two labels of an edge differ."""
    u, v = edge
    return (u ^ v).bit_length() - 1


def ring_pairs(pair):
    """Every edge of both members, as (smaller, larger) label values."""
    used = set()
    for member in pair.members:
        values = [node.value for node in member]
        used |= {(min(e), max(e)) for e in zip(values, values[1:] + values[:1])}
    return used


class TestResidualSplitsOnBits0And2:
    """The constructed pair uses every edge with k in {0, 2, 3}, so every
    residual edge flips bit 1 only or has k >= 4: bits 0 and 2 never change
    along the residual, which therefore has no Hamiltonian cycle. It falls
    into 16 two-node components at dim 5, and from dim 6 on into exactly 14:
    two of 2^(n-3) nodes and twelve of 2^(n-4). Counted here directly, with
    no verdict code."""

    @pytest.mark.parametrize("dim", range(4, 15))
    def test_pair_uses_every_edge_with_k_0_2_or_3(self, dim):
        low = {e for e in edge_pairs(dim) if highest_bit(e) in (0, 2, 3)}
        assert len(low) == 3 << (dim - 1)
        assert low <= ring_pairs(edh_cycles(dim))

    @pytest.mark.parametrize("dim", range(5, 11))
    def test_residual_keeps_bits_0_and_2_and_falls_apart(self, dim):
        pair = edh_cycles(dim)
        every = {
            (min(x, y.value), max(x, y.value))
            for x in range(1 << dim)
            for y in neighbors_recursive(NodeLabel(dim, x))
        }
        residual = every - ring_pairs(pair)
        assert residual == set(residual_analysis(dim, pair).unused_edges.pairs)
        assert all((u ^ v) & 0b101 == 0 for u, v in residual)

        root = list(range(1 << dim))

        def find(v):
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for u, v in residual:
            root[find(u)] = find(v)
        components = {}
        for v in range(1 << dim):
            components.setdefault(find(v), set()).add(v & 0b101)
        assert all(len(bits) == 1 for bits in components.values())
        sizes = sorted(Counter(map(find, range(1 << dim))).values())
        if dim == 5:
            assert sizes == [2] * 16
        else:
            assert sizes == [1 << (dim - 4)] * 12 + [1 << (dim - 3)] * 2


def search_cycles_full_rescan(adjacency, *, limit=None, budget=None):
    """The third-cycle search as it was before availability counters: after
    every push, rescan every unvisited node for two available neighbors.

    Kept verbatim as an independent oracle for `_search_cycles`, which must
    walk the same search tree. Only the return differs: the expansion count
    is added, less the one that tripped the budget (it was never performed).
    """
    n = len(adjacency)
    found = []
    if n < 3:
        return found, False, 0
    order = {v: tuple(sorted(ws)) for v, ws in adjacency.items()}
    adj_mask = {v: sum(1 << w for w in ws) for v, ws in order.items()}
    full_mask = sum(1 << v for v in order)
    anchor = min(order)
    anchor_bit = 1 << anchor

    path = [anchor]
    visited = anchor_bit
    unvisited = set(order)
    unvisited.discard(anchor)
    stack = [iter(order[anchor])]
    expansions = 0
    exhausted = False

    def viable(tail):
        avail = (full_mask & ~visited) | (1 << tail) | anchor_bit
        return all((adj_mask[u] & avail).bit_count() >= 2 for u in unvisited)

    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if stack:
                done = path.pop()
                visited ^= 1 << done
                unvisited.add(done)
            continue
        if visited >> step & 1:
            continue
        expansions += 1
        if budget is not None and expansions > budget:
            exhausted = True
            break
        path.append(step)
        if len(path) == n:
            if adj_mask[step] & anchor_bit and path[1] < path[-1]:
                found.append(tuple(path))
                if limit is not None and len(found) >= limit:
                    break
            path.pop()
            continue
        visited |= 1 << step
        unvisited.discard(step)
        if viable(step):
            stack.append(iter(order[step]))
        else:
            path.pop()
            visited ^= 1 << step
            unvisited.add(step)
    return found, exhausted, expansions - exhausted


def adjacency_of(dim, pairs):
    adjacency = {v: [] for v in range(1 << dim)}
    for u, v in pairs:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def connected(adjacency):
    """Whether a union-find over the adjacency map ends with one root."""
    root = {v: v for v in adjacency}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, ws in adjacency.items():
        for w in ws:
            root[find(u)] = find(w)
    return len({find(v) for v in adjacency}) == 1


def residual_adjacency(dim):
    unused = residual_analysis(dim, edh_cycles(dim)).unused_edges
    return adjacency_of(dim, ((e.a.value, e.b.value) for e in unused))


class TestSearchTreeUnchanged:
    """`_search_cycles` against the full-rescan oracle: equal cycles, in equal
    order, equal `exhausted` and equal expansion counts."""

    @pytest.mark.parametrize(
        "dim,limit,budget",
        [(dim, limit, None) for dim in (2, 3, 4) for limit in (None, 1, 7)]
        + [(5, 1, None), (5, 50, None), (5, None, 20_000)],
    )
    def test_full_cube(self, dim, limit, budget):
        adjacency = {v: _neighbor_values(dim, v) for v in range(1 << dim)}
        expected = search_cycles_full_rescan(adjacency, limit=limit, budget=budget)
        assert _search_cycles(adjacency, limit=limit, budget=budget) == expected

    @pytest.mark.parametrize("dim", [6, 7, 8])
    @pytest.mark.parametrize("budget", [50, 1_000, 75_000])
    def test_constructed_residual(self, dim, budget):
        # the residual itself is disconnected and answered without searching,
        # so the trees are compared on the connected cube minus the first ring
        assert _search_cycles(residual_adjacency(dim), limit=1, budget=budget) == ([], False, 0)
        first = edh_cycles(dim).first.edge_pairs()
        adjacency = adjacency_of(dim, (e for e in edge_pairs(dim) if e not in first))
        expected = search_cycles_full_rescan(adjacency, limit=1, budget=budget)
        assert _search_cycles(adjacency, limit=1, budget=budget) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        dropped=st.sets(st.integers(0, 31), max_size=12),
        limit=st.none() | st.integers(1, 5),
        budget=st.none() | st.integers(1, 3_000),
    )
    def test_edge_subsets_of_ltq4(self, dropped, limit, budget):
        kept = (e for i, e in enumerate(sorted(edge_pairs(4))) if i not in dropped)
        adjacency = adjacency_of(4, kept)
        got = _search_cycles(adjacency, limit=limit, budget=budget)
        if min(len(ws) for ws in adjacency.values()) < 2 or not connected(adjacency):
            # answered without searching; the oracle must agree there is no cycle
            assert got == ([], False, 0)
            assert search_cycles_full_rescan(adjacency, limit=limit, budget=budget)[0] == []
        else:
            assert got == search_cycles_full_rescan(adjacency, limit=limit, budget=budget)

    def test_two_halves_of_ltq4(self):
        # every edge whose labels differ highest in bit 3 dropped: two
        # 3-regular copies of LTQ_3, so no node has degree < 2
        adjacency = adjacency_of(4, (e for e in edge_pairs(4) if highest_bit(e) != 3))
        assert {len(ws) for ws in adjacency.values()} == {3}
        assert not connected(adjacency)
        assert _search_cycles(adjacency) == ([], False, 0)
        assert search_cycles_full_rescan(adjacency)[0] == []



ENTRY_DIM_CHECKS = {
    **{
        f"search_third_cycle({dim!r}, {kind})": partial(search_third_cycle, dim, residual, 1)
        for dim in (-1, 0, 1, 2.5, "4", 31)
        for kind, residual in (("list", []), ("EdgeSet", edges(4)))
    },
    "residual_analysis(4.0)": lambda: residual_analysis(4.0, edh_cycles(4)),
}


@pytest.mark.parametrize("case", ENTRY_DIM_CHECKS)
def test_entry_points_check_the_dim_first(case):
    # no verdict, no 2**31-node allocation and no other error for a dim that is no cube's
    with pytest.raises(DimensionError):
        ENTRY_DIM_CHECKS[case]()

class TestThirdCycleSearch:
    def test_empty_residual_no_result(self):
        analysis = residual_analysis(4, edh_cycles(4), search_budget=1000)
        assert analysis.third_cycle_found is None

    def test_degree_one_residual_no_result(self):
        analysis = residual_analysis(5, edh_cycles(5), search_budget=1000)
        assert analysis.third_cycle_found is None

    def test_dim_6_outcome_recorded(self):
        # the residual here is 2-regular, so the hunt resolves immediately;
        # either outcome is a legitimate experimental record
        analysis = residual_analysis(6, edh_cycles(6), search_budget=100_000)
        found = analysis.third_cycle_found
        if found is not None:
            assert is_hamiltonian_cycle(6, found)
            assert found.edge_set() <= frozenset(analysis.unused_edges)

    def test_found_cycle_would_use_only_residual_edges(self):
        # hand the search the full edge set: it must produce a genuine cycle
        full = edges(4)
        found = search_third_cycle(4, full, budget=200_000)
        assert found is not None
        assert is_hamiltonian_cycle(4, found)
        assert found.edge_set() <= frozenset(full)

    def test_budget_must_be_positive(self):
        with pytest.raises(LtqError):
            search_third_cycle(4, edges(4), budget=0)

    def test_budget_exhaustion_is_quiet(self):
        # LTQ_7 minus one ring is connected and 5-regular, so the search
        # really runs and stops at its budget
        graph = EdgeSet._without(7, [edh_cycles(7).first._masks()])
        assert search_third_cycle(7, graph, budget=50) is None
        assert _bounded_cycle_search(7, graph.pairs, 50) == (None, "budget exhausted", 50)

    def test_edge_set_of_another_dim_refused(self):
        with pytest.raises(DimensionError, match=r"^residual edge of dim 5 in a dim-6 search$"):
            search_third_cycle(6, edges(5), budget=10)


class TestThirdCycleSearchOverEdges:
    """Any iterable of `Edge` that is not an `EdgeSet` is read edge by edge."""

    def test_a_ring_finds_itself(self):
        ring = edh_cycles(4).first
        assert search_third_cycle(4, ring.edge_set(), 1000) == ring

    def test_same_verdict_as_the_edge_set(self):
        unused = residual_analysis(6, edh_cycles(6)).unused_edges
        assert search_third_cycle(6, unused, 1000) is None
        assert search_third_cycle(6, frozenset(unused), 1000) is None

    def test_edge_of_another_dim_refused(self):
        foreign = [Edge(NodeLabel(4, 0), NodeLabel(4, 1)), Edge(NodeLabel(5, 0), NodeLabel(5, 1))]
        with pytest.raises(DimensionError, match=r"^residual edge of dim 5 in a dim-4 search$"):
            search_third_cycle(4, foreign, budget=10)


class TestSearchVerdict:
    @pytest.mark.parametrize("dim,expansions", [(4, 0), (5, 0), (6, 0), (7, 0)])
    def test_small_residuals_are_refuted(self, dim, expansions):
        # dims 4 and 5 have residual degree < 2, and from dim 6 on the
        # residual is disconnected: each is answered before any search
        analysis = residual_analysis(dim, edh_cycles(dim), search_budget=1_000_000)
        assert analysis.third_cycle_found is None
        assert analysis.search_verdict == "refuted"
        assert analysis.search_expansions == expansions

    def test_dim_8_refuted(self):
        analysis = residual_analysis(8, edh_cycles(8), search_budget=1_000)
        assert analysis.third_cycle_found is None
        assert analysis.search_verdict == "refuted"
        assert analysis.search_expansions == 0

    @pytest.mark.parametrize("dim", range(5, 13))
    def test_refuted_before_any_search(self, dim):
        analysis = residual_analysis(dim, edh_cycles(dim), search_budget=1)
        assert analysis.search_verdict == "refuted"
        assert analysis.search_expansions == 0

    def test_budget_exhausted_on_a_connected_graph(self):
        first = edh_cycles(8).first.edge_pairs()
        kept = (e for e in edge_pairs(8) if e not in first)
        assert _bounded_cycle_search(8, kept, 500) == (None, "budget exhausted", 500)

    def test_found_on_the_full_cube(self):
        cycle, verdict, expansions = _bounded_cycle_search(4, edge_pairs(4), 1_000)
        assert verdict == "found" and is_hamiltonian_cycle(4, cycle)
        assert 0 < expansions <= 1_000

    def test_no_search_no_verdict(self):
        analysis = residual_analysis(6, edh_cycles(6))
        assert analysis.search_verdict is None and analysis.search_expansions is None

    def test_budget_checked_before_searching(self):
        with pytest.raises(LtqError):
            residual_analysis(6, edh_cycles(6), search_budget=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_bad_budget_refused_before_the_residual_is_built(self, monkeypatch, budget):
        pair = edh_cycles(6)

        def no_residual(*_):
            raise AssertionError("the residual was built before the budget was checked")

        monkeypatch.setattr(EdgeSet, "_without", no_residual)
        with pytest.raises(LtqError, match=f"budget must be positive, got {budget}"):
            residual_analysis(6, pair, search_budget=budget)

    @pytest.mark.parametrize("budget", [0.5, 2.5, True, "10"])
    def test_budget_that_is_no_int_refused_before_the_residual_is_built(
        self, monkeypatch, budget
    ):
        pair = edh_cycles(6)
        monkeypatch.setattr(EdgeSet, "_without", None)
        with pytest.raises(LtqError, match=f"^budget must be an integer, got {budget!r}$"):
            residual_analysis(6, pair, search_budget=budget)

    @pytest.mark.parametrize("budget", [2.5, True, None])
    def test_search_budget_that_is_no_int_refused(self, monkeypatch, budget):
        unused = residual_analysis(6, edh_cycles(6)).unused_edges
        monkeypatch.setattr(verify_module, "_search_cycles", None)
        with pytest.raises(LtqError, match=f"^budget must be an integer, got {budget!r}$"):
            search_third_cycle(6, unused, budget=budget)
        with pytest.raises(LtqError, match=f"^budget must be an integer, got {budget!r}$"):
            search_third_cycle(4, edges(4), budget=budget)


class TestSearchOutcomeIsConsistent:
    """A `ResidualAnalysis` holds only a search outcome that could have
    happened: the three search fields together, a positive budget, a known
    verdict, expansions within the budget, and a third cycle exactly when
    the verdict is "found", walking only the residual's edges."""

    @staticmethod
    def found():
        # two rings of a decomposition of LTQ_6 leave the third as their residual
        first, second, third = (Cycle.from_values(6, values) for values in LTQ6_DECOMPOSITION)
        analysis = residual_analysis(6, HamiltonianPair(first, second), search_budget=100)
        assert (analysis.third_cycle_found, analysis.search_verdict) == (third, "found")
        return analysis, first, third

    def test_a_real_outcome_is_kept_and_loads(self):
        analysis, _, _ = self.found()
        fields = analysis.__getstate__()
        assert ResidualAnalysis(*fields) == analysis
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(analysis, protocol)) == analysis
        refuted = residual_analysis(8, edh_cycles(8), search_budget=5)
        assert ResidualAnalysis(*refuted.__getstate__()) == refuted
        unused = refuted.unused_edges
        assert ResidualAnalysis(unused, None, 500, "budget exhausted", 500).search_expansions == 500

    def contradictions(self):
        analysis, first, third = self.found()
        unused = analysis.unused_edges
        path = Path.from_values(6, third.values)
        return [
            ((unused, first, 100, "found", 63), InvalidPairError),  # a ring of the pair itself
            ((unused, third, 100, "refuted", 63), InvalidPairError),  # a cycle, yet not found
            ((unused, third, None, None, None), InvalidPairError),  # a cycle, yet no search
            ((unused, None, 100, "found", 63), TypeError),  # found, yet no cycle
            ((unused, path, 100, "found", 63), TypeError),  # an open path
            ((unused, Cycle.from_values(7, third.values), 100, "found", 63), InvalidPairError),
            ((unused, Cycle.from_values(6, [0, 1, 3, 2]), 100, "found", 63), InvalidPairError),
            ((unused, None, 100, None, None), LtqError),  # a budget alone
            ((unused, None, None, "refuted", 0), LtqError),  # a verdict alone
            ((unused, None, 100, "refuted", None), LtqError),
            ((unused, None, None, None, 0), LtqError),
            ((unused, None, 0, "refuted", 0), LtqError),
            ((unused, None, True, "refuted", 0), LtqError),
            ((unused, None, 2.5, "refuted", 0), LtqError),
            ((unused, None, 100, "maybe", 0), LtqError),
            ((unused, None, 100, "refuted", -1), LtqError),
            ((unused, None, 100, "refuted", 101), LtqError),
            ((unused, None, 100, "refuted", True), LtqError),
            ((unused, None, 100, "refuted", 2.0), LtqError),
        ]

    def test_each_contradiction_is_refused(self):
        for state, error in self.contradictions():
            with pytest.raises(error):
                ResidualAnalysis(*state)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_each_contradiction_is_refused_on_load(self, monkeypatch, protocol):
        analysis, _, _ = self.found()
        for state, error in self.contradictions():
            monkeypatch.setattr(ResidualAnalysis, "__getstate__", lambda self: state)
            data = pickle.dumps(analysis, protocol)
            monkeypatch.undo()
            with pytest.raises(error):
                pickle.loads(data)


class TestFixedBitsCertificate:
    """`EdgeSet._fixed_bits` refutes a third cycle before any search, so it
    must fire only on sets that `_search_cycles` alone refutes too."""

    @staticmethod
    def drawn(dim, rng):
        """The cube minus whole classes of edges (one dimension at the nodes
        of one parity), then minus a few single edges."""
        classes = rng.sample([(p, k) for p in (0, 1) for k in range(dim)], rng.randint(0, dim))
        removed = [
            (u, v) for u, v in edge_pairs(dim)
            if any((w & 1, highest_bit((u, v))) in classes for w in (u, v)) or rng.random() < 0.05
        ]
        return EdgeSet._without(dim, [Path.from_values(dim, [u, v])._masks() for u, v in removed])

    @staticmethod
    def reached(adjacency):
        """The nodes one traversal from the smallest node reaches."""
        seen, frontier = {min(adjacency)}, [min(adjacency)]
        while frontier:
            fresh = set(adjacency[frontier.pop()]) - seen
            seen |= fresh
            frontier += fresh
        return seen

    @pytest.mark.parametrize("dim", range(4, 8))
    def test_refutes_only_what_the_search_refutes(self, dim):
        rng = random.Random(dim)
        refuted = 0
        for _ in range(60):
            graph = self.drawn(dim, rng)
            adjacency = adjacency_of(dim, graph.pairs)
            flipped = 0
            for u, v in graph.pairs:
                flipped |= u ^ v
            assert graph._fixed_bits() == ~flipped & (1 << dim) - 1  # exact, not just sound
            if graph._fixed_bits():
                refuted += 1
                assert _search_cycles(adjacency, limit=1, budget=10_000) == ([], False, 0)
                assert len(self.reached(adjacency)) < 1 << dim
            assert _bounded_cycle_search(dim, graph, 2_000) == (
                _bounded_cycle_search(dim, graph.pairs, 2_000)
            )
        assert 0 < refuted < 60

    def test_silent_where_a_hamiltonian_cycle_remains(self):
        for third in range(3):
            rings = [c for i, c in enumerate(LTQ6_DECOMPOSITION) if i != third]
            graph = EdgeSet._without(6, [Cycle.from_values(6, c)._masks() for c in rings])
            assert graph._fixed_bits() == 0
            assert search_third_cycle(6, graph, budget=100_000) is not None
        assert edges(9)._fixed_bits() == 0

    @pytest.mark.parametrize("dim", range(5, 17))
    def test_constructed_residual_refuted_without_its_pairs(self, dim, monkeypatch):
        pair = edh_cycles(dim)

        def refuse(self):
            raise AssertionError("the residual's pairs were read")

        monkeypatch.setattr(EdgeSet, "pairs", property(refuse))
        analysis = residual_analysis(dim, pair, search_budget=1)
        assert (analysis.search_verdict, analysis.search_expansions) == ("refuted", 0)
        assert search_third_cycle(dim, analysis.unused_edges, budget=1) is None
        assert analysis.unused_edges._fixed_bits() == 0b101


class TestVerifyPairReport:
    def test_constructed_pair_passes_everything(self):
        pair = edh_cycles(5)
        report = verify_pair(5, pair.first, pair.second, "cycles")
        assert report.passed
        assert all(c.passed for c in report.checks)

    def test_paths_kind_skips_closure(self):
        pair = edh_paths(4)
        report = verify_pair(4, pair.first, pair.second, "paths")
        assert report.passed
        assert not any("closing" in c.name for c in report.checks)

    def test_shared_edge_is_named(self):
        first = edh_cycles(4).first
        report = verify_pair(4, first, first.nodes, "cycles")
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["pair: edge-disjoint"]
        assert "shared" in failed[0].detail

    def test_report_rendering(self):
        pair = edh_cycles(4)
        report = verify_pair(4, pair.first, pair.second, "cycles")
        assert report.lines()[-1] == "result: PASS"
        as_dict = report.to_dict()
        assert as_dict["passed"] is True
        assert len(as_dict["checks"]) == 11

    def test_bad_kind(self):
        with pytest.raises(LtqError):
            verify_pair(4, [], [], "loops")


@pytest.mark.parametrize("dim", range(4, 11))
def test_endpoint_claims_verified_independently(dim):
    pair = edh_paths(dim)
    start_f, end_f, start_s, end_s = expected_endpoints(dim)
    assert pair.first.nodes[0] == start_f and pair.first.nodes[-1] == end_f
    assert pair.second.nodes[0] == start_s and pair.second.nodes[-1] == end_s


class TestVerifyPairDetails:
    """The details `verify_pair` gives for each failed check, pinned on
    walks cut from `edh_paths(6)`, including walks that hold non-edges."""

    DIM = 6

    @staticmethod
    def labels(values, dim=6):
        return [NodeLabel(dim, v) for v in values]

    def details(self, first, second, kind="cycles", dim=6):
        report = verify_pair(dim, self.labels(first, dim), self.labels(second, dim), kind)
        return {c.name: c.detail for c in report.checks if not c.passed}

    @staticmethod
    def walked(values, closed):
        """The reference: each step as its (smaller, larger) value pair."""
        ends = values[1:] + values[:1] if closed else values[1:]
        return {(min(u, v), max(u, v)) for u, v in zip(values, ends)}

    @pytest.fixture
    def pair(self):
        paths = edh_paths(self.DIM)
        return list(paths.first.values), list(paths.second.values)

    @pytest.mark.parametrize(
        "drop,step", [(1, 0), (32, 31), (62, 61)], ids=["first", "middle", "last"]
    )
    def test_a_non_adjacent_step(self, pair, drop, step):
        first, second = pair
        broken = first[:drop] + first[drop + 1:]
        assert not _adjacent_values(self.DIM, broken[step], broken[step + 1])
        details = self.details(broken, second, "paths")
        assert details == {
            "first: node count": "63 of 64",
            "first: consecutive adjacency": f"{broken[step]:06b} .. {broken[step + 1]:06b}"
            f" at position {step}",
        }

    def test_two_breaks_name_the_first(self, pair):
        first, second = pair
        broken = [v for j, v in enumerate(first) if j not in (20, 40)]
        details = self.details(broken, second, "paths")
        assert details["first: consecutive adjacency"] == (
            f"{broken[19]:06b} .. {broken[20]:06b} at position 19"
        )

    def test_repeated_names_the_first_repeated_value(self, pair):
        first, second = pair
        mutated = list(first)
        mutated[40], mutated[50] = mutated[3], mutated[1]
        detail = self.details(mutated, second, "paths")["first: nodes distinct"]
        assert detail == f"repeated: {first[1]:06b}"

    def test_closing_edge(self):
        open_ended = [int(b, 2) for b in OPEN_ENDED_HAM_PATH]
        details = self.details(edh_cycles(4).first.values, open_ended, dim=4)
        assert details["second: closing edge"] == "1111 .. 0000 is not an edge"
        assert "first: closing edge" not in details

    def test_closing_edge_of_a_short_member(self, pair):
        first, second = pair
        short = first[:-1]
        assert not _adjacent_values(self.DIM, short[-1], short[0])
        details = self.details(short, second)
        assert details["first: closing edge"] == (
            f"{short[-1]:06b} .. {short[0]:06b} is not an edge"
        )

    @pytest.mark.parametrize("values", [[0, 1], [1]], ids=["two", "one"])
    def test_closing_edge_of_fewer_than_three_nodes(self, values):
        # 0001 .. 0000 is an edge: what is missing is a third node
        details = self.details(values, edh_cycles(4).second.values, dim=4)
        detail = f"a cycle needs at least 3 nodes, got {len(values)}"
        assert details["first: closing edge"] == detail
        with pytest.raises(LtqError, match=f"^{detail}$"):
            Cycle.from_values(4, values)

    def test_shared_edges(self, pair):
        first, _ = pair
        details = self.details(first, first[::-1])
        shared = self.walked(first, True)
        assert details == {
            "pair: edge-disjoint": f"{len(shared)} shared, e.g. "
            f"{min(shared)[0]:06b} .. {min(shared)[1]:06b}"
        }
        assert len(shared) == 64

    @pytest.mark.parametrize("kind", ["paths", "cycles"])
    def test_shared_non_edges_are_counted(self, pair, kind):
        first, second = pair
        broken = first[:32] + first[33:]
        # the second member walks the first's non-edge, the other way round
        other = [broken[32], broken[31]] + [v for v in second if v not in (broken[31], broken[32])]
        shared = self.walked(broken, kind == "cycles") & self.walked(other, kind == "cycles")
        assert (min(broken[31:33]), max(broken[31:33])) in shared
        detail = self.details(broken, other, kind)["pair: edge-disjoint"]
        lo = min(shared)
        assert detail == f"{len(shared)} shared, e.g. {lo[0]:06b} .. {lo[1]:06b}"

    def test_a_repeated_step_is_shared_once(self):
        details = self.details([0, 5, 0, 5], [5, 0], "paths")
        assert details["pair: edge-disjoint"] == "1 shared, e.g. 000000 .. 000101"

    def test_labels_of_another_dim(self):
        first = edh_cycles(5).first.values
        report = verify_pair(4, self.labels(first, 5), self.labels(first, 5), "cycles")
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        # the shared step keys stay exact on values wider than the dimension
        assert failed == {
            "first: node count": "32 of 16",
            "first: label dimensions": "32 labels of wrong dim",
            "second: node count": "32 of 16",
            "second: label dimensions": "32 labels of wrong dim",
            "pair: edge-disjoint": "32 shared, e.g. 0000 .. 0001",
        }

    def test_are_edge_disjoint_counts_non_edges(self):
        assert not are_edge_disjoint(self.labels([0, 5]), self.labels([5, 0]))
        assert are_edge_disjoint(self.labels([0, 5]), self.labels([0, 6, 5]))
        assert not are_edge_disjoint(self.labels([3, 3]), self.labels([3, 3]))
        assert are_edge_disjoint([], self.labels([3, 3]))


# Three edge-disjoint Hamiltonian cycles of LTQ_6, as label values: together
# they use all 192 edges, a Hamiltonian decomposition. Found by a randomized
# depth-first search (fewest onward neighbors first) and checked below by
# the independent checkers.
LTQ6_DECOMPOSITION = (
    (
        0, 4, 12, 8, 24, 28, 20, 16, 48, 52, 36, 32, 40, 56, 60, 44,
        46, 42, 34, 38, 54, 50, 58, 62, 30, 14, 10, 26, 18, 2, 6, 22,
        23, 21, 25, 27, 43, 39, 37, 41, 47, 35, 33, 45, 29, 31, 19, 17,
        9, 5, 7, 11, 59, 57, 53, 55, 49, 61, 13, 15, 63, 51, 3, 1,
    ),
    (
        0, 2, 3, 15, 14, 12, 13, 21, 20, 22, 18, 16, 17, 23, 27, 29,
        28, 30, 26, 24, 25, 1, 7, 31, 47, 55, 54, 52, 60, 62, 46, 38,
        6, 4, 5, 53, 45, 44, 36, 37, 61, 59, 58, 56, 48, 49, 41, 40,
        8, 10, 42, 43, 51, 50, 34, 35, 19, 11, 9, 57, 63, 39, 33, 32,
    ),
    (
        0, 16, 24, 56, 57, 33, 17, 29, 5, 3, 27, 26, 58, 42, 40, 44,
        12, 28, 60, 61, 63, 62, 54, 22, 30, 31, 25, 41, 43, 45, 47, 46,
        14, 6, 7, 55, 59, 35, 37, 21, 19, 18, 50, 48, 32, 34, 2, 10,
        11, 13, 1, 49, 51, 53, 52, 20, 4, 36, 38, 39, 23, 15, 9, 8,
    ),
)


class TestLtq6HasThreeDisjointCycles:
    """The module docstring's claim about LTQ_6, on a checked-in witness."""

    @staticmethod
    def cycles():
        return [Cycle.from_values(6, values) for values in LTQ6_DECOMPOSITION]

    @pytest.mark.parametrize("values", LTQ6_DECOMPOSITION, ids=["first", "second", "third"])
    def test_each_is_a_hamiltonian_cycle(self, values):
        a = [NodeLabel(6, v) for v in values]
        assert is_hamiltonian_cycle(6, a)
        # a plain sequence is an open walk: only a Cycle counts its closing edge
        assert are_edge_disjoint(a, [a[-1], a[0]])
        assert not are_edge_disjoint(Cycle(a), [a[-1], a[0]])

    def test_each_pair_is_edge_disjoint(self):
        for a, b in combinations(self.cycles(), 2):
            assert are_edge_disjoint(a, b)
            assert HamiltonianPair(a, b).kind == "cycles"

    def test_together_they_use_every_edge(self):
        masks = [Cycle.from_values(6, c)._masks() for c in LTQ6_DECOMPOSITION]
        assert len(EdgeSet._without(6, masks)) == 0


class TestCheckerIndependence:
    """The checkers share no code with the construction's bulk checks."""

    def test_no_mask_or_tag_helper_is_used(self, monkeypatch):
        import ltqcube.construction as construction_module
        import ltqcube.verify as verify_module

        helpers = {"_step_tops", "_STEP_TOPS", "_node_masks", "_sharing", "_mask_edges"}
        assert not helpers & set(vars(verify_module))
        assert helpers <= set(vars(topology_module))
        assert {"_step_tops", "_node_masks", "_sharing"} <= set(vars(construction_module))
        cycles, paths = edh_cycles(7), edh_paths(7)  # built before the helpers are blocked

        def refuse(*args, **kwargs):
            raise AssertionError("a checker called a construction helper")

        for module in (topology_module, construction_module):
            for name in helpers & set(vars(module)):  # every binding of each helper
                monkeypatch.setattr(module, name, refuse)
        for pair in (cycles, paths):
            assert verify_pair(7, pair.first, pair.second, pair.kind).passed
            assert verify_pair(7, list(pair.first.nodes), pair.second.nodes, pair.kind).passed
            assert are_edge_disjoint(pair.first, pair.second)
            assert not are_edge_disjoint(pair.first, pair.first)
        assert all(map(is_hamiltonian_cycle, [7, 7], cycles.members))
        assert all(map(is_hamiltonian_path, [7, 7], paths.members))


WALKS = st.lists(st.integers(0, 31), max_size=12)


@settings(max_examples=300, deadline=None)
@given(WALKS, st.booleans(), WALKS, st.booleans())
def test_shared_edges_match_the_walked_pairs(a, a_closed, b, b_closed):
    shared = _shared_edges(a, a_closed, b, b_closed)
    assert shared == set(walked_pairs(a, a_closed)) & set(walked_pairs(b, b_closed))


@st.composite
def mostly_adjacent_walks(draw):
    """A dimension and a walk that steps to a neighbor, with a few jumps."""
    dim = draw(st.integers(2, 6))
    walk = [draw(st.integers(0, (1 << dim) - 1))]
    for move in draw(st.lists(st.integers(-1, dim - 1), max_size=12)):
        if move < 0:
            walk.append(draw(st.integers(0, (1 << dim) - 1)))
        else:
            walk.append(_neighbor_values(dim, walk[-1])[move])
    return dim, walk


@settings(max_examples=300, deadline=None)
@given(mostly_adjacent_walks())
def test_first_non_edge_is_the_first_failing_step(case):
    dim, walk = case
    steps = [i for i in range(len(walk) - 1) if not _adjacent_values(dim, walk[i], walk[i + 1])]
    assert _first_non_edge(dim, walk) == (steps[0] if steps else None)
