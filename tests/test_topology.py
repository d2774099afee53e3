import copy
import operator
import pickle
import random
from array import array
from functools import partial, reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_verify import LTQ6_DECOMPOSITION

import ltqcube.construction as construction_module
import ltqcube.topology as topology_module
from ltqcube import (
    DimensionError,
    Edge,
    LabelFormatError,
    NodeLabel,
    edges,
    is_adjacent,
    make_label,
    neighbors,
    neighbors_recursive,
)
from ltqcube.construction import Cycle, Path, edh_cycles, edh_paths
from ltqcube.topology import (
    _STEP_TOPS,
    _adjacent_values,
    _labels,
    _neighbor_values,
    _node_masks,
    _step_tops,
    _union,
    edge_pairs,
)
from ltqcube.verify import enumerate_hamiltonian_cycles, residual_analysis


def walked_pairs(values, closed):
    """Each step's (smaller, larger) value pair, in walk order, the closing
    step last when `closed`."""
    ends = list(values[1:]) + list(values[:1] if closed else [])
    return [tuple(sorted(step)) for step in zip(values, ends)]


def labels(min_dim=2, max_dim=10):
    return st.integers(min_dim, max_dim).flatmap(
        lambda d: st.builds(NodeLabel, st.just(d), st.integers(0, (1 << d) - 1))
    )


class TestMakeLabel:
    def test_positional_reading(self):
        assert make_label(4, "0010").value == 2
        assert make_label(4, "1111").value == 15
        assert make_label(5, "10110").value == 22

    def test_bits_round_trip(self):
        assert make_label(6, "000110").bits == "000110"
        assert str(NodeLabel(5, 22)) == "10110"

    def test_wrong_length(self):
        with pytest.raises(LabelFormatError):
            make_label(4, "001")

    def test_illegal_character(self):
        with pytest.raises(LabelFormatError):
            make_label(4, "00x1")

    def test_dim_bounds(self):
        with pytest.raises(DimensionError):
            NodeLabel(1, 0)
        with pytest.raises(DimensionError):
            NodeLabel(31, 0)
        with pytest.raises(LabelFormatError):
            NodeLabel(4, 16)


class TestNodeLabelContract:
    """The public behaviour of a label, pinned whatever its representation."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        label = NodeLabel(4, 3)
        back = pickle.loads(pickle.dumps(label, protocol))
        assert back == label and type(back) is NodeLabel and repr(back) == repr(label)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, clone):
        label = NodeLabel(9, 300)
        back = clone(label)
        assert back == label and type(back) is NodeLabel and back.bits == label.bits

    def test_unequal_to_a_plain_tuple(self):
        assert NodeLabel(4, 3) != (4, 3)
        assert (4, 3) != NodeLabel(4, 3)
        assert not NodeLabel(4, 3) == (4, 3)
        assert NodeLabel(4, 3) == NodeLabel(4, 3) and not NodeLabel(4, 3) != NodeLabel(4, 3)

    def test_unordered_against_a_plain_tuple(self):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(NodeLabel(4, 3), (4, 5))
            with pytest.raises(TypeError):
                compare((4, 5), NodeLabel(4, 3))

    def test_unordered_against_a_non_tuple(self):
        # not a tuple: the comparison defers, and Python raises the TypeError
        assert NodeLabel(4, 3).__lt__(5) is NotImplemented
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(NodeLabel(4, 3), 5)

    def test_orders_by_dim_then_value(self):
        assert NodeLabel(4, 3) < NodeLabel(4, 5) <= NodeLabel(4, 5) < NodeLabel(5, 0)
        assert NodeLabel(5, 0) > NodeLabel(4, 15) >= NodeLabel(4, 15)

    @pytest.mark.parametrize("dim", [2, 5, 16, 30])
    def test_hash_is_that_of_the_pair(self, dim):
        for value in (0, 1, (1 << dim) - 1):
            assert hash(NodeLabel(dim, value)) == hash((dim, value))

    def test_renderings(self):
        label = NodeLabel(4, 3)
        assert repr(label) == "NodeLabel(dim=4, value=3)"
        assert label.bits == str(label) == f"{label}" == "0011"
        assert (label.dim, label.value) == (4, 3)
        assert NodeLabel(dim=6, value=5) == NodeLabel(6, 5)

    @pytest.mark.parametrize("args,error,message", [
        ((1, 0), DimensionError, "dim must be an integer in [2, 30], got 1"),
        ((31, 0), DimensionError, "dim must be an integer in [2, 30], got 31"),
        (("4", 0), DimensionError, "dim must be an integer in [2, 30], got '4'"),
        ((4.0, 0), DimensionError, "dim must be an integer in [2, 30], got 4.0"),
        ((True, 0), DimensionError, "dim must be an integer in [2, 30], got True"),
        ((4, 16), LabelFormatError, "value 16 out of range for dim 4"),
        ((4, -1), LabelFormatError, "value -1 out of range for dim 4"),
        ((2, 4), LabelFormatError, "value 4 out of range for dim 2"),
        ((4, 2.5), LabelFormatError, "value must be an integer, got 2.5"),
        ((4, "3"), LabelFormatError, "value must be an integer, got '3'"),
        ((4, 3.0), LabelFormatError, "value must be an integer, got 3.0"),
    ])
    def test_constructor_messages(self, args, error, message):
        with pytest.raises(error) as caught:
            NodeLabel(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize("args,error,message", [
        ((1, "0"), DimensionError, "dim must be an integer in [2, 30], got 1"),
        ((31, "0" * 31), DimensionError, "dim must be an integer in [2, 30], got 31"),
        ((1, "01x"), DimensionError, "dim must be an integer in [2, 30], got 1"),
        ((4, "001"), LabelFormatError, "expected 4 characters, got 3: '001'"),
        ((4, "0x1"), LabelFormatError, "expected 4 characters, got 3: '0x1'"),
        ((4, ""), LabelFormatError, "expected 4 characters, got 0: ''"),
        ((4, "00x1"), LabelFormatError, "label must contain only 0 and 1: '00x1'"),
        ((4, "0 01"), LabelFormatError, "label must contain only 0 and 1: '0 01'"),
        ((4, "  01"), LabelFormatError, "label must contain only 0 and 1: '  01'"),
        ((4, "0_01"), LabelFormatError, "label must contain only 0 and 1: '0_01'"),
        ((4, "\uff12\uff10\uff11\uff10"), LabelFormatError,
         "label must contain only 0 and 1: '\uff12\uff10\uff11\uff10'"),
        ((2, "-1"), LabelFormatError, "label must contain only 0 and 1: '-1'"),
    ])
    def test_make_label_messages(self, args, error, message):
        with pytest.raises(error) as caught:
            make_label(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_labels_built_in_bulk_agree(self, dim):
        # _labels builds its labels without checking them one by one
        for value, built in enumerate(_labels(dim, range(1 << dim))):
            checked = NodeLabel(dim, value)
            assert built == checked and type(built) is NodeLabel
            assert hash(built) == hash(checked) and repr(built) == repr(checked)
            assert make_label(dim, checked.bits) == checked


def twist_partners(dim, v):
    """v's neighbors in the other half (leading bit flipped), by the closed form."""
    return [w for w in _neighbor_values(dim, v) if (v ^ w) >> (dim - 1)]


class TestCrossNeighbor:
    """The twist edge: each node has one neighbor in the other half."""

    def test_known_values(self):
        # the member of neighbors(x) that differs from x in bit dim - 1
        for dim, bits, partner in ((4, "0011", "1111"), (4, "0000", "1000"), (5, "00000", "10000")):
            x, top = make_label(dim, bits), 1 << (dim - 1)
            assert [y for y in neighbors(x) if (x.value ^ y.value) & top] == [
                make_label(dim, partner)
            ]

    def test_dim_2_has_no_twist(self):
        # LTQ_2 is the four-cycle: each edge flips one bit. The twist rule at
        # n = 2 would send 01 to 10, which is no edge.
        for v in range(4):
            assert set(_neighbor_values(2, v)) == {v ^ 1, v ^ 2}
            flips = {NodeLabel(2, v ^ 1), NodeLabel(2, v ^ 2)}
            assert neighbors_recursive(NodeLabel(2, v)) == flips
        assert not is_adjacent(make_label(2, "01"), make_label(2, "10"))

    @pytest.mark.parametrize("dim", range(3, 15))
    def test_involution_exhaustive(self, dim):
        for v in range(1 << dim):
            (w,) = twist_partners(dim, v)
            assert twist_partners(dim, w) == [v]
            recursive = neighbors_recursive(NodeLabel(dim, v))
            assert [y.value for y in recursive if (v ^ y.value) >> (dim - 1)] == [w]

    @pytest.mark.parametrize("dim", range(3, 11))
    def test_flips_subcube(self, dim):
        for v in range(1 << dim):
            (w,) = twist_partners(dim, v)
            assert w >> (dim - 1) == 1 - (v >> (dim - 1))


class TestNeighbors:
    def test_all_zero_label(self):
        got = neighbors(make_label(4, "0000"))
        assert got == {make_label(4, b) for b in ("0001", "0010", "0100", "1000")}

    def test_dim_2_four_cycle(self):
        assert neighbors(make_label(2, "00")) == {make_label(2, "01"), make_label(2, "10")}

    def test_0011_against_recursive_definition(self):
        # Frozen from neighbors_recursive: 0011 twists to 1111 at the top
        # level and to 0101 one level down; 0111 is NOT adjacent.
        x = make_label(4, "0011")
        expected = {make_label(4, b) for b in ("0001", "0010", "0101", "1111")}
        assert neighbors_recursive(x) == expected
        assert neighbors(x) == expected

    @pytest.mark.parametrize("label", [(4, 99), (40, 3), (4, 3), [4, 3], 3])
    def test_anything_but_a_label_refused_before_any_is_built(self, monkeypatch, label):
        # (4, 99) and (40, 3) are no labels, and even (4, 3) was never validated
        monkeypatch.setattr(topology_module, "_labels", None)
        with pytest.raises(TypeError, match="^neighbors needs a NodeLabel, got "):
            neighbors(label)

    def test_recursive_base_level(self):
        got = neighbors_recursive(make_label(3, "000"))
        assert got == {make_label(3, b) for b in ("001", "010", "100")}

    def test_recursive_contains_twist_partner(self):
        assert make_label(4, "1110") in neighbors_recursive(make_label(4, "0110"))

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_closed_form_equals_recursion_exhaustive(self, dim):
        for v in range(1 << dim):
            x = NodeLabel(dim, v)
            assert neighbors(x) == neighbors_recursive(x)

    @pytest.mark.parametrize("dim", range(2, 13))
    def test_regular_of_degree_dim(self, dim):
        for v in range(1 << dim):
            x = NodeLabel(dim, v)
            got = neighbors(x)
            assert len(got) == dim
            assert x not in got

    @pytest.mark.parametrize("dim", (13, 14))
    def test_regular_of_degree_dim_sampled(self, dim):
        for v in range(0, 1 << dim, 37):
            x = NodeLabel(dim, v)
            got = neighbors(x)
            assert len(got) == dim
            assert x not in got

    @given(labels())
    def test_symmetry(self, x):
        for y in neighbors(x):
            assert x in neighbors(y)
            assert is_adjacent(x, y) and is_adjacent(y, x)

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_symmetry_exhaustive(self, dim):
        for v in range(1 << dim):
            x = NodeLabel(dim, v)
            for y in neighbors(x):
                assert x in neighbors(y)

    @given(labels(min_dim=3, max_dim=12))
    def test_twist_partner_is_a_neighbor(self, x):
        # 0 b_{n-2} .. b_0 ~ 1 (b_{n-2} xor b_0) b_{n-3} .. b_0, and back
        d, v = x.dim, x.value
        assert NodeLabel(d, v ^ 1 << (d - 1) ^ (v & 1) << (d - 2)) in neighbors(x)


    @pytest.mark.parametrize("dim", range(2, 13))
    def test_top_bits_of_the_differences_name_every_dimension_once(self, dim):
        # the fact per-node edge masks rest on: at each node the top set bit
        # of `v ^ w` tells its dim neighbors apart, one dimension each
        every = {1 << k for k in range(dim)}
        for v in range(1 << dim):
            near = neighbors_recursive(NodeLabel(dim, v))
            tops = [1 << ((v ^ w.value).bit_length() - 1) for w in near]
            assert len(tops) == dim and set(tops) == every


class TestOracleIndependence:
    """The recursive oracle shares no code with the closed form it checks."""

    def test_no_closed_form_helper_is_used(self, monkeypatch):
        expected = {
            (dim, v): neighbors(NodeLabel(dim, v)) for dim in range(2, 10) for v in range(1 << dim)
        }  # computed before the closed form is blocked

        class Refused:
            def __getitem__(self, key):
                raise AssertionError("the oracle read the flip table")

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a closed-form helper")

        monkeypatch.setattr(topology_module, "_FLIPS", Refused())
        for name in ("_neighbor_values", "_adjacent_values", "neighbors"):
            monkeypatch.setattr(topology_module, name, refuse)
        for (dim, v), near in expected.items():
            assert neighbors_recursive(NodeLabel(dim, v)) == near

    def test_labels_of_the_wrong_length_are_refused(self, monkeypatch):
        broken = dict(topology_module._LTQ2_NEIGHBORS, **{"00": ("01", "100")})
        monkeypatch.setattr(topology_module, "_LTQ2_NEIGHBORS", broken)
        with pytest.raises(LabelFormatError, match="lengths"):
            neighbors_recursive(NodeLabel(5, 0))


class TestIsAdjacent:
    def test_known_edges(self):
        assert is_adjacent(make_label(4, "0100"), make_label(4, "1100"))
        assert is_adjacent(make_label(4, "0010"), make_label(4, "0000"))

    def test_no_self_loops(self):
        x = make_label(4, "0000")
        assert not is_adjacent(x, x)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            is_adjacent(make_label(4, "0000"), make_label(5, "00000"))

    @pytest.mark.parametrize(
        "x, y, kind", [((4, 0), (4, 1), "tuple"), (NodeLabel(4, 0), 1, "int")]
    )
    def test_rejects_what_is_no_label(self, x, y, kind):
        with pytest.raises(TypeError, match=f"^is_adjacent needs a NodeLabel, got {kind}$"):
            is_adjacent(x, y)


class TestEdges:
    @pytest.mark.parametrize("dim,count", [(2, 4), (4, 32), (5, 80)])
    def test_counts(self, dim, count):
        assert len(edges(dim)) == count

    @pytest.mark.parametrize("dim", range(2, 15))
    def test_count_formula(self, dim):
        assert len(edges(dim)) == dim * 2 ** (dim - 1)

    def test_canonical_order(self):
        assert all(e.a.value < e.b.value for e in edges(5))

    @pytest.mark.parametrize("dim", range(2, 17))
    def test_pairs_come_strictly_ascending(self, dim):
        # the CLI writes them in this order, with no sort
        pairs = list(edge_pairs(dim))
        assert len(pairs) == dim << (dim - 1)
        assert all(map(operator.lt, pairs, pairs[1:]))

    def test_edge_normalizes_order(self):
        hi, lo = make_label(4, "1000"), make_label(4, "0000")
        e = Edge(hi, lo)
        assert (e.a, e.b) == (lo, hi)

    def test_ends_of_two_dims_refused(self):
        with pytest.raises(DimensionError) as caught:
            Edge(make_label(4, "0000"), make_label(5, "00001"))
        assert str(caught.value) == "edge endpoints differ in dim: 4 vs 5"

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            edges(1)
        with pytest.raises(DimensionError):
            edges(31)


class TestSubcube:
    """The halves of LTQ_n are the labels with leading bit 0 and 1."""

    def test_msb_read(self):
        # every edge but the twist edges stays in its half, and each half
        # read without its leading bit is LTQ_(n-1)
        for dim in range(3, 9):
            low = (1 << (dim - 1)) - 1
            within = [(u, v) for u, v in edge_pairs(dim) if u >> (dim - 1) == v >> (dim - 1)]
            assert len(within) == len(edges(dim)) - (1 << (dim - 1))
            for half in (0, 1):
                pairs = {(u & low, v & low) for u, v in within if u >> (dim - 1) == half}
                assert pairs == set(edge_pairs(dim - 1))

    def test_requires_dim_3(self):
        # LTQ_2 is the base of the recursion: there is no LTQ_1 to halve into
        with pytest.raises(DimensionError):
            edges(1)
        with pytest.raises(DimensionError):
            NodeLabel(1, 0)


def successive_bits(d):
    """Whether the XOR `d` of two labels is one bit or two successive bits."""
    return d > 0 and d // (d & -d) in (1, 3)


class TestSuccessiveBits:
    """The "locally twisted" trait, over values: every edge's XOR is one bit
    or two successive bits."""

    def test_two_successive_bits(self):
        assert successive_bits(0b0011 ^ 0b1111)

    def test_non_successive_bits(self):
        assert not successive_bits(0b0000 ^ 0b0101) and not successive_bits(0)

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_every_edge_satisfies_it(self, dim):
        assert all(successive_bits(u ^ v) for u, v in edge_pairs(dim))


class TestLtqGraph:
    """The cube as a whole, through `neighbors`, `is_adjacent` and `edges`."""

    def test_counts(self):
        # 2**n nodes, n * 2**(n-1) edges, every node of degree n
        every = edges(6)
        assert len(every) == 192 == len(every.pairs)
        ends = [v for pair in every.pairs for v in pair]
        assert sorted(set(ends)) == list(range(1 << 6))
        assert {ends.count(v) for v in range(1 << 6)} == {6}

    def test_pairs_are_ascending_tuples(self):
        # edge lists are plain tuples, strictly ascending, with no set view
        pair = edh_cycles(6)
        residual = residual_analysis(6, pair).unused_edges
        for pairs in (edges(6).pairs, residual.pairs, pair.first.edge_pairs()):
            assert type(pairs) is tuple and pairs == tuple(sorted(set(pairs)))

    def test_delegation(self):
        nodes = [NodeLabel(4, v) for v in range(16)]
        every = edges(4)
        for x in nodes:
            adjacent = {y for y in nodes if is_adjacent(x, y)}
            assert neighbors(x) == adjacent
            assert adjacent == {e.b if e.a == x else e.a for e in every if x in (e.a, e.b)}

    def test_rejects_foreign_labels(self):
        x = make_label(4, "0011")
        with pytest.raises(DimensionError):
            is_adjacent(x, make_label(5, "00001"))
        assert Edge(make_label(5, "00000"), make_label(5, "00001")) not in edges(4)
        assert {y.dim for y in neighbors(make_label(5, "00000"))} == {5}



def hamiltonian_walks(dim):
    """Hamiltonian paths and cycles of the dim-cube, some paths reversed."""
    if dim < 4:
        cycles = enumerate_hamiltonian_cycles(dim)[:2]
        paths = [Path.from_values(dim, c.values) for c in cycles]
    else:
        cycles, paths = edh_cycles(dim).members, edh_paths(dim).members
    return [*cycles, *paths, *(Path.from_values(dim, p.values[::-1]) for p in paths)]


LISTED_WALKS = {
    **{f"dim {dim}": partial(hamiltonian_walks, dim) for dim in range(2, 11)},
    "every Hamiltonian cycle of LTQ_4": partial(enumerate_hamiltonian_cycles, 4),
    "LTQ_6 decomposition": lambda: [Cycle.from_values(6, v) for v in LTQ6_DECOMPOSITION],
    "dim-24 4-cycle": lambda: [Cycle.from_values(24, [0, 1, 3, 2])],
}


@pytest.mark.parametrize("case", LISTED_WALKS)
def test_walk_edges_are_listed_in_ascending_order(case):
    # whatever the walk's order, its edges come out sorted, as every edge list does
    for walk in LISTED_WALKS[case]():
        steps = walked_pairs(walk.values, isinstance(walk, Cycle))
        assert list(walk.edge_pairs()) == sorted(steps)

@settings(max_examples=60)
@given(labels(max_dim=9))
def test_adjacent_labels_differ_in_successive_bits(x):
    for y in neighbors(x):
        assert successive_bits(x.value ^ y.value)


class TestBulkStepHelpers:
    """The step table construction validates with, against the per-step rule
    and the per-step edge pairs it replaces."""

    @staticmethod
    def steps_are_edges(values, closed):
        try:
            _step_tops(values, closed=closed)
        except KeyError:
            return False
        return True

    @pytest.mark.parametrize("dim", range(2, 8))
    def test_tags_agree_with_adjacency_on_every_step(self, dim):
        for u in range(1 << dim):
            neighbors = _neighbor_values(dim, u)
            for v in range(1 << dim):
                adjacent = _adjacent_values(dim, u, v)
                assert ((u ^ v) << 1 | u & 1 in _STEP_TOPS) == adjacent
                assert self.steps_are_edges([u, v], closed=False) == adjacent
                if adjacent:  # the top bit names the edge's dimension
                    top = 1 << neighbors.index(v)
                    assert _step_tops([u, v], closed=False) == [top, 0]
                    assert _step_tops([u, v], closed=True) == [top, top]

    @pytest.mark.parametrize("dim", [4, 7])
    def test_tags_see_the_closing_step(self, dim):
        values = list(edh_paths(dim).first.values)
        assert self.steps_are_edges(values, closed=True)
        values = values[:-1]
        assert self.steps_are_edges(values, closed=False)
        assert not self.steps_are_edges(values, closed=True)

    @pytest.mark.parametrize("dim", range(4, 13))
    def test_union_is_the_entrywise_or(self, dim):
        # arrays of unequal lengths, each shorter ones padded with zeros
        rng = random.Random(dim)
        size = 1 << dim
        lengths = [size, rng.randrange(1, size), 4, rng.randrange(1, size)]
        walks = [array("I", [rng.randrange(size) for _ in range(n)]) for n in lengths]
        walks.append(Cycle.from_values(dim, [0, 1, 3, 2])._masks())
        for count in range(1, len(walks) + 1):
            masks = walks[:count]
            union = _union(masks, size)
            assert type(union) is array and union.typecode == "I"
            assert list(union) == [
                reduce(operator.or_, (walk[i] for walk in masks if i < len(walk)), 0)
                for i in range(size)
            ]
        assert list(_union(walks[2:3], 6)) == list(walks[2]) + [0, 0]

    def test_short_walks(self):
        assert _step_tops([], closed=False) == [] == list(_node_masks([], []))
        assert _step_tops([5], closed=False) == [0]
        assert list(_node_masks([5], [0])) == [0] * 6
        assert not self.steps_are_edges([5], closed=True)  # a step to itself
        assert _step_tops([5, 4], closed=False) == [1, 0]
        assert list(_node_masks([5, 4], [1, 0])) == [0, 0, 0, 0, 1, 1]

    @staticmethod
    def reference_masks(values, closed):
        masks = dict.fromkeys(values, 0)
        for u, v in walked_pairs(values, closed):
            top = 1 << ((u ^ v).bit_length() - 1)
            masks[u] |= top
            masks[v] |= top
        return [masks[v] for v in values]

    @pytest.mark.parametrize("dim", range(4, 17))
    def test_masks_of_the_constructed_walks(self, dim):
        for build, closed in ((edh_paths, False), (edh_cycles, True)):
            for member in build(dim).members:
                by_node = _node_masks(member.values, _step_tops(member.values, closed=closed))
                assert by_node.typecode == "I" and len(by_node) == 1 << dim
                if dim <= 10:
                    expected = self.reference_masks(member.values, closed)
                    assert list(map(by_node.__getitem__, member.values)) == expected
                assert member._masks() == by_node  # derived by the doubling

    def test_masks_of_every_hamiltonian_cycle_of_ltq4(self):
        for cycle in enumerate_hamiltonian_cycles(4):
            masks = _node_masks(cycle.values, _step_tops(cycle.values, closed=True))
            expected = self.reference_masks(cycle.values, True)
            assert list(map(masks.__getitem__, cycle.values)) == expected

    def test_hamiltonian_walks_keep_their_validated_masks(self, monkeypatch):
        # the construction reads the steps of the two 16-node seeds alone, once
        # per process, and the masks it derives from them are kept, not read again
        calls = []

        def counted(values, **kwargs):
            calls.append(len(values))
            return _step_tops(values, **kwargs)

        monkeypatch.setattr(construction_module, "_step_tops", counted)
        for build, closed in ((edh_paths, False), (edh_cycles, True)):
            construction_module._seed.cache_clear()
            calls.clear()
            build(8)
            assert calls == [16, 16]
            calls.clear()
            pair = build(8)
            assert calls == []
            for member in pair.members:
                reference = _node_masks(member.values, _step_tops(member.values, closed=closed))
                assert member._masks() == reference and member._masks() is member._masks()
            assert calls == []

    def test_other_walks_compute_their_masks_on_first_use(self, monkeypatch):
        calls = []

        def counted(values, *args, **kwargs):
            calls.append(values)
            return _node_masks(values, *args, **kwargs)

        monkeypatch.setattr(construction_module, "_node_masks", counted)
        ring = Cycle.from_values(6, [4, 5, 7, 6])  # its array would end past the walk
        assert calls == []
        assert list(ring._masks()) == [0, 0, 0, 0, 3, 3, 3, 3]
        assert ring._masks() is ring._masks() and calls == [list(ring.values)]

    def test_validation_makes_no_masks(self, monkeypatch):
        # a Hamiltonian walk too: only `_masks` makes them, on first use
        ring = edh_cycles(6).first
        calls = []

        def counted(values, *args):
            calls.append(values)
            return _node_masks(values, *args)

        monkeypatch.setattr(construction_module, "_node_masks", counted)
        for build in (Cycle.from_values, Path.from_values):
            walk = build(6, ring.values)
            assert calls == []
            tops = _step_tops(walk.values, closed=isinstance(walk, Cycle))
            assert walk._masks() == _node_masks(walk.values, tops)
            assert walk._masks() is walk._masks() and calls == [list(walk.values)]
            calls.clear()
        assert Cycle(ring.nodes)._masks() == ring._masks() and len(calls) == 1


class TestHeldCube:
    """The first whole read of a walk's `.nodes` keeps its cube's labels in
    `_CUBE`, and every later label read of that cube returns those objects."""

    @pytest.fixture(autouse=True)
    def no_cube(self, monkeypatch):
        monkeypatch.setattr(topology_module, "_CUBE", ())

    def test_one_label_object_per_node(self):
        pair = edh_cycles(8)
        held = {label.value: label for label in pair.first.nodes}

        def shared(labels):
            return all(held[label.value] is label for label in labels)

        assert shared(pair.second.nodes) and shared(pair.second) and shared(pair.first)
        for label in list(held.values())[::17]:
            assert shared(neighbors(label)) and shared(neighbors_recursive(label))
        assert all(shared(edge) for edge in edges(8))
        assert all(shared(edge) for edge in pair.first.edge_set())
        path = edh_paths(8).first
        assert shared([path.start, path.end]) and shared(path.nodes)

    @pytest.mark.parametrize("dim", range(4, 13))
    def test_the_table_is_every_label_by_value(self, dim):
        edh_cycles(dim).second.nodes
        cube = topology_module._CUBE
        assert cube == tuple(NodeLabel(dim, v) for v in range(1 << dim))
        assert all(type(label) is NodeLabel and type(label.value) is int for label in cube)

    def test_only_a_whole_read_keeps_a_table(self, monkeypatch):
        pair = edh_cycles(6)
        list(pair.first), tuple(iter(pair.second)), pair.first.edge_set(), list(edges(6))
        Path.from_values(6, pair.first.values[:-1]).nodes
        built, trusted = [], NodeLabel._trusted

        def counting_trusted(cls, items):
            built.append(items)
            return trusted(items)

        monkeypatch.setattr(NodeLabel, "_trusted", classmethod(counting_trusted))
        assert len(neighbors(NodeLabel(30, 5))) == 30 and len(built) == 30
        assert len(neighbors_recursive(NodeLabel(30, 5))) == 30 and len(built) == 60
        assert topology_module._CUBE == ()

    def test_a_whole_read_of_another_dim_replaces_the_table(self):
        small, large = edh_cycles(5), edh_paths(6)
        small.first.nodes
        held = topology_module._CUBE
        assert len(held) == 32 and small.second.nodes[0] is held[small.second.values[0]]
        large.second.nodes
        assert topology_module._CUBE == tuple(NodeLabel(6, v) for v in range(64))
        assert not any(label is held[label.value] for label in small.first.nodes)
