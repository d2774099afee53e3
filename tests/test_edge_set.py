"""The read-only edge sets returned by `edges` and `residual_analysis`.

Each is compared, member by member, against the eager frozenset of `Edge`
objects the library built before, kept here as the reference. An edge set
itself is a record: it equals and hashes by its dim and removed masks.
"""

import copy
import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ltqcube.topology as topology_module
from ltqcube import (
    Cycle,
    DimensionError,
    Edge,
    InvalidPairError,
    NodeLabel,
    Path,
    edges,
    edh_cycles,
    enumerate_hamiltonian_cycles,
    residual_analysis,
    search_third_cycle,
    simulate_split_broadcast,
)
from ltqcube.topology import EdgeSet, _neighbor_values, edge_pairs


def eager(dim, pairs):
    """The reference: one validated Edge per (smaller, larger) value pair."""
    return frozenset(Edge(NodeLabel(dim, u), NodeLabel(dim, v)) for u, v in pairs)


def edge_masks(dim, pairs):
    """The mask array of each (u, v) pair, read as a two-node path."""
    return [Path.from_values(dim, [u, v])._masks() for u, v in pairs]


def eager_residual(dim, pair):
    return eager(dim, edge_pairs(dim)) - pair.first.edge_set() - pair.second.edge_set()


def cases():
    for dim in range(2, 9):
        yield pytest.param(dim, lambda d: (edges(d), eager(d, edge_pairs(d))), id=f"edges-{dim}")
    for dim in range(4, 11):
        yield pytest.param(
            dim,
            lambda d: (
                residual_analysis(d, edh_cycles(d)).unused_edges,
                eager_residual(d, edh_cycles(d)),
            ),
            id=f"residual-{dim}",
        )


def assert_same_members(lazy, ref, probes):
    """`lazy` holds the edges of `ref`, a frozenset of `Edge`: the same count,
    the same members in ascending order, and the same answer to `in` for
    each probe."""
    assert len(lazy) == len(ref)
    assert frozenset(lazy) == ref
    assert set(lazy.pairs) == {(edge.a.value, edge.b.value) for edge in ref}
    assert list(lazy) == sorted(ref) and list(lazy.pairs) == sorted(lazy.pairs)
    for edge in probes:
        assert (edge in lazy) == (edge in ref)


@pytest.mark.parametrize("dim,build", cases())
def test_matches_the_eager_reference(dim, build):
    lazy, ref = build(dim)
    assert_same_members(lazy, ref, eager(dim, edge_pairs(dim)))


@pytest.mark.parametrize("dim,build", cases())
def test_foreign_members_are_not_members(dim, build):
    lazy, ref = build(dim)
    u, v = min(lazy.pairs, default=(0, 1))
    foreign = Edge(NodeLabel(dim + 1, u), NodeLabel(dim + 1, v))
    for probe in (foreign, (u, v), NodeLabel(dim, u), f"{u} {v}", None):
        assert probe not in lazy
        assert (probe in lazy) == (probe in ref)


def test_equality_is_by_dim_and_masks():
    empty4, empty5 = (EdgeSet._without(d, edge_masks(d, edge_pairs(d))) for d in (4, 5))
    assert len(empty4) == len(empty5) == 0
    assert empty4 != empty5 and empty4 != frozenset()
    assert empty4 == EdgeSet._without(4, edge_masks(4, edge_pairs(4)))
    assert hash(empty4) == hash(EdgeSet(4, [15] * 16))
    assert edges(4) == EdgeSet(4, [0] * 16) and hash(edges(4)) == hash(EdgeSet(4))


def test_two_cycles_sharing_an_edge_remove_every_step():
    # two 4-cycles of LTQ_4 that share the edge 0 .. 2
    rings = [[0, 1, 3, 2], [0, 4, 6, 2]]
    steps = {(min(u, v), max(u, v)) for ring in rings for u, v in zip(ring, ring[1:] + ring[:1])}
    assert len(steps) == 7
    masks = [Cycle.from_values(4, ring)._masks() for ring in rings]
    assert frozenset(EdgeSet._without(4, masks)) == eager(4, set(edge_pairs(4)) - steps)


LTQ5_PAIRS = sorted(edge_pairs(5))
LTQ5_EDGES = eager(5, LTQ5_PAIRS)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(LTQ5_PAIRS)), st.sets(st.sampled_from(LTQ5_PAIRS)))
def test_drawn_subsets_of_ltq5(chosen, other):
    lazy, ref = EdgeSet._without(5, edge_masks(5, set(LTQ5_PAIRS) - chosen)), eager(5, chosen)
    assert_same_members(lazy, ref, LTQ5_EDGES)
    unchosen = EdgeSet._without(5, edge_masks(5, set(LTQ5_PAIRS) - other))
    # within one dim, equal masks are equal members
    assert (lazy == unchosen) == (ref == eager(5, other))
    if lazy == unchosen:
        assert hash(lazy) == hash(unchosen)


class TestNoEdgeObjects:
    """Size and membership are answered without building one Edge per edge."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every Edge built, by the validating constructor or the private
        one for pairs already proven."""
        count = []
        new, trusted = Edge.__new__, Edge._trusted

        def counting_new(cls, *args, **kwargs):
            edge = new(cls, *args, **kwargs)
            count.append(edge)
            return edge

        def counting_trusted(cls, pair):
            edge = trusted(pair)
            count.append(edge)
            return edge

        monkeypatch.setattr(Edge, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(Edge, "_trusted", classmethod(counting_trusted))
        return count

    def test_residual_analysis_without_search(self, built):
        pair = edh_cycles(8)
        probe = next(iter(eager_residual(8, pair)))
        built.clear()
        unused = residual_analysis(8, pair).unused_edges
        assert len(unused) == 8 * 128 - 512
        assert probe in unused
        assert built == []

    def test_edges(self, built):
        probe = Edge(NodeLabel(8, 0), NodeLabel(8, 1))
        built.clear()
        every = edges(8)
        assert len(every) == 8 * 128
        assert probe in every
        assert built == []

    def test_iteration_builds_them(self, built):
        assert len(list(edges(4))) == 32
        assert len(built) == 32

    @pytest.mark.parametrize("dim", [6, 7, 8])
    def test_third_cycle_search_over_an_edge_set(self, built, dim):
        unused = residual_analysis(dim, edh_cycles(dim)).unused_edges
        assert search_third_cycle(dim, unused, budget=1000) is None
        assert built == []


class TestNoEnumeration:
    """Size, degrees and membership of the residual, and of the whole cube,
    are answered with the enumeration of the cube's edges patched to raise."""

    @pytest.fixture(autouse=True)
    def refuse_enumeration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the cube's edges were enumerated")

        # the enumerations and the neighbor rule, wherever they are called from
        monkeypatch.setattr(topology_module, "edge_pairs", refuse)
        monkeypatch.setattr(topology_module, "_mask_edges", refuse)
        monkeypatch.setattr(topology_module, "_neighbor_values", refuse)

    @pytest.mark.parametrize("dim", range(4, 17))
    def test_residual_analysis_without_search(self, dim):
        pair = edh_cycles(dim)
        analysis = residual_analysis(dim, pair)
        unused = analysis.unused_edges
        assert len(unused) == (dim << (dim - 1)) - (1 << (dim + 1))
        assert analysis.degree_histogram == {dim - 4: 1 << dim}
        # each canonical ring starts at node 0, so its ring neighbors are the
        # second and the last value
        ring = {v for member in pair.members for v in (member.values[1], member.values[-1])}
        assert len(ring) == 4
        for v in _neighbor_values(dim, 0):
            edge = Edge(NodeLabel(dim, 0), NodeLabel(dim, v))
            assert (edge in unused) == (v not in ring)
        foreign = Edge(NodeLabel(dim + 1, 0), NodeLabel(dim + 1, 1))
        assert foreign not in unused

    @pytest.mark.parametrize("dim", range(4, 17))
    def test_residual_analyses_equal_and_hash_alike(self, dim):
        first, second = (residual_analysis(dim, edh_cycles(dim)) for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert first.unused_edges == second.unused_edges
        assert hash(first.unused_edges) == hash(second.unused_edges)

    def test_residual_analyses_compare_equal(self):
        pair = edh_cycles(14)
        assert edges(14) == EdgeSet(14) != edges(13)
        assert residual_analysis(14, pair).unused_edges != edges(14)

    def test_edges_of_dim_20(self):
        every = edges(20)
        assert len(every) == 20 << 19
        assert Edge(NodeLabel(20, 0), NodeLabel(20, 1)) in every
        assert Edge(NodeLabel(20, 5), NodeLabel(20, 5 ^ 3 << 18)) in every
        assert Edge(NodeLabel(19, 0), NodeLabel(19, 1)) not in every

    def test_the_guard_is_real(self):
        with pytest.raises(AssertionError, match="enumerated"):
            residual_analysis(6, edh_cycles(6)).unused_edges.pairs
        with pytest.raises(AssertionError, match="enumerated"):
            list(edges(4))


class TestFrozenRecord:
    """An edge set is a record: frozen, copied as itself, and loaded through
    its constructor's checks."""

    @staticmethod
    def sets():
        return [edges(5), edges(8), residual_analysis(8, edh_cycles(8)).unused_edges]

    @pytest.mark.parametrize("field", ["dim", "_removed", "_popcounts"])
    def test_setting_a_field_raises(self, field):
        for es in self.sets():
            size = len(es)
            with pytest.raises(AttributeError):
                setattr(es, field, 7)
            with pytest.raises(AttributeError):
                delattr(es, field)
            assert len(es) == size

    def test_a_shallow_copy_is_the_set(self):
        for es in self.sets():
            assert copy.copy(es) is es

    @pytest.mark.parametrize("state,error", [
        ((31, ()), "dim must be an integer"),
        ((6, (1, 2, 3)), "needs 64 removed masks, got 3"),
    ])
    def test_a_bad_state_raises_on_load(self, state, error):
        loaded = EdgeSet.__new__(EdgeSet)
        with pytest.raises(DimensionError, match=error):
            loaded.__setstate__(state)
        # as `pickle` and `copy.deepcopy` call it, through `__reduce_ex__`
        tampered = edges(6)
        object.__setattr__(tampered, "_removed", memoryview(array("I", state[1])))
        object.__setattr__(tampered, "dim", state[0])
        for load in (lambda: pickle.loads(pickle.dumps(tampered)), lambda: copy.deepcopy(tampered)):
            with pytest.raises(DimensionError, match=error):
                load()

    @pytest.mark.parametrize("dim", range(4, 9))
    def test_a_mask_past_the_dim_is_refused(self, dim):
        for top in (dim, dim + 1, 31):
            masks = array("I", [0]) * (1 << dim)
            masks[5] = 1 << top
            error = f"^a removed mask sets bit {top}, past dim {dim}$"
            with pytest.raises(DimensionError, match=error):
                EdgeSet(dim, masks)
            tampered = edges(dim)
            object.__setattr__(tampered, "_removed", memoryview(masks))
            for load in (lambda: pickle.loads(pickle.dumps(tampered)), lambda: copy.deepcopy(tampered)):
                with pytest.raises(DimensionError, match=error):
                    load()
        full = array("I", [(1 << dim) - 1]) * (1 << dim)
        assert len(EdgeSet(dim, full)) == 0 == len(EdgeSet(dim, full).pairs)

    @pytest.mark.parametrize("mask", [-1, 1 << 32])
    def test_a_mask_outside_32_bits_is_refused(self, mask):
        masks = [0] * 63 + [mask]
        error = "^a removed mask is negative or past bit 31, dim 6$"
        with pytest.raises(DimensionError, match=error):
            EdgeSet(6, masks)
        loaded = EdgeSet.__new__(EdgeSet)
        with pytest.raises(DimensionError, match=error):
            loaded.__setstate__((6, tuple(masks)))

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_bytes_are_read_as_masks(self, kind):
        assert EdgeSet(2, kind(4)) == edges(2)
        masks = [0] * 64
        masks[0] = masks[1] = 1  # the edge 0 .. 1, of dimension 0
        es = EdgeSet(6, kind(masks))
        assert len(es) == len(edges(6)) - 1 and es.pairs == edges(6).pairs[1:]

    def test_the_masks_are_read_only(self):
        for es in self.sets():
            assert type(es._removed.obj) is bytes and es._removed.readonly
            size, pairs = len(es), es.pairs
            with pytest.raises(TypeError):
                es._removed[0] = 0
            assert len(es) == size and es.pairs == pairs

    @pytest.mark.parametrize("state,dim,pairs", [
        # pickled, at protocol 2, before the masks were bytes
        (b"\x80\x02cltqcube.topology\nEdgeSet\nq\x00)\x81q\x01K\x04)\x86q\x02b.", 4, None),
        (
            b"\x80\x02cltqcube.topology\nEdgeSet\nq\x00)\x81q\x01K\x05carray\narray\nq\x02X"
            b"\x01\x00\x00\x00Iq\x03]q\x04(" + b"K\x1dK\x0f" * 4 + b"K\x0f" * 8
            + b"K\x1dK\x0f" * 4 + b"K\x0f" * 8 + b"e\x86q\x05Rq\x06\x86q\x07b.",
            5,
            ((0, 2), (1, 25), (3, 27), (4, 6), (5, 29), (7, 31), (8, 24), (9, 17), (10, 26),
             (11, 19), (12, 28), (13, 21), (14, 30), (15, 23), (16, 18), (20, 22)),
        ),
    ])
    def test_an_earlier_state_loads(self, state, dim, pairs):
        loaded = pickle.loads(state)
        expected = edges(dim) if pairs is None else residual_analysis(dim, edh_cycles(dim)).unused_edges
        assert loaded == expected and hash(loaded) == hash(expected)
        assert loaded.pairs == (pairs or edges(dim).pairs)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trips_equal(self, protocol):
        for es in self.sets():
            for back in (pickle.loads(pickle.dumps(es, protocol)), copy.deepcopy(es)):
                assert type(back) is EdgeSet and back is not es
                assert back == es and hash(back) == hash(es) and len(back) == len(es)
                assert back._degree_histogram() == es._degree_histogram()
                assert back.pairs == es.pairs


class TestDerivedCountIsACheck:
    """The residual's size is derived from the number of distinct ring
    edges, so rings that share an edge leave it too large and are refused.
    The pair is tampered with after it was built and validated."""

    @staticmethod
    def tampered(dim, values):
        pair = edh_cycles(dim)
        object.__setattr__(pair.second, "values", tuple(values))
        return pair

    @pytest.mark.parametrize("dim", range(4, 11))
    def test_second_ring_replaced_by_the_first(self, dim):
        pair = self.tampered(dim, edh_cycles(dim).first.values)
        with pytest.raises(InvalidPairError, match="residual has"):
            residual_analysis(dim, pair)

    def test_fewest_shared_edges(self):
        first = edh_cycles(4).first
        # the Hamiltonian cycles of LTQ_4 that share an edge with the first
        # ring share at least two
        shared, other = min(
            (len(set(c.edge_pairs()) & set(first.edge_pairs())), tuple(c.values))
            for c in enumerate_hamiltonian_cycles(4)
            if not set(c.edge_pairs()).isdisjoint(first.edge_pairs())
        )
        assert shared == 2
        with pytest.raises(InvalidPairError, match="residual has 2 edges, expected 0"):
            residual_analysis(4, self.tampered(4, other))


class TestMeasuredContentionIsACheck:
    """The broadcast side of `TestDerivedCountIsACheck`: the split broadcast
    reads the rings the tampered pair holds, not those it validated."""

    @pytest.mark.parametrize("dim", range(4, 11))
    def test_second_ring_replaced_by_the_first(self, dim):
        pair = TestDerivedCountIsACheck.tampered(dim, edh_cycles(dim).first.values)
        report = simulate_split_broadcast(pair)
        assert report.max_concurrent_per_edge == 2
        assert report.contention_events == report.steps * 2**dim

    def test_fewest_shared_edges(self):
        first = edh_cycles(4).first
        other = next(
            c.values for c in enumerate_hamiltonian_cycles(4)
            if len(set(c.edge_pairs()) & set(first.edge_pairs())) == 2
        )
        report = simulate_split_broadcast(TestDerivedCountIsACheck.tampered(4, other))
        assert report.max_concurrent_per_edge == 2
        assert report.contention_events == report.steps * 2
        assert len(report.per_edge_load) == 30
