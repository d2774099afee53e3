"""The read-only edge sets returned by `edges` and `residual_analysis`.

Each is compared against the eager frozenset of `Edge` objects the library
built before, kept here as the reference.
"""

import copy
import pickle

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
    ResidualAnalysis,
    edges,
    edh_cycles,
    edh_paths,
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


def walk_edge_sets(dim):
    """Edge sets of a few Hamiltonian cycles and paths of the dim-cube."""
    if dim < 4:
        cycle = enumerate_hamiltonian_cycles(dim, limit=1)[0]
        return [cycle.edge_set(), Path(cycle.nodes).edge_set()]
    cycles, paths = edh_cycles(dim), edh_paths(dim)
    return [cycles.first.edge_set(), cycles.second.edge_set(), paths.first.edge_set()]


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


def assert_same_set(lazy, ref, others):
    assert len(lazy) == len(ref)
    assert lazy == ref and ref == lazy
    assert not lazy != ref and not ref != lazy
    assert hash(lazy) == hash(ref)
    assert set(lazy) == ref
    for other in others:
        assert (lazy <= other) == (ref <= other) and (other <= lazy) == (other <= ref)
        assert (lazy >= other) == (ref >= other) and (other >= lazy) == (other >= ref)
        assert (lazy < other) == (ref < other) and (other < lazy) == (other < ref)
        assert lazy.isdisjoint(other) == ref.isdisjoint(other)
        for result, expected in (
            (lazy - other, ref - other),
            (other - lazy, other - ref),
            (lazy & other, ref & other),
            (other & lazy, other & ref),
            (lazy | other, ref | other),
            (other | lazy, other | ref),
        ):
            assert type(result) is frozenset
            assert result == expected


@pytest.mark.parametrize("dim,build", cases())
def test_matches_the_eager_reference(dim, build):
    lazy, ref = build(dim)
    assert_same_set(lazy, ref, [*walk_edge_sets(dim), frozenset(), ref])
    for edge in ref:
        assert edge in lazy
    assert set(lazy.pairs) == {(edge.a.value, edge.b.value) for edge in ref}
    assert list(lazy) == sorted(lazy) and list(lazy.pairs) == sorted(lazy.pairs)


@pytest.mark.parametrize("dim,build", cases())
def test_foreign_members_are_not_members(dim, build):
    lazy, ref = build(dim)
    u, v = min(lazy.pairs, default=(0, 1))
    foreign = Edge(NodeLabel(dim + 1, u), NodeLabel(dim + 1, v))
    for probe in (foreign, (u, v), NodeLabel(dim, u), f"{u} {v}", None):
        assert probe not in lazy
        assert (probe in lazy) == (probe in ref)


@pytest.mark.parametrize("dim", range(4, 9))
def test_residual_analysis_compares_and_hashes_as_before(dim):
    analysis = residual_analysis(dim, edh_cycles(dim))
    reference = ResidualAnalysis(
        dim=dim,
        unused_edges=eager_residual(dim, edh_cycles(dim)),
        degree_histogram=analysis.degree_histogram,
    )
    assert analysis == reference and reference == analysis
    assert hash(analysis) == hash(reference)


def test_empty_sets_of_different_dims_are_equal_like_frozensets():
    empty4, empty5 = (EdgeSet._without(d, edge_masks(d, edge_pairs(d))) for d in (4, 5))
    assert empty4 == empty5 == frozenset()
    assert hash(empty4) == hash(frozenset())


def test_two_cycles_sharing_an_edge_remove_every_step():
    # two 4-cycles of LTQ_4 that share the edge 0 .. 2
    rings = [[0, 1, 3, 2], [0, 4, 6, 2]]
    steps = {(min(u, v), max(u, v)) for ring in rings for u, v in zip(ring, ring[1:] + ring[:1])}
    assert len(steps) == 7
    masks = [Cycle.from_values(4, ring)._masks() for ring in rings]
    assert EdgeSet._without(4, masks) == eager(4, set(edge_pairs(4)) - steps)


LTQ5_PAIRS = sorted(edge_pairs(5))
LTQ5_EDGES = eager(5, LTQ5_PAIRS)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(LTQ5_PAIRS)), st.sets(st.sampled_from(LTQ5_PAIRS)))
def test_drawn_subsets_of_ltq5(chosen, other):
    lazy, ref = EdgeSet._without(5, edge_masks(5, set(LTQ5_PAIRS) - chosen)), eager(5, chosen)
    assert_same_set(lazy, ref, [eager(5, other), LTQ5_EDGES, frozenset()])
    unchosen = EdgeSet._without(5, edge_masks(5, set(LTQ5_PAIRS) - other))
    assert (lazy == unchosen) == (ref == eager(5, other))
    for edge in LTQ5_EDGES:
        assert (edge in lazy) == (edge in ref)


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

    @pytest.mark.parametrize("dim,build", cases())
    def test_hash_is_the_frozensets(self, built, dim, build):
        lazy, ref = build(dim)
        built.clear()
        assert hash(lazy) == hash(ref)
        assert built == []

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

    def test_residual_analyses_compare_equal(self):
        pair = edh_cycles(14)
        assert residual_analysis(14, pair) == residual_analysis(14, pair)
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

    @pytest.mark.parametrize("field", ["dim", "_removed", "_popcounts", "_hash_cache"])
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
        object.__setattr__(tampered, "_removed", state[1])
        object.__setattr__(tampered, "dim", state[0])
        for load in (lambda: pickle.loads(pickle.dumps(tampered)), lambda: copy.deepcopy(tampered)):
            with pytest.raises(DimensionError, match=error):
                load()

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
