"""The read-only edge sets returned by `edges` and `residual_analysis`.

Each is compared against the eager frozenset of `Edge` objects the library
built before, kept here as the reference.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltqcube import (
    Edge,
    NodeLabel,
    Path,
    edges,
    edh_cycles,
    edh_paths,
    enumerate_hamiltonian_cycles,
    residual_analysis,
)
from ltqcube.topology import EdgeSet, edge_pairs


def eager(dim, pairs):
    """The reference: one validated Edge per (smaller, larger) value pair."""
    return frozenset(Edge(NodeLabel(dim, u), NodeLabel(dim, v)) for u, v in pairs)


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
    for dim in range(4, 9):
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
    reference = dataclasses.replace(analysis, unused_edges=eager_residual(dim, edh_cycles(dim)))
    assert analysis == reference and reference == analysis
    assert hash(analysis) == hash(reference)


def test_empty_sets_of_different_dims_are_equal_like_frozensets():
    assert EdgeSet(4, ()) == EdgeSet(5, ()) == frozenset()
    assert hash(EdgeSet(4, ())) == hash(frozenset())


LTQ5_PAIRS = sorted(edge_pairs(5))
LTQ5_EDGES = eager(5, LTQ5_PAIRS)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.sampled_from(LTQ5_PAIRS)), st.sets(st.sampled_from(LTQ5_PAIRS)))
def test_drawn_subsets_of_ltq5(chosen, other):
    lazy, ref = EdgeSet(5, chosen), eager(5, chosen)
    assert_same_set(lazy, ref, [eager(5, other), LTQ5_EDGES, frozenset()])
    assert (lazy == EdgeSet(5, other)) == (ref == eager(5, other))
    for edge in LTQ5_EDGES:
        assert (edge in lazy) == (edge in ref)


class TestNoEdgeObjects:
    """Size and membership are answered without building one Edge per edge."""

    @pytest.fixture
    def built(self, monkeypatch):
        count = []
        original = Edge.__post_init__

        def counting(self):
            count.append(self)
            original(self)

        monkeypatch.setattr(Edge, "__post_init__", counting)
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
