import pytest

from ltqcube import (
    Cycle,
    Edge,
    HamiltonianPair,
    InvalidPairError,
    LtqError,
    NodeLabel,
    edges,
    edh_cycles,
    edh_paths,
    make_label,
    simulate_ring_broadcast,
    simulate_schedules,
    simulate_split_broadcast,
)


def small_ring():
    # the shortest ring any of these cubes admits is a 4-cycle
    return Cycle(tuple(make_label(4, b) for b in ("0000", "0001", "0011", "0010")))


class TestSingleRing:
    def test_hamiltonian_ring_dim_4(self):
        report = simulate_ring_broadcast(edh_cycles(4).first)
        assert report.steps == 15
        assert report.completed
        assert report.contention_events == 0
        assert report.max_concurrent_per_edge == 1
        assert set(report.per_edge_load.values()) == {15}
        assert len(report.per_edge_load) == 16

    def test_minimal_ring(self):
        report = simulate_ring_broadcast(small_ring())
        assert report.steps == 3
        assert report.completed
        assert set(report.per_edge_load.values()) == {3}

    def test_loads_attach_to_real_edges(self):
        report = simulate_ring_broadcast(edh_cycles(5).first)
        assert set(report.per_edge_load) <= edges(5)


class TestSplitBroadcast:
    @pytest.mark.parametrize("dim", range(4, 9))
    def test_zero_contention(self, dim):
        report = simulate_split_broadcast(edh_cycles(dim))
        assert report.contention_events == 0
        assert report.steps == 2**dim - 1
        assert report.completed
        assert report.max_concurrent_per_edge == 1

    def test_dim_5_uses_64_of_80_edges(self):
        report = simulate_split_broadcast(edh_cycles(5))
        assert len(report.per_edge_load) == 64
        assert len(edges(5)) == 80

    def test_used_edges_carry_identical_load(self):
        report = simulate_split_broadcast(edh_cycles(6))
        assert set(report.per_edge_load.values()) == {63}

    def test_rejects_path_pair(self):
        with pytest.raises(InvalidPairError):
            simulate_split_broadcast(edh_paths(4))

    def test_overlapping_pair_cannot_be_built(self):
        cycle = edh_cycles(4).first
        with pytest.raises(InvalidPairError):
            HamiltonianPair(cycle, cycle, 4)


class TestScheduleEngine:
    def test_same_ring_twice_contends_every_step(self):
        ring = edh_cycles(4).first
        report = simulate_schedules([ring, ring])
        assert report.max_concurrent_per_edge == 2
        assert report.contention_events == 15 * 16
        assert set(report.per_edge_load.values()) == {30}
        assert report.completed

    def test_rejects_empty(self):
        with pytest.raises(LtqError):
            simulate_schedules([])

    def test_rejects_mixed_dimensions(self):
        other = Cycle(tuple(make_label(5, b) for b in ("00000", "00001", "00011", "00010")))
        with pytest.raises(LtqError):
            simulate_schedules([small_ring(), other])

    def test_rejects_mixed_lengths(self):
        with pytest.raises(LtqError):
            simulate_schedules([small_ring(), edh_cycles(4).first])


class TestPerEdgeLoad:
    """per_edge_load answers as the dict keyed by one Edge per ring step did."""

    @staticmethod
    def reference(rings, steps):
        loads = {}
        for ring in rings:
            nodes = ring.nodes
            for i, node in enumerate(nodes):
                edge = Edge(node, nodes[(i + 1) % len(nodes)])
                loads[edge] = loads.get(edge, 0) + steps
        return loads

    @pytest.mark.parametrize("twice", [False, True])
    def test_matches_a_dict_of_edges(self, twice):
        pair = edh_cycles(5)
        rings = [pair.first, pair.first] if twice else list(pair.members)
        loads = simulate_schedules(rings).per_edge_load
        expected = self.reference(rings, 31)
        assert len(loads) == len(expected)
        assert list(loads.items()) == list(expected.items())  # ring order
        assert loads == expected
        assert sorted(loads.values()) == sorted(expected.values())
        assert (62 if twice else 31) in loads.values() and 0 not in loads.values()
        for edge in edges(5):
            assert (edge in loads) == (edge in expected)
            assert loads.get(edge) == expected.get(edge)

    def test_foreign_keys_are_missing(self):
        loads = simulate_split_broadcast(edh_cycles(5)).per_edge_load
        for probe in (Edge(NodeLabel(6, 0), NodeLabel(6, 1)), (0, 1), NodeLabel(5, 0), None):
            assert probe not in loads
            with pytest.raises(KeyError):
                loads[probe]

    def test_one_label_per_node(self):
        keys = list(simulate_split_broadcast(edh_cycles(5)).per_edge_load)
        assert len({id(label) for edge in keys for label in (edge.a, edge.b)}) == 32
