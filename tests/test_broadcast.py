import pytest

from ltqcube import (
    Cycle,
    HamiltonianPair,
    InvalidPairError,
    LtqError,
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
