import copy
import pickle
import sys
import tracemalloc

import pytest
from test_verify import LTQ6_DECOMPOSITION

import ltqcube.broadcast as broadcast_module
from ltqcube import (
    Cycle,
    Edge,
    HamiltonianPair,
    InvalidPairError,
    LtqError,
    NodeLabel,
    Path,
    TrafficReport,
    edges,
    edh_cycles,
    edh_paths,
    make_label,
    residual_analysis,
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
        assert set(report.per_edge_load) <= frozenset(edges(5))

    def test_short_ring_costs_its_largest_label_not_the_cube(self):
        # the mask array ends at label 3, not at 2**24
        ring = Cycle.from_values(24, [0, 1, 3, 2])
        tracemalloc.start()
        try:
            report = simulate_ring_broadcast(ring)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert report.steps == 3 and report.contention_events == 0
        loads = report.per_edge_load
        assert len(loads) == 4 and list(loads.values()) == [3] * 4
        steps = [(0, 1), (0, 2), (1, 3), (2, 3)]
        assert list(loads) == [Edge(NodeLabel(24, u), NodeLabel(24, v)) for u, v in steps]
        far = Edge(NodeLabel(24, 4), NodeLabel(24, 5))  # beyond the ring's masks
        assert far not in loads and loads.get(far) is None

    def test_reuses_the_masks_the_pair_checked(self, monkeypatch):
        pair = edh_cycles(8)

        def refuse(*args, **kwargs):
            raise AssertionError("masks computed again")

        modules = [module for name, module in sys.modules.items() if name.startswith("ltqcube")]
        for module in modules:
            if "_node_masks" in vars(module):  # every binding of the helper
                monkeypatch.setattr(module, "_node_masks", refuse)
        report = simulate_ring_broadcast(pair.first)
        assert report.steps == 255 and len(report.per_edge_load) == 256
        assert simulate_split_broadcast(pair).contention_events == 0
        assert len(residual_analysis(8, pair).unused_edges) == 8 * 128 - 512


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
            HamiltonianPair(cycle, cycle)

    @pytest.mark.parametrize("dim", range(4, 9))
    def test_tampered_pair_is_measured_not_assumed(self, dim):
        # built and validated, then its second ring replaced by the first
        pair = edh_cycles(dim)
        object.__setattr__(pair.second, "values", pair.first.values)
        report = simulate_split_broadcast(pair)
        assert report.max_concurrent_per_edge == 2
        assert report.contention_events == report.steps * 2**dim
        assert len(report.per_edge_load) == 2**dim
        assert set(report.per_edge_load.values()) == {2 * report.steps}

    @pytest.mark.parametrize("how", ["pickle", "copy"])
    def test_reloaded_pair_measures_the_same(self, how):
        pair = edh_cycles(7)
        other = pickle.loads(pickle.dumps(pair)) if how == "pickle" else copy.deepcopy(pair)
        assert simulate_split_broadcast(other) == simulate_split_broadcast(pair)
        assert residual_analysis(7, other) == residual_analysis(7, pair)
        assert residual_analysis(7, other).degree_histogram == {3: 128}


class TestReportFromItsRings:
    """A report holds only its rings and reads every count off them: the
    values the report held as five given fields, matched against a dict of
    one Edge per ring step."""

    @pytest.mark.parametrize("case", ["single", "split", "tampered"])
    @pytest.mark.parametrize("dim", range(4, 13))
    def test_every_count_matches_the_stepwise_reference(self, dim, case):
        pair = edh_cycles(dim)
        if case == "tampered":  # built and validated, then its second ring replaced
            object.__setattr__(pair.second, "values", pair.first.values)
        single = case == "single"
        report = simulate_ring_broadcast(pair.first) if single else simulate_split_broadcast(pair)
        steps, shared = 2**dim - 1, case == "tampered"
        assert report.rings == pair.members[: 1 if single else 2]
        assert (report.steps, report.completed) == (steps, True)
        assert report.max_concurrent_per_edge == (2 if shared else 1)
        assert report.contention_events == (steps << dim if shared else 0)
        loads = report.per_edge_load
        expected = TestPerEdgeLoad.reference(report.rings, steps)
        assert len(loads) == len(expected) == (2 << dim if case == "split" else 1 << dim)
        assert list(loads.items()) == sorted(expected.items())
        assert list(loads.values()) == [2 * steps if shared else steps] * len(expected)

    def test_equality_and_hash_build_no_edge(self, monkeypatch):
        a, b = (simulate_split_broadcast(edh_cycles(12)) for _ in range(2))

        def refuse(*args):
            raise AssertionError("an Edge was built")

        monkeypatch.setattr(broadcast_module, "_edges_of", refuse)
        monkeypatch.setattr(Edge, "_trusted", refuse)
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != simulate_ring_broadcast(edh_cycles(12).first)
        assert a != TrafficReport(reversed(a.rings))  # the rings' order counts

    @pytest.mark.parametrize(
        "rings",
        [
            lambda: (edh_cycles(4).first, small_ring()),
            lambda: (),
            lambda: (edh_paths(4).first,),
            lambda: (small_ring(), Cycle.from_values(5, [0, 1, 3, 2])),
        ],
        ids=["unequal lengths", "no ring", "a path", "two dims"],
    )
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_bad_rings_are_refused_on_load(self, monkeypatch, protocol, rings):
        report = simulate_ring_broadcast(edh_cycles(4).first)
        state = (rings(),)
        with pytest.raises(LtqError):
            TrafficReport(*state)
        for what in (report, report.per_edge_load):  # the loads load as their report's
            monkeypatch.setattr(TrafficReport, "__getstate__", lambda self: state)
            data = pickle.dumps(what, protocol)
            monkeypatch.undo()
            with pytest.raises(LtqError):
                pickle.loads(data)

    def test_loads_round_trip_as_their_reports(self):
        loads = simulate_split_broadcast(edh_cycles(5)).per_edge_load
        for back in (pickle.loads(pickle.dumps(loads)), copy.deepcopy(loads), copy.copy(loads)):
            assert dict(back) == dict(loads) and list(back) == list(loads)


class TestScheduleEngine:
    def test_same_ring_twice_contends_every_step(self):
        ring = edh_cycles(4).first
        report = simulate_schedules([ring, ring])
        assert report.max_concurrent_per_edge == 2
        assert report.contention_events == 15 * 16
        assert set(report.per_edge_load.values()) == {30}
        assert report.completed

    def test_takes_a_one_shot_iterable(self):
        pair = edh_cycles(5)
        report = simulate_schedules(ring for ring in pair.members)
        assert report == simulate_split_broadcast(pair)

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

    @pytest.mark.parametrize(
        "rings",
        [[edh_paths(4).first], [Path([NodeLabel(4, 0)])], [edh_cycles(4).first, edh_paths(4).first]],
        ids=["hamiltonian path", "one node", "cycle and path"],
    )
    def test_rejects_open_paths(self, rings):
        # a one-way relay along a path never brings the last node's message back
        with pytest.raises(LtqError, match="must be a Cycle"):
            simulate_schedules(rings)


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

    def check(self, rings):
        report = simulate_schedules(rings)
        loads = report.per_edge_load
        expected = self.reference(rings, report.steps)
        assert len(loads) == len(expected)
        assert list(loads.items()) == sorted(expected.items())  # ascending order
        assert loads == expected
        assert sorted(loads.values()) == sorted(expected.values())
        assert all(load in loads.values() for load in expected.values())
        assert 0 not in loads.values() and report.steps * 4 not in loads.values()
        for edge in edges(rings[0].dim):
            assert (edge in loads) == (edge in expected)
            assert loads.get(edge) == expected.get(edge)
        assert report.max_concurrent_per_edge == max(expected.values()) // report.steps
        contested = sum(1 for load in expected.values() if load > report.steps)
        assert report.contention_events == report.steps * contested
        return report

    @pytest.mark.parametrize("case", ["one", "split", "twice"])
    @pytest.mark.parametrize("dim", range(4, 9))
    def test_matches_a_dict_of_edges(self, dim, case):
        pair = edh_cycles(dim)
        rings = {"one": [pair.first], "split": list(pair.members), "twice": [pair.first] * 2}
        self.check(rings[case])

    def test_three_rings_decomposing_ltq6(self):
        report = self.check([Cycle.from_values(6, values) for values in LTQ6_DECOMPOSITION])
        assert len(report.per_edge_load) == 192 == len(edges(6))
        assert report.contention_events == 0 and report.max_concurrent_per_edge == 1

    def test_foreign_keys_are_missing(self):
        loads = simulate_split_broadcast(edh_cycles(5)).per_edge_load
        for probe in (Edge(NodeLabel(6, 0), NodeLabel(6, 1)), (0, 1), NodeLabel(5, 0), None):
            assert probe not in loads
            with pytest.raises(KeyError):
                loads[probe]

    def test_one_label_per_node(self):
        keys = list(simulate_split_broadcast(edh_cycles(5)).per_edge_load)
        assert len({id(label) for edge in keys for label in (edge.a, edge.b)}) == 32
