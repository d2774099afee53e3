"""The package's result records: constructor signatures and defaults, repr,
same-class equality, hashing, `Edge` ordering, immutability, and pickle and
copy round trips. These pin the records' behaviour independently of how the
classes are implemented.
"""

import copy
import inspect
import pickle

import pytest

from ltqcube import (
    CheckResult,
    Cycle,
    Edge,
    HamiltonianPair,
    NodeLabel,
    PairExistence,
    Path,
    ResidualAnalysis,
    TrafficReport,
    VerificationReport,
    edh_cycles,
    edh_paths,
    exists_two_edge_disjoint_hc,
    residual_analysis,
    simulate_split_broadcast,
    verify_pair,
)

SIGNATURES = {
    Edge: "(a: 'NodeLabel', b: 'NodeLabel')",
    Path: "(nodes: 'Iterable[NodeLabel]')",
    Cycle: "(nodes: 'Iterable[NodeLabel]')",
    HamiltonianPair: "(first: 'Path | Cycle', second: 'Path | Cycle', dim: 'int')",
    TrafficReport: (
        "(steps: 'int', per_edge_load: 'Mapping[Edge, int]', max_concurrent_per_edge: 'int',"
        " contention_events: 'int', completed: 'bool')"
    ),
    CheckResult: "(name: 'str', passed: 'bool', detail: 'str' = '')",
    VerificationReport: "(subject: 'str', checks: 'tuple[CheckResult, ...]')",
    PairExistence: (
        "(dim: 'int', exists: 'bool', witness: 'HamiltonianPair | None',"
        " certificates: 'tuple[str, ...]')"
    ),
    ResidualAnalysis: (
        "(dim: 'int', unused_edges: 'EdgeSet', degree_histogram: 'dict[int, int]',"
        " third_cycle_found: 'Cycle | None' = None, search_budget: 'int | None' = None,"
        " search_verdict: 'str | None' = None, search_expansions: 'int | None' = None)"
    ),
}


def edge(dim, u, v):
    return Edge(NodeLabel(dim, u), NodeLabel(dim, v))


def records():
    """One hashable record of each class, with its fields in constructor order
    and the values of the fields that equality and the hash read."""
    check = CheckResult("node count", True, "16 of 16")
    pair = edh_paths(4)
    analysis = residual_analysis(5, edh_cycles(5))
    nope = exists_two_edge_disjoint_hc(3)
    a, b = NodeLabel(4, 0), NodeLabel(4, 1)
    path, cycle = pair.first, edh_cycles(4).first
    loads = frozenset({(0, 1)})
    return [
        (Edge(a, b), ("a", "b"), (a, b)),
        (path, ("dim", "values"), (4, path.values.tobytes())),
        (cycle, ("dim", "values"), (4, cycle.values.tobytes())),
        (pair, ("first", "second", "dim"), (pair.first, pair.second, 4)),
        (
            TrafficReport(15, loads, 1, 0, True),
            ("steps", "per_edge_load", "max_concurrent_per_edge", "contention_events", "completed"),
            (15, loads, 1, 0, True),
        ),
        (check, ("name", "passed", "detail"), ("node count", True, "16 of 16")),
        (
            VerificationReport("cycles pair, dim 4", (check,)),
            ("subject", "checks"),
            ("cycles pair, dim 4", (check,)),
        ),
        (nope, ("dim", "exists", "witness", "certificates"), (3, False, None, nope.certificates)),
        (
            analysis,
            (
                "dim", "unused_edges", "degree_histogram", "third_cycle_found",
                "search_budget", "search_verdict", "search_expansions",
            ),
            (5, analysis.unused_edges, None, None, None, None),
        ),
    ]


@pytest.fixture(params=records(), ids=lambda case: type(case[0]).__name__)
def record(request):
    return request.param


class TestConstructors:
    @pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
    def test_signature(self, cls):
        # the parameters callers see; the return annotation is not part of a call
        signature = inspect.signature(cls).replace(return_annotation=inspect.Signature.empty)
        assert str(signature) == SIGNATURES[cls]

    def test_keywords_build_the_same_record(self):
        a, b = NodeLabel(4, 0), NodeLabel(4, 1)
        assert Edge(b=b, a=a) == Edge(a, b)
        first, second = edh_cycles(4).members
        assert HamiltonianPair(dim=4, second=second, first=first) == edh_cycles(4)
        assert CheckResult(name="x", passed=False) == CheckResult("x", False, "")
        assert VerificationReport(checks=(), subject="s") == VerificationReport("s", ())
        assert PairExistence(dim=3, exists=False, witness=None, certificates=()) == (
            PairExistence(3, False, None, ())
        )
        report = TrafficReport(
            steps=1, per_edge_load={}, max_concurrent_per_edge=0, contention_events=0,
            completed=True,
        )
        assert report == TrafficReport(1, {}, 0, 0, True)

    def test_defaults(self):
        assert CheckResult("x", True).detail == ""
        analysis = residual_analysis(6, edh_cycles(6))
        built = ResidualAnalysis(6, analysis.unused_edges, {2: 64})
        assert (
            built.third_cycle_found, built.search_budget, built.search_verdict,
            built.search_expansions,
        ) == (None, None, None, None)
        assert built == analysis

    @pytest.mark.parametrize("cls", [Edge, HamiltonianPair, CheckResult, ResidualAnalysis])
    def test_missing_and_unknown_arguments(self, cls):
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(nonsense=1)

    def test_validators_run(self):
        with pytest.raises(ValueError):
            edge(4, 0, 3)
        pair = edh_cycles(5)
        analysis = residual_analysis(5, pair)
        with pytest.raises(ValueError):
            ResidualAnalysis(5, analysis.unused_edges, {2: 32})
        with pytest.raises(ValueError):
            HamiltonianPair(pair.first, pair.first, 5)

    def test_edge_stores_the_smaller_value_first(self):
        swapped = edge(4, 1, 0)
        assert (swapped.a, swapped.b) == (NodeLabel(4, 0), NodeLabel(4, 1))


class TestRepr:
    def test_edge(self):
        assert repr(edge(4, 1, 0)) == (
            "Edge(a=NodeLabel(dim=4, value=0), b=NodeLabel(dim=4, value=1))"
        )

    def test_walks(self):
        assert repr(Path.from_values(4, [0, 1, 3])) == "Path(dim=4, values=(0, 1, 3))"
        assert repr(Cycle.from_values(2, [3, 1, 0, 2])) == "Cycle(dim=2, values=(0, 1, 3, 2))"

    def test_pair(self):
        pair = edh_cycles(4)
        assert repr(pair) == f"HamiltonianPair(first={pair.first!r}, second={pair.second!r}, dim=4)"

    def test_reports(self):
        check = CheckResult("pair: edge-disjoint", True)
        assert repr(check) == "CheckResult(name='pair: edge-disjoint', passed=True, detail='')"
        assert repr(VerificationReport("s", (check,))) == (
            f"VerificationReport(subject='s', checks=({check!r},))"
        )
        nope = exists_two_edge_disjoint_hc(3)
        assert repr(nope) == (
            f"PairExistence(dim=3, exists=False, witness=None, certificates={nope.certificates!r})"
        )

    def test_traffic_report(self):
        report = simulate_split_broadcast(edh_cycles(4))
        assert repr(report) == (
            "TrafficReport(steps=15, per_edge_load=<per-edge loads of 32 dim-4 edges>,"
            " max_concurrent_per_edge=1, contention_events=0, completed=True)"
        )

    def test_residual_analysis(self):
        analysis = residual_analysis(6, edh_cycles(6), search_budget=5)
        assert repr(analysis) == (
            "ResidualAnalysis(dim=6, unused_edges=EdgeSet(dim=6, 64 edges),"
            " degree_histogram={2: 64}, third_cycle_found=None, search_budget=5,"
            " search_verdict='refuted', search_expansions=0)"
        )


class TestEquality:
    def test_unequal_to_its_fields_as_a_tuple(self, record):
        rec, names, _ = record
        fields = tuple(getattr(rec, name) for name in names)
        assert rec != fields and fields != rec
        # an Edge is a tuple subclass: NotImplemented would let tuple's reflected == answer
        assert rec.__eq__(fields) is (False if isinstance(rec, Edge) else NotImplemented)

    def test_field_change_breaks_equality(self):
        assert edge(4, 0, 1) != edge(4, 0, 2)
        assert CheckResult("x", True) != CheckResult("x", True, "why")
        assert VerificationReport("s", ()) != VerificationReport("t", ())

    def test_path_and_cycle_are_never_equal(self):
        values = [0, 1, 3, 2]
        path, cycle = Path.from_values(2, values), Cycle.from_values(2, values)
        assert path.values == cycle.values and path.dim == cycle.dim
        assert path != cycle and cycle != path

    def test_subclass_is_not_equal(self):
        class Special(CheckResult):
            __slots__ = ()

        assert CheckResult("x", True) != Special("x", True)

    def test_residual_analysis_ignores_the_histogram(self):
        analysis = residual_analysis(6, edh_cycles(6))
        other = ResidualAnalysis(
            dim=6, unused_edges=analysis.unused_edges, degree_histogram=analysis.degree_histogram
        )
        object.__setattr__(other, "degree_histogram", {0: 1})
        assert other == analysis and hash(other) == hash(analysis)
        assert "degree_histogram={0: 1}" in repr(other)

    def test_residual_analysis_compares_the_search(self):
        pair = edh_cycles(6)
        assert residual_analysis(6, pair, search_budget=5) != residual_analysis(6, pair)


class TestHash:
    def test_hash_is_the_compared_fields(self, record):
        rec, _, key = record
        assert hash(rec) == hash(key)

    def test_edge_hashes_as_its_label_pair(self):
        for u, v in [(0, 1), (0, 2), (6, 4), (1, 7)]:
            e = edge(4, u, v)
            assert hash(e) == hash((e.a, e.b)) == hash(((4, min(u, v)), (4, max(u, v))))

    def test_equal_records_hash_equally(self):
        assert hash(edh_cycles(5)) == hash(edh_cycles(5))
        assert hash(edge(5, 1, 0)) == hash(edge(5, 0, 1))

    def test_traffic_report_with_a_mapping_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(simulate_split_broadcast(edh_cycles(4)))


class TestEdgeOrdering:
    def test_orders_by_ends(self):
        es = [edge(4, 4, 6), edge(4, 0, 2), edge(4, 1, 0), edge(4, 0, 4)]
        assert [(e.a.value, e.b.value) for e in sorted(es)] == [(0, 1), (0, 2), (0, 4), (4, 6)]
        low, high = edge(4, 0, 1), edge(4, 0, 2)
        assert low < high and low <= high and high > low and high >= low
        assert low <= edge(4, 1, 0) and low >= edge(4, 1, 0) and not low < edge(4, 1, 0)

    def test_only_against_an_edge(self):
        low = edge(4, 0, 1)
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            with pytest.raises(TypeError):
                getattr(low, op)((low.a, low.b))
        with pytest.raises(TypeError):
            low < (low.a, low.b)

    def test_other_records_are_unordered(self):
        with pytest.raises(TypeError):
            CheckResult("a", True) < CheckResult("b", True)
        with pytest.raises(TypeError):
            edh_cycles(4) <= edh_cycles(4)


class TestFrozen:
    def test_assignment_raises(self, record):
        rec, names, _ = record
        for name in names:
            before = getattr(rec, name)
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
            assert getattr(rec, name) is before


class TestRoundTrips:
    @pytest.mark.parametrize("protocol", range(0, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle(self, record, protocol):
        rec, names, _ = record
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is type(rec) and back == rec
        for name in names:
            assert getattr(back, name) == getattr(rec, name)

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy])
    def test_copy(self, record, how):
        rec, names, _ = record
        back = how(rec)
        assert type(back) is type(rec) and back == rec and not back != rec
        assert hash(back) == hash(rec)
        for name in names:
            assert getattr(back, name) == getattr(rec, name)

    def test_a_shallow_copy_is_the_record(self, record):
        # records are frozen, as a tuple is: a copy could differ in nothing
        rec, _, _ = record
        assert copy.copy(rec) is rec

    def test_walk_state_keeps_its_format(self):
        # a walk's state has always been the positional (dim, values); these
        # protocol-2 bytes were written when the dimension was a private field
        walk = Path.__new__(Path)
        walk.__setstate__((4, (0, 1, 3)))
        assert walk == Path.from_values(4, [0, 1, 3]) and walk.dim == 4
        old = (
            b"\x80\x02cltqcube.construction\nPath\nq\x00)\x81q\x01"
            b"K\x04K\x00K\x01K\x03\x87q\x02\x86q\x03b."
        )
        assert pickle.loads(old) == walk and pickle.dumps(walk, 2) == old

    def test_copied_records_stay_frozen(self, record):
        rec, names, _ = record
        with pytest.raises(AttributeError):
            setattr(pickle.loads(pickle.dumps(rec)), names[0], None)

    def test_unhashable_reports(self):
        report = simulate_split_broadcast(edh_cycles(4))
        for back in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert back == report and dict(back.per_edge_load) == dict(report.per_edge_load)
        checks = verify_pair(4, *edh_cycles(4).members)
        assert pickle.loads(pickle.dumps(checks)) == checks and copy.deepcopy(checks) == checks
        witness = exists_two_edge_disjoint_hc(4)
        assert pickle.loads(pickle.dumps(witness)) == witness == copy.deepcopy(witness)
