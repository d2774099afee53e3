"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live;
every criterion is exact (zero tolerance) and carries a wall-clock budget.
"""

import json
import time

from ltqcube import (
    NodeLabel,
    are_edge_disjoint,
    edges,
    edh_cycles,
    edh_paths,
    enumerate_hamiltonian_cycles,
    exists_two_edge_disjoint_hc,
    expected_endpoints,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    neighbors,
    neighbors_recursive,
    residual_analysis,
    simulate_split_broadcast,
)
from ltqcube.cli import main, pair_document, render_document

FIRST_SEED = (
    "0010", "0110", "0111", "0101", "0100", "1100", "1110", "1010",
    "1000", "1001", "1011", "1101", "1111", "0011", "0001", "0000",
)
SECOND_SEED = (
    "0110", "1110", "1111", "1001", "0101", "0011", "0010", "1010",
    "1011", "0111", "0001", "1101", "1100", "1000", "0000", "0100",
)


def record(number, name, elapsed, budget):
    ok = elapsed < budget
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.4f}s, budget {budget}s)")
    assert ok, f"criterion {number} took {elapsed:.4f}s, budget {budget}s"


def test_criterion_1_base_case_fidelity():
    edh_paths(4)  # warm-up outside the timed window
    start = time.perf_counter()
    pair = edh_paths(4)
    elapsed = time.perf_counter() - start

    assert tuple(n.bits for n in pair.first.nodes) == FIRST_SEED
    assert tuple(n.bits for n in pair.second.nodes) == SECOND_SEED
    assert is_hamiltonian_path(4, pair.first)
    assert is_hamiltonian_path(4, pair.second)
    assert are_edge_disjoint(pair.first, pair.second)
    assert (pair.first.start.bits, pair.first.end.bits) == ("0010", "0000")
    assert (pair.second.start.bits, pair.second.end.bits) == ("0110", "0100")
    record(1, "base-case fidelity", elapsed, 0.001)


def test_criterion_2_cycle_pair_every_dim():
    start = time.perf_counter()
    for dim in range(4, 15):
        paths = edh_paths(dim)
        start_f, end_f, start_s, end_s = expected_endpoints(dim)
        assert (paths.first.start, paths.first.end) == (start_f, end_f)
        assert (paths.second.start, paths.second.end) == (start_s, end_s)
        cycles = edh_cycles(dim)
        assert is_hamiltonian_cycle(dim, cycles.first)
        assert is_hamiltonian_cycle(dim, cycles.second)
        assert are_edge_disjoint(cycles.first, cycles.second)
    record(2, "cycle pair for dims 4..14", time.perf_counter() - start, 5.0)


def test_criterion_3_impossibility_at_dim_3():
    start = time.perf_counter()
    result = exists_two_edge_disjoint_hc(3)
    assert result.exists is False
    assert any("degree" in c for c in result.certificates)
    assert any("exhaustive" in c for c in result.certificates)
    assert any("0 edge-disjoint pairs" in c for c in result.certificates)
    assert enumerate_hamiltonian_cycles(3)  # cycles exist, disjoint pairs do not
    record(3, "dim-3 impossibility, both certificates", time.perf_counter() - start, 1.0)


def test_criterion_4_definition_fidelity():
    start = time.perf_counter()
    for dim in range(2, 11):
        count = 0
        for v in range(1 << dim):
            x = NodeLabel(dim, v)
            assert neighbors(x) == neighbors_recursive(x)
            count += 1
        assert count == 1 << dim
        edge_set = edges(dim)
        assert len(edge_set) == dim * 2 ** (dim - 1)
        for e in edge_set:  # the XOR is one bit or two successive bits
            d = e.a.value ^ e.b.value
            assert d // (d & -d) in (1, 3)
    record(4, "closed form matches recursion, dims 2..10", time.perf_counter() - start, 10.0)


def test_criterion_5_broadcast_claim():
    start = time.perf_counter()
    for dim in range(4, 11):
        report = simulate_split_broadcast(edh_cycles(dim))
        assert report.contention_events == 0
        assert report.steps == 2**dim - 1
        assert report.completed
    record(5, "zero-contention split broadcast, dims 4..10", time.perf_counter() - start, 30.0)


def test_criterion_6_residual_arithmetic():
    start = time.perf_counter()
    for dim in range(4, 13):
        analysis = residual_analysis(dim, edh_cycles(dim))
        assert len(analysis.unused_edges) == dim * 2 ** (dim - 1) - 2 ** (dim + 1)
        assert analysis.degree_histogram == {dim - 4: 1 << dim}
    record(6, "residual counts and regularity, dims 4..12", time.perf_counter() - start, 10.0)


def test_criterion_7_mutation_battery(tmp_path, capsys):
    document = pair_document(edh_cycles(4))

    def tampered(mutate):
        doc = json.loads(json.dumps(document))
        mutate(doc["cycles"][0])
        return doc

    def swap(labels):
        labels[3], labels[9] = labels[9], labels[3]

    def drop(labels):
        del labels[7]

    def duplicate(labels):
        labels[5] = labels[11]

    def break_closure(labels):
        labels[:] = [
            "0000", "0001", "0011", "0010", "0110", "0100", "0101", "0111",
            "1011", "1001", "1000", "1010", "1110", "1100", "1101", "1111",
        ]

    battery = {
        "swap": tampered(swap),
        "drop": tampered(drop),
        "duplicate": tampered(duplicate),
        "break-closure": tampered(break_closure),
    }
    start = time.perf_counter()
    codes = {}
    for name, doc in battery.items():
        path = tmp_path / f"{name}.json"
        path.write_text(render_document(doc))
        codes[name] = main(["verify", str(path)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # drop the four reports from the captured stream
    assert codes == {name: 1 for name in battery}
    record(7, "four tamperings all rejected with exit 1", elapsed, 1.0)
