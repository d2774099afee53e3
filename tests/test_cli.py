import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ltqcube.topology as topology_module
import ltqcube.verify as verify_module
from ltqcube import MAX_DIM, cli
from ltqcube.broadcast import simulate_split_broadcast
from ltqcube.cli import (
    DocumentError,
    _residual_payload,
    main,
    pair_document,
    parse_document,
    render_document,
)
from ltqcube.construction import edh_cycles, edh_paths
from ltqcube.topology import Edge, NodeLabel, edge_pairs, make_label
from ltqcube.verify import ResidualAnalysis, _bounded_cycle_search, residual_analysis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tampered_documents():
    """The four defined tamperings of a valid cycles document."""
    base = pair_document(edh_cycles(4))

    def with_first(mutate):
        doc = json.loads(json.dumps(base))
        mutate(doc["cycles"][0])
        return doc

    def swap(labels):
        labels[3], labels[9] = labels[9], labels[3]

    def drop(labels):
        del labels[7]

    def duplicate(labels):
        labels[5] = labels[11]

    def break_closure(labels):
        # a genuine Hamiltonian path whose ends 0000 and 1111 do not close
        labels[:] = [
            "0000", "0001", "0011", "0010", "0110", "0100", "0101", "0111",
            "1011", "1001", "1000", "1010", "1110", "1100", "1101", "1111",
        ]

    return {
        "swap-two-interior-nodes": with_first(swap),
        "drop-a-node": with_first(drop),
        "duplicate-a-node": with_first(duplicate),
        "break-the-closing-edge": with_first(break_closure),
    }


def non_utf8_document():
    """A valid dim-4 document with one byte of one label made invalid UTF-8."""
    text = render_document(pair_document(edh_cycles(4))).encode()
    return text.replace(b'"0010"', b'"00\xff0"', 1)


class TestTopology:
    def test_dim_2_edgelist(self, capsys):
        code, out, _ = run(capsys, "topology", "--dim", "2")
        assert code == 0
        assert out.splitlines() == ["00 01", "00 10", "01 11", "10 11"]

    def test_dim_4_has_32_lines(self, capsys):
        code, out, _ = run(capsys, "topology", "--dim", "4")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 32
        assert lines == sorted(lines)

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "topology", "--dim", "5")
        _, second, _ = run(capsys, "topology", "--dim", "5")
        assert first == second

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "topology", "--dim", "3", "--format", "dot")
        assert code == 0
        assert out.startswith("graph ltq_3 {")
        assert out.rstrip().endswith("}")
        assert out.count("--") == 12

    def test_bad_dim_refused(self, capsys):
        code, _, err = run(capsys, "topology", "--dim", "1")
        assert code == 2
        assert "dim" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "edges.txt"
        code, out, _ = run(capsys, "topology", "--dim", "2", "--output", str(target))
        assert code == 0 and out == ""
        assert len(target.read_text().splitlines()) == 4

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "pair.json"
        code, out, err = run(capsys, "construct", "--dim", "4", "--output", str(target))
        assert code == 2 and out == ""
        assert "cannot write --output" in err
        assert not target.parent.exists()


class TestEdgeRenderingPinned:
    """Edge lists render from value pairs; the bytes equal a rendering built
    from one Edge object per edge."""

    @staticmethod
    def edge_objects(dim):
        return frozenset(Edge(NodeLabel(dim, u), NodeLabel(dim, v)) for u, v in edge_pairs(dim))

    @pytest.mark.parametrize("dim", range(2, 11))
    def test_topology(self, capsys, dim):
        every = self.edge_objects(dim)
        edgelist = "\n".join(sorted(f"{e.a.bits} {e.b.bits}" for e in every)) + "\n"
        dot_edges = [f'  "{e.a.bits}" -- "{e.b.bits}";' for e in sorted(every)]
        dot = "\n".join([f"graph ltq_{dim} {{", *dot_edges, "}"]) + "\n"
        assert run(capsys, "topology", "--dim", str(dim)) == (0, edgelist, "")
        assert run(capsys, "topology", "--dim", str(dim), "--format", "dot") == (0, dot, "")

    @pytest.mark.parametrize("dim", range(4, 10))
    def test_residual_unused_edge_list(self, capsys, dim):
        pair = edh_cycles(dim)
        unused = self.edge_objects(dim) - pair.first.edge_set() - pair.second.edge_set()
        code, out, _ = run(capsys, "residual", "--dim", str(dim), "--format", "report-json")
        assert code == 0
        assert json.loads(out)["unused_edge_list"] == sorted(str(e) for e in unused)


class TestRingRenderingPinned:
    """Rings render from label values; the bytes equal a rendering built from
    the NodeLabels of `member.nodes` and from one Edge object per ring step."""

    @pytest.mark.parametrize("kind", ["cycles", "paths"])
    @pytest.mark.parametrize("dim", range(4, 13))
    def test_construct(self, capsys, dim, kind):
        pair = edh_cycles(dim) if kind == "cycles" else edh_paths(dim)
        cycles = [[n.bits for n in member.nodes] for member in pair.members]
        doc = {"version": 1, "dim": dim, "kind": kind, "cycles": cycles}
        expected = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert run(capsys, "construct", "--dim", str(dim), "--kind", kind) == (0, expected, "")

    @pytest.mark.parametrize("mode", ["single", "split"])
    @pytest.mark.parametrize("dim", range(4, 10))
    def test_simulate_report_json(self, capsys, dim, mode):
        pair = edh_cycles(dim)
        steps = (1 << dim) - 1
        loads = {}
        for ring in pair.members[: 1 if mode == "single" else 2]:
            nodes = ring.nodes
            for i, node in enumerate(nodes):
                edge = Edge(node, nodes[(i + 1) % len(nodes)])
                loads[edge] = loads.get(edge, 0) + steps
        payload = {
            "dim": dim,
            "mode": mode,
            "steps": steps,
            "edges_used": len(loads),
            "edges_total": dim << (dim - 1),
            "distinct_loads": sorted(set(loads.values())),
            "max_concurrent_per_edge": max(loads.values()) // steps,
            "contention_events": steps * sum(1 for load in loads.values() if load > steps),
            "completed": True,
            "per_edge_load": {str(edge): load for edge, load in loads.items()},
        }
        expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        argv = ["simulate", "--dim", str(dim), "--mode", mode, "--format", "report-json"]
        assert run(capsys, *argv) == (0, expected, "")


class TestNoNodeLabels:
    """Construction, the residual and the construct command run on label
    values: not one NodeLabel is built."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every NodeLabel built, by the validating constructor or the
        private one for values already checked."""
        count = []
        new, trusted = NodeLabel.__new__, NodeLabel._trusted

        def counting_new(cls, *args, **kwargs):
            label = new(cls, *args, **kwargs)
            count.append(label)
            return label

        def counting_trusted(cls, pair):
            label = trusted(pair)
            count.append(label)
            return label

        monkeypatch.setattr(NodeLabel, "__new__", staticmethod(counting_new))
        monkeypatch.setattr(NodeLabel, "_trusted", classmethod(counting_trusted))
        return count

    def test_construction_and_residual(self, built):
        edh_paths(10)
        pair = edh_cycles(10)
        residual_analysis(10, pair)
        assert built == []

    def test_construct_command(self, built, capsys):
        assert run(capsys, "construct", "--dim", "10")[0] == 0
        assert built == []

    def test_verify_command(self, built, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(render_document(pair_document(edh_cycles(10))))
        built.clear()
        assert run(capsys, "verify", str(path))[0] == 0
        assert built == []

    def test_reading_nodes_builds_them(self, built, monkeypatch):
        monkeypatch.setattr(topology_module, "_CUBE", ())  # no cube's labels held yet
        pair = edh_cycles(4)
        built.clear()
        assert len(pair.first.nodes) == 16
        assert len(built) == 16
        # the first whole read keeps them: later reads of the cube build none
        assert len(pair.second.nodes) == 16 and pair.first.nodes and len(built) == 16

    def test_the_count_sees_both_constructors(self, built):
        NodeLabel(4, 3)
        make_label(4, "0011")
        assert len(built) == 2


class TestNoEdgeObjects:
    """The broadcast report answers its size and loads from value pairs, and
    report-text simulate builds no Edge."""

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

    def test_split_broadcast(self, built):
        report = simulate_split_broadcast(edh_cycles(10))
        assert len(report.per_edge_load) == 2 << 10
        assert set(report.per_edge_load.values()) == {(1 << 10) - 1}
        assert built == []

    def test_simulate_command(self, built, capsys):
        assert run(capsys, "simulate", "--dim", "10")[0] == 0
        assert built == []

    def test_report_json_builds_them(self, built, capsys):
        assert run(capsys, "simulate", "--dim", "4", "--format", "report-json")[0] == 0
        assert len(built) == 32


class TestUnreadOutputIsNotRendered:
    """report-text never prints the edge lists, so they are not rendered."""

    def test_residual_text_renders_no_edge_list(self, capsys, monkeypatch):
        expected = run(capsys, "residual", "--dim", "8")

        def refuse(*args):
            raise AssertionError("edge list rendered for report-text")

        monkeypatch.setattr(cli, "_edge_lines", refuse)
        assert run(capsys, "residual", "--dim", "8") == expected
        assert expected[0] == 0

    def test_simulate_text_renders_no_edge_loads(self, capsys, monkeypatch):
        expected = run(capsys, "simulate", "--dim", "8")

        def refuse(self):
            raise AssertionError("edge rendered for report-text")

        monkeypatch.setattr(Edge, "__str__", refuse)
        assert run(capsys, "simulate", "--dim", "8") == expected
        assert expected[0] == 0


class TestConstruct:
    def test_dim_4_cycles_json(self, capsys):
        code, out, _ = run(capsys, "construct", "--dim", "4", "--kind", "cycles")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 4 and doc["kind"] == "cycles" and doc["version"] == 1
        assert [len(c) for c in doc["cycles"]] == [16, 16]

    def test_dim_5_paths_start_labels(self, capsys):
        code, out, _ = run(capsys, "construct", "--dim", "5", "--kind", "paths")
        assert code == 0
        doc = json.loads(out)
        assert doc["cycles"][0][0] == "00010"
        assert doc["cycles"][1][0] == "00110"

    def test_dim_3_refused(self, capsys):
        code, _, err = run(capsys, "construct", "--dim", "3")
        assert code == 2
        assert "three edges" in err

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run(capsys, "construct", "--dim", "6")
        _, second, _ = run(capsys, "construct", "--dim", "6")
        assert first == second


class TestVerify:
    @pytest.mark.parametrize("dim", range(4, 13))
    @pytest.mark.parametrize("kind", ["cycles", "paths"])
    def test_round_trip(self, capsys, tmp_path, dim, kind):
        doc_path = tmp_path / "pair.json"
        code, out, _ = run(capsys, "construct", "--dim", str(dim), "--kind", kind)
        assert code == 0
        doc_path.write_text(out)
        code, out, _ = run(capsys, "verify", str(doc_path))
        assert code == 0
        assert out.rstrip().endswith("result: PASS")

    def test_each_tampering_exits_1(self, capsys, tmp_path):
        for name, doc in tampered_documents().items():
            path = tmp_path / f"{name}.json"
            path.write_text(render_document(doc))
            code, out, _ = run(capsys, "verify", str(path))
            assert code == 1, name
            assert "FAIL" in out

    def test_truncated_document_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(render_document(pair_document(edh_cycles(4)))[:-40])
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "malformed" in err

    def test_bad_label_exits_3(self, capsys, tmp_path):
        doc = pair_document(edh_cycles(4))
        doc["cycles"][0][0] = "00A0"
        path = tmp_path / "badlabel.json"
        path.write_text(render_document(doc))
        code, _, _ = run(capsys, "verify", str(path))
        assert code == 3

    def test_non_utf8_by_path_exits_3(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(non_utf8_document())
        code, _, err = run(capsys, "verify", str(path))
        assert code == 3
        assert "not UTF-8" in err

    def test_non_utf8_by_stdin_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(non_utf8_document())))
        code, _, err = run(capsys, "verify")
        assert code == 3
        assert "not UTF-8" in err

    def test_empty_member_exits_3(self, capsys, tmp_path):
        doc = pair_document(edh_cycles(4))
        doc["cycles"][0] = []
        path = tmp_path / "empty.json"
        path.write_text(render_document(doc))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (3, "")
        assert err == "ltqcube: malformed input: member 0 must be a non-empty array of labels\n"

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
        assert code == 3

    def test_unreadable_input_path_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path))
        assert code == 3
        assert "i/o error" in err

    def test_report_json_format(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(render_document(pair_document(edh_cycles(4))))
        code, out, _ = run(capsys, "verify", str(path), "--format", "report-json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert len(report["checks"]) == 11


class TestParseDocument:
    def test_rejects_wrong_member_count(self):
        doc = pair_document(edh_cycles(4))
        doc["cycles"].append(doc["cycles"][0])
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))

    def test_rejects_bad_kind(self):
        doc = pair_document(edh_cycles(4))
        doc["kind"] = "tours"
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))

    def test_rejects_bad_dim(self):
        doc = pair_document(edh_cycles(4))
        doc["dim"] = "four"
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("version", [99, 0, "1", True, None])
    def test_rejects_unknown_version(self, version):
        doc = pair_document(edh_cycles(4))
        doc["version"] = version
        with pytest.raises(DocumentError):
            parse_document(json.dumps(doc))

    def test_accepts_own_output(self):
        doc = pair_document(edh_cycles(5))
        dim, kind, first, second = parse_document(render_document(doc))
        assert (dim, kind) == (5, "cycles")
        assert len(first) == len(second) == 32

    def test_returns_label_values(self):
        pair = edh_paths(6)
        _, kind, first, second = parse_document(render_document(pair_document(pair)))
        assert kind == "paths"
        assert (first, second) == (list(pair.first.values), list(pair.second.values))

    @pytest.mark.parametrize(
        "labels,message",
        [
            (["0000", 5, "00x0"], "member 1 holds a non-string label: 5"),
            (["0000", "00x0", 5], "member 1: label must contain only 0 and 1: '00x0'"),
            (["0000", "000", "00x0"], "member 1: expected 4 characters, got 3: '000'"),
            (["0000", "00 1", "000"], "member 1: label must contain only 0 and 1: '00 1'"),
            (["0000", "0b11", "0_11"], "member 1: label must contain only 0 and 1: '0b11'"),
            (["0000", "+011"], "member 1: label must contain only 0 and 1: '+011'"),
            (["0000", ["0001"]], "member 1 holds a non-string label: ['0001']"),
        ],
    )
    def test_reports_the_first_bad_label(self, labels, message):
        doc = pair_document(edh_cycles(4))
        doc["cycles"][1] = labels
        with pytest.raises(DocumentError) as caught:
            parse_document(json.dumps(doc))
        assert str(caught.value) == message


class TestOracle:
    def test_dim_3_pair_existence(self, capsys):
        code, out, _ = run(capsys, "oracle", "--dim", "3", "--mode", "pair-existence")
        assert code == 0
        assert "exist: False" in out
        assert "degree" in out

    def test_dim_4_pair_existence_with_witness(self, capsys):
        code, out, _ = run(capsys, "oracle", "--dim", "4", "--mode", "pair-existence")
        assert code == 0
        assert "exist: True" in out
        assert "witness" in out

    def test_dim_3_enumerate(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--dim", "3", "--mode", "enumerate", "--format", "report-json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 5
        assert report["exhaustive"] is True

    def test_dim_4_enumerate_text_is_cut_at_8(self, capsys):
        code, out, _ = run(capsys, "oracle", "--dim", "4", "--mode", "enumerate")
        lines = out.splitlines()
        assert code == 0 and lines[0] == "dim 4: 780 Hamiltonian cycle(s)"
        assert len(lines) == 10 and lines[-1] == "... 772 more"

    def test_dim_5_enumerate_refused_without_limit(self, capsys):
        code, _, err = run(capsys, "oracle", "--dim", "5", "--mode", "enumerate")
        assert code == 2
        assert "limit" in err

    def test_dim_5_enumerate_with_limit(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--dim", "5", "--mode", "enumerate", "--limit", "2",
            "--format", "report-json",
        )
        assert code == 0
        assert json.loads(out)["count"] == 2

    def test_pair_existence_out_of_scope(self, capsys):
        code, _, _ = run(capsys, "oracle", "--dim", "6", "--mode", "pair-existence")
        assert code == 2


class TestSimulate:
    def test_dim_4_split(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "4", "--mode", "split", "--format", "report-json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["steps"] == 15
        assert report["contention_events"] == 0
        assert report["completed"] is True

    def test_dim_6_split_text(self, capsys):
        code, out, _ = run(capsys, "simulate", "--dim", "6", "--mode", "split")
        assert code == 0
        assert "contention events: 0" in out

    def test_single_mode(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--dim", "4", "--mode", "single", "--format", "report-json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["edges_used"] == 16
        assert report["distinct_loads"] == [15]

    def test_dim_3_refused(self, capsys):
        code, _, _ = run(capsys, "simulate", "--dim", "3", "--mode", "split")
        assert code == 2


class TestResidual:
    def test_dim_5_no_search(self, capsys):
        code, out, _ = run(capsys, "residual", "--dim", "5", "--format", "report-json")
        assert code == 0
        report = json.loads(out)
        assert report["unused_edges"] == 16
        assert report["degree_histogram"] == {"1": 32}
        assert report["third_cycle"] is None and report["search_budget"] is None

    def test_dim_6_with_budget(self, capsys):
        code, out, _ = run(
            capsys, "residual", "--dim", "6", "--budget", "100000", "--format", "report-json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["unused_edges"] == 64
        assert report["search_budget"] == 100000
        assert report["search_verdict"] == "refuted"
        assert report["search_expansions"] == 0

    def test_no_search_no_verdict_keys(self, capsys):
        _, out, _ = run(capsys, "residual", "--dim", "6", "--format", "report-json")
        assert "search_verdict" not in json.loads(out)
        _, out, _ = run(capsys, "residual", "--dim", "6")
        assert out.splitlines()[-1] == "third-cycle search: not requested"

    def test_dim_7_refuted(self, capsys):
        code, out, _ = run(capsys, "residual", "--dim", "7", "--budget", "1000000")
        assert code == 0
        assert out.splitlines()[-1] == (
            "third-cycle search: refuted (0 of 1000000 expansions): the residual of this"
            " pair holds no Hamiltonian cycle (says nothing about other pairs or LTQ_n)"
        )

    def test_found_line_renders_the_cycle(self):
        # no constructed residual is known to hold a third cycle, so stand
        # one of the pair's own cycles in for a found one
        pair = edh_cycles(6)
        searched = residual_analysis(6, pair, search_budget=100)
        analysis = ResidualAnalysis(
            dim=6,
            unused_edges=searched.unused_edges,
            degree_histogram=searched.degree_histogram,
            third_cycle_found=pair.first,
            search_budget=100,
            search_verdict="found",
            search_expansions=63,
        )
        payload, lines = _residual_payload(analysis)
        assert lines[-1] == "third-cycle search: found (63 of 100 expansions) " + " -> ".join(
            n.bits for n in pair.first.nodes
        )
        assert payload["search_verdict"] == "found"
        assert payload["third_cycle"] == [n.bits for n in pair.first.nodes]

    def test_dim_8_refuted(self, capsys):
        code, out, _ = run(capsys, "residual", "--dim", "8", "--budget", "500")
        assert code == 0
        assert out.splitlines()[-1] == (
            "third-cycle search: refuted (0 of 500 expansions): the residual of this"
            " pair holds no Hamiltonian cycle (says nothing about other pairs or LTQ_n)"
        )

    def test_budget_exhausted_line(self):
        # every constructed residual from dim 5 on is disconnected and refuted,
        # so stand a search of the connected cube minus the first ring in
        pair = edh_cycles(8)
        first = pair.first.edge_pairs()
        _, verdict, expansions = _bounded_cycle_search(
            8, (e for e in edge_pairs(8) if e not in first), 500
        )
        searched = residual_analysis(8, pair, search_budget=500)
        analysis = ResidualAnalysis(
            dim=8,
            unused_edges=searched.unused_edges,
            degree_histogram=searched.degree_histogram,
            third_cycle_found=searched.third_cycle_found,
            search_budget=500,
            search_verdict=verdict,
            search_expansions=expansions,
        )
        payload, lines = _residual_payload(analysis)
        assert lines[-1] == (
            "third-cycle search: budget exhausted (500 of 500 expansions): none found"
            " (not a non-existence proof)"
        )
        assert payload["search_verdict"] == "budget exhausted"
        assert payload["third_cycle"] is None


class TestExitCodeContract:
    def test_codes_cover_the_contract(self, capsys, tmp_path):
        ok, _, _ = run(capsys, "topology", "--dim", "2")
        refused, _, _ = run(capsys, "construct", "--dim", "3")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        malformed, _, _ = run(capsys, "verify", str(bad))
        doc = tampered_documents()["drop-a-node"]
        failing = tmp_path / "failing.json"
        failing.write_text(render_document(doc))
        failed, _, _ = run(capsys, "verify", str(failing))
        assert (ok, failed, refused, malformed) == (0, 1, 2, 3)

    @pytest.mark.parametrize("command,argv", [
        ("cmd_topology", ["topology", "--dim", "4"]),
        ("cmd_construct", ["construct", "--dim", "4"]),
        ("cmd_residual", ["residual", "--dim", "4"]),
    ])
    def test_out_of_memory_is_a_refusal(self, capsys, command, argv):
        with mock.patch.object(cli, command, side_effect=MemoryError):
            code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_REFUSED == 2
        assert out == ""
        assert err.startswith("ltqcube: out of memory") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["report-text", "report-json"])
    def test_limit_outside_enumerate_is_a_refusal(self, capsys, fmt):
        argv = ["oracle", "--dim", "4", "--mode", "pair-existence", "--limit", "5", "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (cli.EXIT_REFUSED, "")
        assert err == (
            "ltqcube: --limit applies to --mode enumerate only, not --mode pair-existence\n"
        )


class TestDimensionRefusals:
    """An out-of-range --dim is refused with exit 2 and the range message
    before any work: no label is formatted and no pair is built."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*_, **__):
            raise AssertionError("work started before the dimension was checked")

        monkeypatch.setattr(cli, "_edge_lines", refuse)
        monkeypatch.setattr(verify_module, "_search_cycles", refuse)

    @pytest.mark.parametrize("dim", ["-1", "0", "1", "31"])
    @pytest.mark.parametrize("command", ["topology", "construct", "residual", "simulate"])
    def test_out_of_range(self, capsys, command, dim):
        code, out, err = run(capsys, command, "--dim", dim)
        assert (code, out) == (2, "")
        assert err == f"ltqcube: dim must be an integer in [2, {MAX_DIM}], got {dim}\n"

    @pytest.mark.parametrize("dim", ["6", "12"])
    @pytest.mark.parametrize("limit", [[], ["--limit", "3"]])
    def test_enumerate_above_dim_5(self, capsys, dim, limit):
        code, out, err = run(capsys, "oracle", "--dim", dim, "--mode", "enumerate", *limit)
        assert (code, out) == (2, "")
        assert err == (
            f"ltqcube: enumeration is guarded at dim <= 5, got {dim} (a limit bounds the"
            " answer, not the search); for a budget-limited search use `residual --budget`\n"
        )


#: Exit code and stdout sha256 of each run of `cli_digests`, recorded from a
#: known-good tree. Regenerate it, for a deliberate change of output only, with
#: `PYTHONPATH=src python tests/test_cli.py`.
CLI_DIGESTS = Path(__file__).parent / "data" / "cli_sha256.json"


def cli_digests(tmp: Path) -> dict[str, list]:
    """{run name: [exit code, stdout sha256]} over every subcommand in both
    formats at dims 4-7 (verify reads each constructed document by path; the
    residual runs with and without a search budget) and the oracle's two
    modes at dims 3-4, all in-process."""
    runs: dict[str, list] = {}

    def digest(name, argv):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(argv)
        runs[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
        return out.getvalue()

    reports = ("report-text", "report-json")
    for dim in map(str, range(4, 8)):
        for fmt in ("edgelist", "dot"):
            digest(f"topology {dim} {fmt}", ["topology", "--dim", dim, "--format", fmt])
        for kind in ("paths", "cycles"):
            doc = tmp / f"{kind}-{dim}.json"
            argv = ["construct", "--dim", dim, "--kind", kind]
            doc.write_text(digest(f"construct {dim} {kind}", argv))
            for fmt in reports:
                digest(f"verify {dim} {kind} {fmt}", ["verify", str(doc), "--format", fmt])
        for fmt in reports:
            for mode in ("single", "split"):
                argv = ["simulate", "--dim", dim, "--mode", mode, "--format", fmt]
                digest(f"simulate {dim} {mode} {fmt}", argv)
            for budget in ([], ["--budget", "1000"]):
                argv = ["residual", "--dim", dim, *budget, "--format", fmt]
                digest(" ".join(["residual", dim, *budget[1:], fmt]), argv)
    for dim in ("3", "4"):
        for mode in ("pair-existence", "enumerate"):
            for fmt in reports:
                argv = ["oracle", "--dim", dim, "--mode", mode, "--format", fmt]
                digest(f"oracle {dim} {mode} {fmt}", argv)
    return runs


class TestByteStability:
    def test_outputs_match_the_recorded_digests(self, tmp_path):
        recorded = json.loads(CLI_DIGESTS.read_text())
        assert len(recorded) == 72
        assert cli_digests(tmp_path) == recorded


VALID_BYTES = [
    render_document(pair_document(build(4))).encode() for build in (edh_cycles, edh_paths)
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
LABEL_LISTS = st.lists(st.lists(st.text("01", min_size=1, max_size=6), max_size=20), max_size=3)
FUZZ_INPUTS = st.one_of(
    st.binary(),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.fixed_dictionaries(
        {
            "version": st.just(1) | JSON_VALUES,
            "dim": st.integers(-1, 33) | JSON_VALUES,
            "kind": st.sampled_from(["paths", "cycles"]) | JSON_VALUES,
            "cycles": LABEL_LISTS | JSON_VALUES,
        }
    ).map(lambda doc: json.dumps(doc).encode()),
    st.builds(
        lambda doc, at, junk, cut: doc[:at] + junk + doc[at + cut :],
        st.sampled_from(VALID_BYTES),
        st.integers(0, min(len(doc) for doc in VALID_BYTES)),
        st.binary(max_size=8),
        st.integers(0, 8),
    ),
)


@settings(max_examples=300, deadline=None)
@given(data=FUZZ_INPUTS, by_stdin=st.booleans())
@example(data=VALID_BYTES[0], by_stdin=True)
@example(data=non_utf8_document(), by_stdin=False)
@example(data=b"[" * 100_000, by_stdin=True)
def test_verify_any_bytes_exits_0_1_or_3(data, by_stdin):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        if by_stdin:
            with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(data))):
                code = main(["verify"])
        else:
            path = Path(tmp) / "doc.json"
            path.write_bytes(data)
            code = main(["verify", str(path)])
    assert code in (0, 1, 3)
    assert "Traceback" not in err.getvalue()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        CLI_DIGESTS.write_text(json.dumps(cli_digests(Path(tmp)), indent=2, sort_keys=True) + "\n")
