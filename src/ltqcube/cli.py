"""Command-line surface: deterministic, scriptable exports and reports.

Exit codes: 0 success, 1 verification failure, 2 domain refusal (bad
dimension, guarded oracle scope, bad flags, an --output path that cannot be
written, a run that exhausts memory), 3 malformed or unreadable input document.
All human-facing node labels are fixed-width binary strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence
from itertools import repeat

from .broadcast import TrafficReport, simulate_ring_broadcast, simulate_split_broadcast
from .construction import Cycle, Path, edh_cycles, edh_paths
from .errors import DimensionError, LtqError, OracleScopeError
from .topology import check_dim, edge_pairs, make_label
from .verify import (
    ResidualAnalysis,
    _verify_values,
    enumerate_hamiltonian_cycles,
    exists_two_edge_disjoint_hc,
    residual_analysis,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_REFUSED = 2
EXIT_MALFORMED = 3

DOCUMENT_VERSION = 1


class DocumentError(ValueError):
    """A cycles-json document that cannot be parsed; maps to exit 3."""


def _bits(walk: Path | Cycle) -> list[str]:
    """A walk's labels as fixed-width binary strings, read from its values
    in one C-level pass."""
    return list(map(format, walk.values, repeat(f"0{walk.dim}b")))


def pair_document(pair) -> dict:
    return {
        "version": DOCUMENT_VERSION,
        "dim": pair.dim,
        "kind": pair.kind,
        "cycles": [_bits(member) for member in pair.members],
    }


def render_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_document(text: str) -> tuple[int, str, list[int], list[int]]:
    """Decode a cycles-json document into (dim, kind, first, second), each
    member a list of label values.

    Structural problems raise DocumentError; semantic problems (duplicate
    or misordered labels) are left for the checkers.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError("top level must be an object")
    version = doc.get("version")
    if type(version) is not int or version != DOCUMENT_VERSION:
        raise DocumentError(f"version must be {DOCUMENT_VERSION}, got {version!r}")
    dim = doc.get("dim")
    try:
        check_dim(dim)
    except DimensionError as exc:
        raise DocumentError(str(exc)) from exc
    kind = doc.get("kind")
    if kind not in ("paths", "cycles"):
        raise DocumentError(f"kind must be 'paths' or 'cycles', got {kind!r}")
    arrays = doc.get("cycles")
    if not isinstance(arrays, list) or len(arrays) != 2:
        raise DocumentError("'cycles' must be an array of exactly two label arrays")
    members = []
    for index, labels in enumerate(arrays):
        if not isinstance(labels, list) or not labels:
            raise DocumentError(f"member {index} must be a non-empty array of labels")
        # one C-speed pass per property; a bad member is then read label by
        # label, so that its first bad label is the one reported
        if set(map(type, labels)) != {str} or set(map(len, labels)) != {dim} or (
            not set("".join(labels)) <= {"0", "1"}
        ):
            for label in labels:
                if not isinstance(label, str):
                    raise DocumentError(f"member {index} holds a non-string label: {label!r}")
                try:
                    make_label(dim, label)
                except LtqError as exc:
                    raise DocumentError(f"member {index}: {exc}") from exc
        members.append([int(label, 2) for label in labels])
    return dim, kind, members[0], members[1]


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            # the input was fine; the --output flag names a place we cannot write
            raise LtqError(f"cannot write --output: {exc}") from exc


def _read_input(path: str | None) -> str:
    if path is None or path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"not UTF-8: {exc}") from exc


def _edge_lines(dim: int, pairs: Iterable[tuple[int, int]], template: str) -> list[str]:
    """One line per (smaller, larger) value pair, in the order given (the
    ascending order of `edge_pairs`), with both labels rendered as
    fixed-width binary strings, each of the 2**dim labels formatted once."""
    width = f"0{dim}b"
    bits = [format(v, width) for v in range(1 << dim)]
    return [template.format(bits[u], bits[v]) for u, v in pairs]


def _render_report(payload: dict, text_lines: list[str], fmt: str) -> str:
    if fmt == "report-json":
        return render_document(payload)
    return "\n".join(text_lines) + "\n"


def cmd_topology(args: argparse.Namespace) -> int:
    check_dim(args.dim)  # before _edge_lines formats all 2**dim labels
    template = '  "{}" -- "{}";' if args.format == "dot" else "{} {}"
    lines = _edge_lines(args.dim, edge_pairs(args.dim), template)
    if args.format == "dot":
        lines = [f"graph ltq_{args.dim} {{", *lines, "}"]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    pair = edh_cycles(args.dim) if args.kind == "cycles" else edh_paths(args.dim)
    _emit(render_document(pair_document(pair)), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    dim, kind, first, second = parse_document(_read_input(args.input))
    report = _verify_values(dim, kind, first, second)
    _emit(_render_report(report.to_dict(), report.lines(), args.format), args.output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.limit is not None and args.mode != "enumerate":
        raise OracleScopeError(f"--limit applies to --mode enumerate only, not --mode {args.mode}")
    if args.mode == "enumerate":
        cycles = enumerate_hamiltonian_cycles(args.dim, args.limit)
        payload = {
            "dim": args.dim,
            "mode": "enumerate",
            "exhaustive": args.limit is None,
            "count": len(cycles),
            "cycles": [_bits(c) for c in cycles],
        }
        lines = [
            f"dim {args.dim}: {len(cycles)} Hamiltonian cycle(s)"
            + ("" if args.limit is None else f" (stopped at limit {args.limit})"),
        ]
        lines.extend(" -> ".join(_bits(c)) for c in cycles[:8])
        if len(cycles) > 8:
            lines.append(f"... {len(cycles) - 8} more")
    else:
        result = exists_two_edge_disjoint_hc(args.dim)
        payload = {
            "dim": args.dim,
            "mode": "pair-existence",
            "exists": result.exists,
            "certificates": list(result.certificates),
            "witness": None
            if result.witness is None
            else [_bits(m) for m in result.witness.members],
        }
        lines = [f"dim {args.dim}: two edge-disjoint Hamiltonian cycles exist: {result.exists}"]
        lines.extend(f"  - {c}" for c in result.certificates)
        if result.witness is not None:
            for member in result.witness.members:
                lines.append("  witness: " + " -> ".join(_bits(member)))
    _emit(_render_report(payload, lines, args.format), args.output)
    return EXIT_OK


def _traffic_payload(dim: int, mode: str, report: TrafficReport) -> tuple[dict, list[str]]:
    loads = sorted(set(report.per_edge_load.values()))
    payload = {
        "dim": dim,
        "mode": mode,
        "steps": report.steps,
        "edges_used": len(report.per_edge_load),
        "edges_total": dim << (dim - 1),
        "distinct_loads": loads,
        "max_concurrent_per_edge": report.max_concurrent_per_edge,
        "contention_events": report.contention_events,
        "completed": report.completed,
    }
    lines = [
        f"dim {dim}, {mode} broadcast: {report.steps} steps",
        f"edges used: {len(report.per_edge_load)} of {dim << (dim - 1)}",
        "load per used edge: " + ", ".join(str(v) for v in loads),
        f"max concurrent per edge: {report.max_concurrent_per_edge}",
        f"contention events: {report.contention_events}",
        f"all messages delivered: {report.completed}",
    ]
    return payload, lines


def cmd_simulate(args: argparse.Namespace) -> int:
    pair = edh_cycles(args.dim)
    if args.mode == "single":
        report = simulate_ring_broadcast(pair.first)
    else:
        report = simulate_split_broadcast(pair)
    payload, lines = _traffic_payload(args.dim, args.mode, report)
    if args.format == "report-json":  # report-text never prints the loads
        payload["per_edge_load"] = {str(edge): n for edge, n in report.per_edge_load.items()}
    _emit(_render_report(payload, lines, args.format), args.output)
    return EXIT_OK


def _residual_payload(analysis: ResidualAnalysis) -> tuple[dict, list[str]]:
    payload = {
        "dim": analysis.dim,
        "unused_edges": len(analysis.unused_edges),
        "edges_total": analysis.dim << (analysis.dim - 1),
        "degree_histogram": {str(k): v for k, v in sorted(analysis.degree_histogram.items())},
        "search_budget": analysis.search_budget,
        "third_cycle": None
        if analysis.third_cycle_found is None
        else _bits(analysis.third_cycle_found),
    }
    if analysis.search_budget is not None:
        payload["search_verdict"] = analysis.search_verdict
        payload["search_expansions"] = analysis.search_expansions
    lines = [
        f"dim {analysis.dim}: {len(analysis.unused_edges)} of "
        f"{analysis.dim << (analysis.dim - 1)} edges unused by the cycle pair",
        "residual degree histogram: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(analysis.degree_histogram.items())),
    ]
    if analysis.search_budget is None:
        lines.append("third-cycle search: not requested")
    else:
        head = (
            f"third-cycle search: {analysis.search_verdict} ({analysis.search_expansions}"
            f" of {analysis.search_budget} expansions)"
        )
        if analysis.search_verdict == "refuted":
            lines.append(
                f"{head}: the residual of this pair holds no Hamiltonian cycle"
                " (says nothing about other pairs or LTQ_n)"
            )
        elif analysis.search_verdict == "budget exhausted":
            lines.append(f"{head}: none found (not a non-existence proof)")
        else:
            lines.append(f"{head} " + " -> ".join(_bits(analysis.third_cycle_found)))
    return payload, lines


def cmd_residual(args: argparse.Namespace) -> int:
    pair = edh_cycles(args.dim)
    analysis = residual_analysis(args.dim, pair, search_budget=args.budget)
    payload, lines = _residual_payload(analysis)
    if args.format == "report-json":  # report-text never prints the list
        payload["unused_edge_list"] = _edge_lines(args.dim, analysis.unused_edges.pairs, "{} {}")
    _emit(_render_report(payload, lines, args.format), args.output)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltqcube",
        description="Locally twisted cubes: topology export, edge-disjoint Hamiltonian "
        "cycle construction, verification, oracles, and broadcast simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="export the cube's edges")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--format", choices=["edgelist", "dot"], default="edgelist")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_topology)

    p = sub.add_parser("construct", help="emit the two edge-disjoint Hamiltonian paths/cycles")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--kind", choices=["paths", "cycles"], default="cycles")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("verify", help="check a cycles-json document with every checker")
    p.add_argument("input", nargs="?", default=None, help="path, or - for stdin (default)")
    p.add_argument("--format", choices=["report-text", "report-json"], default="report-text")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive small-dimension searches")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=["enumerate", "pair-existence"], required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--format", choices=["report-text", "report-json"], default="report-text")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("simulate", help="all-to-all broadcast over the constructed rings")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=["single", "split"], default="split")
    p.add_argument("--format", choices=["report-text", "report-json"], default="report-text")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("residual", help="edges unused by the pair; optional third-cycle hunt")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--budget", type=int, default=None, help="node expansions for the search")
    p.add_argument("--format", choices=["report-text", "report-json"], default="report-text")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_residual)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except DocumentError as exc:
        print(f"ltqcube: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"ltqcube: i/o error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except LtqError as exc:
        print(f"ltqcube: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError:
        print(f"ltqcube: out of memory running {args.command}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
