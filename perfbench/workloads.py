"""The benchmark's three workloads, one repetition per process.

A repetition has three phases. Setup makes the inputs from the seed. The body
is the timed part: calls into ltqcube's public functions, or runs of the
ltqcube CLI. The check comes after the body: it compares every output with
what it must be and classifies each failed operation. Nothing in it is timed.

run.py starts one process per repetition:

    python3 perfbench/workloads.py --workload NAME --seed N --rep I --trace 0|1 --workdir DIR

and reads the JSON object printed on the last line of standard output. With
--setup-only the process stops where the body would start, so set-up time is
sampled more often than the body runs.

Every failed operation is counted. Those with a wrong result are also counted
as `wrong`, which makes the run incorrect: all of them except a CLI traceback
on an input the CLI must reject. That one is a rejection in the wrong form
(the CLI's contract gives every input an exit code, never a traceback), not
a wrong verdict.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ltqcube" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no ltqcube sources under {SRC}")
sys.path.insert(0, str(SRC))

import ltqcube as lq  # noqa: E402
from ltqcube import cli  # noqa: E402

from spans import Tracer, maxrss_mib  # noqa: E402

#: Input sizes. "small" is the self-test's scale (dims 4-6).
SCALES = {
    "full": {
        "certify_dim": 16,
        "spot_nodes": 3000,
        "cli_dims": (12, 13, 14),
        "broadcast_dims": (10, 11),
        # (dim, expansion budget); only the last search may run out of budget
        "searches": ((6, 1_000_000), (7, 1_000_000), (8, 75_000)),
    },
    "small": {
        "certify_dim": 6,
        "spot_nodes": 64,
        "cli_dims": (4, 5, 6),
        "broadcast_dims": (5, 6),
        "searches": ((4, 1_000), (5, 1_000), (6, 100_000)),
    },
}

# cli_documents: the op mix of one repetition. Dims are indices into the
# scale's cli_dims (lo, mid, hi). Every class has a fixed count and fixed dims,
# so the work and the share of each class do not depend on the seed; the seed
# picks which document goes by path and which by stdin, where each document
# is corrupted, and the order of all ops.
CONSTRUCT_OPS = (("cycles", 0), ("cycles", 1), ("paths", 0), ("paths", 2))
TOPOLOGY_OPS = (("edgelist", 1), ("dot", 0))
#: (class, dims of its documents, expected exit code); half go by path.
VERIFY_MIX = (
    ("valid", (0, 0, 0, 1, 1, 1, 2, 2), 0),
    ("swap", (1, 2), 1),
    ("duplicate", (0, 2), 1),
    ("reversed", (0, 1), 1),
    ("truncated", (1, 2), 3),
    ("width", (0, 1), 3),
    ("non_utf8", (0, 2), 3),
)
CLI_TIMEOUT_S = 60
CLI = [sys.executable, "-m", "ltqcube.cli"]


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts.

    The locale is pinned to C.UTF-8, so the CLI meets its input the same way
    on every machine. Python reads stdin under C.UTF-8 with surrogateescape,
    but strictly under the UTF-8 locales users run, such as en_US.UTF-8;
    PYTHONIOENCODING sets that strict handling on every machine.
    """
    env = dict(os.environ)
    for name in ("PYTHONUTF8", "PYTHONSTARTUP", "PYTHONWARNINGS"):
        env.pop(name, None)
    env["PYTHONPATH"] = str(SRC)
    env["LC_ALL"] = "C.UTF-8"
    env["PYTHONIOENCODING"] = "utf-8:strict"
    return env


def crash_class(returncode: int | None, stderr: bytes, timed_out: bool) -> str | None:
    """The failure class of a process that produced no result, else None.

    The failure classes are timeout, oom, traceback, wrong_exit and
    wrong_output, tested in that order; the checks find the last two.
    """
    if timed_out:
        return "timeout"
    if returncode == -signal.SIGKILL or b"MemoryError" in stderr:
        return "oom"
    if b"Traceback" in stderr:
        return "traceback"
    return None


def planned_ops(name: str, scale: str) -> int:
    """Operations one repetition attempts; all fail if the process dies."""
    params = SCALES[scale]
    if name == "certify":
        return 3 + params["spot_nodes"]
    if name == "explore":
        return 2 * len(params["broadcast_dims"]) + 2 * len(params["searches"])
    return len(CONSTRUCT_OPS) + len(TOPOLOGY_OPS) + sum(len(dims) for _, dims, _ in VERIFY_MIX)


class Rep:
    """What one repetition reports: times, memory, operations and failures."""

    def __init__(self, attempted: int, setup_only: bool = False) -> None:
        self.attempted = attempted
        self.setup_only = setup_only
        self.failures: Counter[str] = Counter()
        self.wrong = 0
        self.examples: list[str] = []
        self.latencies: list[float] = []
        self.body_start: float | None = None
        self.body_end: float | None = None
        self.peak_rss_mib: float | None = None
        self.layers: dict[str, float] = {}

    def start_body(self) -> bool:
        """Mark the end of set-up; False when only set-up is measured."""
        self.body_start = time.monotonic()
        return not self.setup_only

    def fail(self, cls: str, what: str, wrong: bool = True) -> None:
        self.failures[cls] += 1
        self.wrong += wrong
        if len(self.examples) < 5:
            self.examples.append(f"{cls}: {what}")

    def fail_all(self, cls: str, what: str) -> None:
        """The repetition died: every operation failed, with no result. In a
        set-up-only repetition, the set-up counts as one operation."""
        self.attempted = max(self.attempted, 1)
        self.failures = Counter({cls: self.attempted})
        self.wrong = self.attempted
        self.examples.append(f"{cls}: {what}")


# --- certify -----------------------------------------------------------------


def _reoriented(nodes: list, shift: int, flip: bool) -> list:
    nodes = nodes[shift:] + nodes[:shift]
    return nodes[::-1] if flip else nodes


def certify(rng: random.Random, params: dict, tracer: Tracer, rep: Rep, workdir: Path) -> None:
    """The paper's claim at the largest dimension that finishes in seconds:
    construct the pair, verify it from plain label lists, analyse the residual,
    and spot-check the closed-form neighbor rule against the recursive one."""
    dim = params["certify_dim"]
    shifts = [rng.randrange(1 << dim) for _ in range(2)]
    flips = [rng.random() < 0.5 for _ in range(2)]
    spot = [lq.NodeLabel(dim, v) for v in rng.sample(range(1 << dim), params["spot_nodes"])]

    if not rep.start_body():
        return
    with tracer.span("workload.body"):
        tracer.op = 0
        with tracer.span("construction.edh_cycles", rss=True):
            pair = lq.edh_cycles(dim)
        members = [
            _reoriented(list(member.nodes), shift, flip)
            for member, shift, flip in zip(pair.members, shifts, flips)
        ]
        tracer.op = 1
        with tracer.span("verify.verify_pair"):
            report = lq.verify_pair(dim, members[0], members[1], "cycles")
        tracer.count("verify.verify_pair.nodes", len(members[0]) + len(members[1]))
        tracer.op = 2
        with tracer.span("verify.residual_analysis", rss=True):
            residual = lq.residual_analysis(dim, pair)
        tracer.count("verify.residual_analysis.unused_edges", len(residual.unused_edges))
        answers = []
        for op, node in enumerate(spot, start=3):
            tracer.op = op
            with tracer.span("topology.neighbors"):
                fast = lq.neighbors(node)
            with tracer.span("topology.neighbors_recursive"):
                slow = lq.neighbors_recursive(node)
            answers.append((node, fast, slow))
    rep.body_end = time.monotonic()
    rep.peak_rss_mib = maxrss_mib()

    if pair.kind != "cycles" or any(len(m) != 1 << dim for m in pair.members):
        rep.fail("wrong_output", f"edh_cycles({dim}) is not a pair of {1 << dim}-node cycles")
    if not report.passed:
        rep.fail("wrong_output", f"verify_pair rejected the dim-{dim} pair: {report.lines()}")
    _check_residual(rep, dim, residual)
    for node, fast, slow in answers:
        if fast != slow or len(fast) != dim:
            rep.fail("wrong_output", f"neighbors({node}) disagrees with neighbors_recursive")


def _check_residual(rep: Rep, dim: int, residual) -> None:
    """The closed forms of the residual, checked here as well as by the
    library's own validation, which a change to the library may remove."""
    unused = (dim << (dim - 1)) - (1 << (dim + 1))
    if len(residual.unused_edges) != unused or residual.degree_histogram != {dim - 4: 1 << dim}:
        rep.fail(
            "wrong_output",
            f"dim-{dim} residual: {len(residual.unused_edges)} edges, "
            f"histogram {residual.degree_histogram}",
        )


# --- explore -----------------------------------------------------------------


def explore(rng: random.Random, params: dict, tracer: Tracer, rep: Rep, workdir: Path) -> None:
    """Small-dimension research calls: both broadcast models, then residual
    analysis and the third-cycle search. The seed has no effect."""
    broadcasts = []
    searches = []
    if not rep.start_body():
        return
    with tracer.span("workload.body"):
        for dim in params["broadcast_dims"]:
            tracer.op = len(broadcasts)
            with tracer.span("construction.edh_cycles", rss=True):
                pair = lq.edh_cycles(dim)
            with tracer.span("broadcast.simulate_ring_broadcast"):
                single = lq.simulate_ring_broadcast(pair.first)
            tracer.op = len(broadcasts) + 1
            with tracer.span("broadcast.simulate_split_broadcast"):
                split = lq.simulate_split_broadcast(pair)
            broadcasts += [(dim, 1, "broadcast.simulate_ring_broadcast", single),
                           (dim, 2, "broadcast.simulate_split_broadcast", split)]
        for dim, budget in params["searches"]:
            tracer.op = len(broadcasts) + 2 * len(searches)
            with tracer.span("construction.edh_cycles", rss=True):
                pair = lq.edh_cycles(dim)
            with tracer.span("verify.residual_analysis", rss=True):
                residual = lq.residual_analysis(dim, pair)
            tracer.count("verify.residual_analysis.unused_edges", len(residual.unused_edges))
            tracer.op += 1
            with tracer.span(f"verify.search_third_cycle.d{dim}"):
                third = lq.search_third_cycle(dim, residual.unused_edges, budget=budget)
            searches.append((dim, pair, residual, third))
    rep.body_end = time.monotonic()
    rep.peak_rss_mib = maxrss_mib()

    for dim, rings, name, report in broadcasts:
        steps = (1 << dim) - 1
        tracer.count(f"{name}.edges_used", len(report.per_edge_load))
        if (
            report.steps != steps
            or not report.completed
            or report.contention_events != 0
            or set(report.per_edge_load.values()) != {steps}
            or len(report.per_edge_load) != rings << dim
        ):
            rep.fail("wrong_output", f"{name} at dim {dim}: {report.steps} steps, "
                     f"{report.contention_events} contention, {len(report.per_edge_load)} edges")
    for index, (dim, pair, residual, third) in enumerate(searches):
        _check_residual(rep, dim, residual)
        if third is None:
            continue
        tracer.count("verify.search_third_cycle.found")
        budgeted = index == len(searches) - 1
        if not budgeted:
            rep.fail("wrong_output", f"search found a third cycle at dim {dim}, where it has none")
            continue
        residual_edges = {(e.a.value, e.b.value) for e in residual.unused_edges}
        nodes = [n.value for n in third.nodes]
        walk = {(min(e), max(e)) for e in zip(nodes, nodes[1:] + nodes[:1])}
        if (
            not lq.is_hamiltonian_cycle(dim, third)
            or not walk <= residual_edges
            or not lq.are_edge_disjoint(third, pair.first)
            or not lq.are_edge_disjoint(third, pair.second)
        ):
            rep.fail("wrong_output", f"dim-{dim} third cycle is not a residual Hamiltonian cycle")


# --- cli_documents -----------------------------------------------------------


def _document(dim: int, first: list[str], second: list[str]) -> str:
    doc = {"version": 1, "dim": dim, "kind": "cycles", "cycles": [first, second]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _verify_document(cls: str, dim: int, members: list[list[str]], rng: random.Random) -> bytes:
    """A cycles-json document of the given class, built from a valid pair."""
    first, second = list(members[0]), list(members[1])
    target = rng.choice([first, second])
    size = len(target)
    if cls == "swap":  # the cube has no triangles, so any swap breaks adjacency
        i = rng.randrange(1, size - 2)
        target[i], target[i + 1] = target[i + 1], target[i]
    elif cls == "duplicate":
        i, j = rng.sample(range(size), 2)
        target[i] = target[j]
    elif cls == "reversed":
        second = first[::-1]
    elif cls == "width":
        i = rng.randrange(size)
        target[i] = target[i] + "0" if rng.random() < 0.5 else target[i][1:]
    elif cls == "non_utf8":  # the stray byte sits inside a label, never in a key
        i, cut = rng.randrange(size), rng.randrange(1, dim)
        label, target[i] = target[i], "x" * dim
        raw = _document(dim, first, second).encode()
        marker = ('"' + "x" * dim + '"').encode()
        patched = ('"' + label[:cut]).encode() + b"\xff" + (label[cut:] + '"').encode()
        return raw.replace(marker, patched, 1)
    text = _document(dim, first, second)
    if cls == "truncated":  # any cut before the final brace is invalid JSON
        text = text[: rng.randrange(1, len(text) - 2)]
    return text.encode()


def _cli_ops(rng: random.Random, dims: tuple[int, ...], workdir: Path) -> tuple[list[dict], dict]:
    pairs = {dim: lq.edh_cycles(dim) for dim in dims}
    labels = {dim: [[str(n) for n in m.nodes] for m in pair.members] for dim, pair in pairs.items()}
    ops = []
    for kind, d in CONSTRUCT_OPS:
        out = workdir / f"construct-{kind}-{dims[d]}.json"
        argv = ["construct", "--dim", str(dims[d]), "--kind", kind, "--output", str(out)]
        ops.append({"command": "construct", "cls": kind, "dim": dims[d], "argv": argv,
                    "stdin": None, "output": out, "expect": 0})
    for fmt, d in TOPOLOGY_OPS:
        out = workdir / f"topology-{dims[d]}.{fmt}"
        argv = ["topology", "--dim", str(dims[d]), "--format", fmt, "--output", str(out)]
        ops.append({"command": "topology", "cls": fmt, "dim": dims[d], "argv": argv,
                    "stdin": None, "output": out, "expect": 0})
    for cls, class_dims, expect in VERIFY_MIX:
        delivery = ["path", "stdin"] * (len(class_dims) // 2)
        rng.shuffle(delivery)
        for n, (d, how) in enumerate(zip(class_dims, delivery)):
            doc = workdir / f"verify-{cls}-{n}.json"
            doc.write_bytes(_verify_document(cls, dims[d], labels[dims[d]], rng))
            argv = ["verify", str(doc)] if how == "path" else ["verify"]
            ops.append({"command": "verify", "cls": f"{cls} by {how}", "dim": dims[d],
                        "argv": argv, "stdin": doc if how == "stdin" else None,
                        "doc": doc, "output": None, "expect": expect})
    rng.shuffle(ops)
    return ops, pairs


def _run_cli(argv: list[str], stdin_path: Path | None, env: dict) -> tuple[int | None, bytes, bool]:
    stdin = open(stdin_path, "rb") if stdin_path is not None else subprocess.DEVNULL
    try:
        proc = subprocess.run(argv, stdin=stdin, capture_output=True, env=env, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stderr, False
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        return None, exc.stderr or b"", True
    finally:
        if stdin_path is not None:
            stdin.close()


def _edge_lines_ok(lines: list[str], dim: int, fmt: str) -> bool:
    if fmt == "dot":
        if lines[:1] != [f"graph ltq_{dim} {{"] or lines[-1:] != ["}"]:
            return False
        lines = lines[1:-1]
    width = 2 * dim + 1 if fmt == "edgelist" else 2 * dim + 11
    return (
        len(lines) == dim << (dim - 1)
        and len(set(lines)) == len(lines)
        and lines == sorted(lines)
        and all(len(line) == width for line in lines)
    )


def _check_cli_op(op: dict, outcome: tuple, pairs: dict, expected: dict) -> tuple[str, str] | None:
    returncode, stderr, timed_out = outcome
    what = f"{op['command']} {op['cls']} dim {op['dim']}"
    crash = crash_class(returncode, stderr, timed_out)
    if crash is not None:
        return crash, f"{what}: {stderr.decode(errors='replace').strip().splitlines()[-1:]}"
    if returncode != op["expect"]:
        return "wrong_exit", f"{what}: exit {returncode}, expected {op['expect']}"
    if op["command"] == "construct":
        key = (op["cls"], op["dim"])
        if key not in expected:
            pair = pairs[op["dim"]] if op["cls"] == "cycles" else lq.edh_paths(op["dim"])
            expected[key] = cli.render_document(cli.pair_document(pair)).encode()
        if not op["output"].is_file() or op["output"].read_bytes() != expected[key]:
            return "wrong_output", f"{what}: output differs from render_document(pair_document(...))"
    if op["command"] == "topology":
        data = op["output"].read_bytes() if op["output"].is_file() else b""
        text = data.decode(errors="replace")
        if not text.endswith("\n") or not _edge_lines_ok(text[:-1].split("\n"), op["dim"], op["cls"]):
            return "wrong_output", f"{what}: not {op['dim'] << (op['dim'] - 1)} unique sorted edges"
    return None


def _replay(ops: list[dict], tracer: Tracer, workdir: Path) -> None:
    """Run each op once more in this process, through ltqcube.cli.main, with
    spans around the public functions its subcommand calls.

    Outside the timed body. The difference between an op's child wall time
    and its in-process cli.main time is the cost of a separate process:
    interpreter start, import and the I/O the child does on its own.
    """
    originals = {}

    def wrap(attr: str, span: str, nodes: bool = False) -> None:
        function = getattr(cli, attr, None)
        if function is None:  # the subcommands no longer call it; its span stays empty
            return
        originals[attr] = function

        def call(*args, **kwargs):
            if nodes:
                tracer.count("verify.verify_pair.nodes", len(args[1]) + len(args[2]))
            with tracer.span(span, rss=span.startswith("construction.")):
                return function(*args, **kwargs)

        setattr(cli, attr, call)

    wrap("edges", "topology.edges")
    wrap("edh_cycles", "construction.edh_cycles")
    wrap("edh_paths", "construction.edh_paths")
    wrap("verify_pair", "verify.verify_pair", nodes=True)
    wrap("parse_document", "cli.parse_document")
    wrap("pair_document", "cli.pair_document")
    wrap("render_document", "cli.render_document")
    saved_stdin = sys.stdin
    try:
        for index, op in enumerate(ops):
            tracer.op = index
            argv = list(op["argv"])
            if op["output"] is not None:
                argv[-1] = str(workdir / f"replay-{index}")
            stdin = None
            if op["stdin"] is not None:
                stdin = io.TextIOWrapper(open(op["stdin"], "rb"), encoding="utf-8")
                sys.stdin = stdin
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    with tracer.span("cli.main"):
                        cli.main(argv)
            except (Exception, SystemExit):  # noqa: BLE001 - mirrors CLI crashes, which the check counts
                pass
            finally:
                sys.stdin = saved_stdin
                if stdin is not None:
                    stdin.close()
    finally:
        for attr, function in originals.items():
            setattr(cli, attr, function)


def cli_documents(
    rng: random.Random, params: dict, tracer: Tracer, rep: Rep, workdir: Path, prefix=None
) -> None:
    """A sequence of real ltqcube CLI processes, each timed from spawn to exit:
    construct and topology exports to files, and verify over valid, broken and
    malformed documents fed by path and by stdin."""
    prefix = CLI if prefix is None else prefix
    ops, pairs = _cli_ops(rng, params["cli_dims"], workdir)
    env = child_env()
    outcomes = []

    if not rep.start_body():
        return
    with tracer.span("workload.body"):
        for index, op in enumerate(ops):
            tracer.op = index
            with tracer.span(f"cli.{op['command']}"):
                started = time.monotonic()
                outcome = _run_cli(prefix + op["argv"], op["stdin"], env)
                rep.latencies.append(time.monotonic() - started)
            outcomes.append(outcome)
    rep.body_end = time.monotonic()
    rep.peak_rss_mib = maxrss_mib(resource.RUSAGE_CHILDREN)

    expected: dict = {}
    for op, outcome in zip(ops, outcomes):
        failure = _check_cli_op(op, outcome, pairs, expected)
        if failure is not None:
            cls, what = failure
            rep.fail(cls, what, wrong=not (cls == "traceback" and op["expect"] != 0))
            tracer.count(f"cli.ops_failed.{cls}")
        if op["output"] is not None and op["output"].is_file():
            tracer.count("cli.bytes_out", op["output"].stat().st_size)
        if op["command"] == "verify":
            tracer.count("cli.bytes_in", op["doc"].stat().st_size)
    tracer.count("cli.ops", len(ops))
    if tracer.enabled:
        _replay(ops, tracer, workdir)
        layers = tracer.summary()
        child_s = sum(layers.get(f"cli.{c}.s", 0.0) for c in ("construct", "verify", "topology"))
        rep.layers["cli.process_overhead_s"] = child_s - layers.get("cli.main.s", 0.0)


WORKLOADS = {"certify": certify, "cli_documents": cli_documents, "explore": explore}


def execute(name: str, seed: int, rep_index: int, traced: bool, scale: str, workdir: Path,
            setup_only: bool = False, **options) -> dict:
    """Run one repetition in this process and return its report."""
    tracer = Tracer(traced)
    rep = Rep(0 if setup_only else planned_ops(name, scale), setup_only)
    rng = random.Random(f"{name}:{seed}:{rep_index}")
    try:
        WORKLOADS[name](rng, SCALES[scale], tracer, rep, Path(workdir), **options)
    except MemoryError:
        rep.fail_all("oom", traceback.format_exc(limit=-2))
    except Exception:  # noqa: BLE001 - boundary: the whole repetition is counted as failed
        # ltqcube validates its results and raises when one is wrong, so an
        # exception here is a wrong result as much as a crash.
        rep.fail_all("traceback", traceback.format_exc(limit=-2))
    layers = {**tracer.summary(), **rep.layers} if traced else {}
    return {
        "attempted": rep.attempted,
        "failures": dict(rep.failures),
        "wrong": rep.wrong,
        "examples": rep.examples,
        "latencies": rep.latencies,
        "body_start": rep.body_start,
        "body_end": rep.body_end,
        "peak_rss_mib": rep.peak_rss_mib,
        "layers": layers,
        "spans": tracer.spans,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = execute(args.workload, args.seed, args.rep, bool(args.trace), args.scale, args.workdir,
                     args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # Skip interpreter teardown: freeing the millions of objects a dim-16
    # repetition holds takes seconds and belongs to no measurement.
    os._exit(0)


if __name__ == "__main__":
    main()
