"""Benchmark harness for ltqcube: workloads certify, cli_documents and explore.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py               # every workload, default seed and length

Each repetition of a workload runs in its own process (workloads.py) under a
wall-time cap and an address-space cap, so a timeout or an out-of-memory kill
is recorded as failed operations and the run goes on. A run starts
repetitions while the next one is predicted to end within --seconds; it runs
at least MIN_REPS of them, and for cli_documents enough for 100 operations.
Before each, it starts SETUP_ONLY_REPS processes that stop where the body
would start, so setup_s is a median of samples spread over the whole run.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported, each the
median over the run's repetitions. With --trace 1 the repetitions alternate
traced and untraced; the per-layer metrics are medians over the traced ones,
and trace.overhead_s is traced wall_s minus untraced wall_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. `failed` counts every failed operation: a wrong
verdict, exit code or output, a traceback, a timeout or an out-of-memory kill.
`correct` is false when any of them is a wrong result, which is all of them
but a CLI traceback on an input the CLI must reject (see workloads.py). The lines
before it give each metric with its unit and sample count, failed_frac, the
run's metadata and, when traced, the self time of every span. Results and
spans are also written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT, SRC = workloads.ROOT, workloads.SRC
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
SETUP_ONLY_REPS = 2
#: op_p90_s needs ten samples beyond it.
MIN_LATENCY_SAMPLES = 100
REP_TIMEOUT_S = 120
#: No repetition may run past this point, so a run ends well within 180 s.
RUN_DEADLINE_S = 150
MEM_CAP_BYTES = 2 << 30


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP_BYTES, MEM_CAP_BYTES))


def _last_json(stdout: bytes) -> dict | None:
    lines = stdout.decode(errors="replace").strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_rep(name: str, seed: int, rep: int, traced: bool, scale: str = "full",
            timeout: float = REP_TIMEOUT_S, setup_only: bool = False) -> dict:
    """One repetition in a child process; its failures if it dies or times out."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT / "work")
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed),
            "--rep", str(rep), "--trace", str(int(traced)), "--scale", scale, "--workdir", workdir]
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=workloads.child_env(), start_new_session=True,
                            preexec_fn=_cap_memory)
    timed_out = False
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        timed_out = True
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and any CLI process it started
        except ProcessLookupError:
            pass
        stdout, stderr = proc.communicate()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ended = time.monotonic()

    crash = workloads.crash_class(proc.returncode, stderr, timed_out)
    result = _last_json(stdout) if crash is None and proc.returncode == 0 else None
    if result is None:
        cls = crash or "traceback"
        planned = 1 if setup_only else workloads.planned_ops(name, scale)
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
        result = {"attempted": planned, "failures": {cls: planned}, "wrong": planned,
                  "examples": [f"{cls}: repetition {rep} ended with {proc.returncode} {tail}"],
                  "latencies": [], "body_start": None, "body_end": None,
                  "peak_rss_mib": None, "layers": {}, "spans": []}
    started, finished = result["body_start"], result["body_end"]
    result.update(
        rep=rep,
        traced=traced,
        setup_only=setup_only,
        setup_s=None if started is None else started - spawned,
        wall_s=None if finished is None else finished - started,
        duration_s=ended - spawned,
    )
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> list[dict]:
    """Every repetition of one run, the set-up-only ones first."""
    started = time.monotonic()
    setups: list[dict] = []
    reps: list[dict] = []
    laps: list[float] = []
    while True:
        lap_start = time.monotonic()
        elapsed = lap_start - started
        remaining = RUN_DEADLINE_S - elapsed
        if reps:
            typical = statistics.median(laps)
            samples = sum(len(r["latencies"]) for r in reps)
            needed = len(reps) < MIN_REPS or 0 < samples < MIN_LATENCY_SAMPLES
            if remaining < typical or (not needed and elapsed + typical > seconds):
                break
        if remaining <= 0:
            break
        for _ in range(SETUP_ONLY_REPS):
            setups.append(run_rep(name, seed, -1 - len(setups), False, scale, setup_only=True))
        traced = trace and len(reps) % 2 == 0
        remaining = RUN_DEADLINE_S - (time.monotonic() - started)
        if remaining <= 0:
            break
        reps.append(run_rep(name, seed, len(reps), traced, scale, min(REP_TIMEOUT_S, remaining)))
        laps.append(time.monotonic() - lap_start)
    return setups + reps


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _times(reps: list[dict], key: str) -> list[float]:
    """Per-repetition values; a repetition that died counts with its duration."""
    return [r[key] if r[key] is not None else r["duration_s"] for r in reps]


def aggregate(reps: list[dict], trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """The result object of one run and the lines describing it."""
    attempted = sum(r["attempted"] for r in reps)
    by_class: dict[str, int] = {}
    for r in reps:
        for cls, n in r["failures"].items():
            by_class[cls] = by_class.get(cls, 0) + n
    failed = sum(by_class.values())
    wrong = sum(r["wrong"] for r in reps)
    full = [r for r in reps if not r["setup_only"]]
    untraced = [r for r in full if not r["traced"]]
    traced = [r for r in full if r["traced"]]
    latencies = [x for r in full for x in r["latencies"]]
    p50 = statistics.median(latencies) if latencies else 0.0
    p90 = statistics.quantiles(latencies, n=10)[8] if len(latencies) > 1 else p50

    values: dict[str, tuple[float, str]] = {
        "wall_s": (_median(_times(untraced, "wall_s")), f"median of {len(untraced)} repetitions"),
        "setup_s": (_median(_times(reps, "setup_s")),
                    f"median of {len(reps)} repetitions, {len(reps) - len(full)} set-up only"),
        "peak_rss_mib": (_median([r["peak_rss_mib"] for r in untraced if r["peak_rss_mib"]]),
                         f"median of {len(untraced)} repetitions"),
    }
    lines = []
    if trace:
        overhead = _median(_times(traced, "wall_s")) - values["wall_s"][0]
        for metric in spec["per_layer"]:
            key = metric["name"]
            values[key] = (_median([r["layers"].get(key, 0.0) for r in traced]),
                           f"median of {len(traced)} traced repetitions")
        values["cli.op_p50_s"] = (p50, f"{len(latencies)} operations")
        values["cli.op_p90_s"] = (p90, f"{len(latencies)} operations")
        values["trace.overhead_s"] = (overhead, f"traced minus untraced wall_s, "
                                                f"{len(traced)} and {len(untraced)} repetitions")
        chosen = spec["per_layer"]
    else:
        chosen = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in chosen}
    for m in chosen:
        value, note = values[m["name"]]
        shown = f"{value:>14.0f}" if float(value).is_integer() else f"{value:>14.6g}"
        lines.append(f"{m['name']:<44} {shown} {m['unit']:<6} {note}")

    frac = failed / attempted if attempted else 0.0
    classes = ", ".join(f"{cls} {n}" for cls, n in sorted(by_class.items())) or "none"
    lines.append(f"{'failed_frac':<44} {frac:>14.6g} ratio  {failed} of {attempted} operations "
                 f"failed ({classes})")
    if latencies and not trace:
        lines.append(f"{'op_p50_s':<44} {p50:>14.6g} s      {len(latencies)} operations")
        lines.append(f"{'op_p90_s':<44} {p90:>14.6g} s      {len(latencies)} operations, "
                     f"{sum(x > p90 for x in latencies)} beyond")
    if trace:
        lines.append("self time per span (median over traced repetitions):")
        names = sorted({k[:-6] for r in traced for k in r["layers"] if k.endswith(".calls")})
        for span in names:
            calls, total, own = (_median([r["layers"].get(f"{span}.{s}", 0.0) for r in traced])
                                 for s in ("calls", "s", "self_s"))
            lines.append(f"  {span:<42} calls {calls:>8.0f}  total {total:10.4f} s  "
                         f"self {own:10.4f} s")
    lines.extend(f"  {example}" for example in [e for r in reps for e in r["examples"]][:5])
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def metadata(seed: int) -> dict:
    """What the run measured: commit, interpreter, CPUs, seed and source size."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        src_lines += data.count(b"\n")
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_and_report(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    meta = metadata(seed)
    reps = run_workload(name, seed, seconds, trace)
    result, lines = aggregate(reps, trace, spec)
    full = [r for r in reps if not r["setup_only"]]
    untraced = sum(not r["traced"] for r in full)
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}  "
          f"repetitions={len(full)} ({untraced} untraced) and {len(reps) - len(full)} set-up only")
    print("meta  " + "  ".join(f"{k}={v}" for k, v in meta.items()))
    for line in lines:
        print(line)
    print(f"{'correct':<44} {str(result['correct']).lower():>14}")
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        with open(OUT / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for r in reps:
                for span in r["spans"]:
                    handle.write(json.dumps({**span, "rep": r["rep"]}) + "\n")
    summary = [{k: v for k, v in r.items() if k not in ("spans", "latencies")} for r in reps]
    (OUT / f"{stem}.json").write_text(
        json.dumps({"meta": meta, "workload": name, "seconds": seconds, "trace": int(trace),
                    "repetitions": summary, "result": result}, indent=2) + "\n",
        encoding="utf-8",
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="ltqcube benchmark: " + __doc__.split("\n")[0])
    parser.add_argument("--workload", default=None, help="one workload; default: all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time per workload; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload is not None:
        result = run_and_report(args.workload, args.seed, seconds, bool(args.trace), spec)
        print(json.dumps(result))
    else:
        results = {n: run_and_report(n, args.seed, seconds, bool(args.trace), spec)
                   for n in names}
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
