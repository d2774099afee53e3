"""Fast self-test of the benchmark, at dims 4-6.

    python3 -m pytest perfbench -q

Runs every workload's checks at small scale, and shows that a wrong output,
an exception, a traceback, a timeout and a missing source tree are each
caught: counted in failed_frac, or refused without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import pytest

import run
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def workdir():
    (run.OUT / "work").mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT / "work")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _rep(name: str, workdir: str, **options) -> dict:
    """One small, traced repetition in this process, shaped like run.run_rep's."""
    result = workloads.execute(name, 7, 0, True, "small", workdir, **options)
    result.update(rep=0, traced=True, setup_only=False, setup_s=0.0, duration_s=1.0,
                  wall_s=result["body_end"] - result["body_start"])
    return result


def _failed_frac(rep: dict) -> float:
    result, _ = run.aggregate([rep], False, SPEC)
    return result["failed"] / result["attempted"]


@pytest.mark.parametrize("name", ["certify", "explore"])
def test_library_workloads_pass_every_check(name, workdir):
    rep = _rep(name, workdir)
    assert rep["failures"] == {}, rep["examples"]
    assert rep["attempted"] == workloads.planned_ops(name, "small")
    result, _ = run.aggregate([rep], False, SPEC)
    assert result["correct"] and result["failed"] == 0


def test_cli_documents_fails_only_on_non_utf8(workdir):
    # the known defect: a non-UTF-8 document makes verify print a traceback,
    # by path and by stdin, where it must exit 3
    rep = _rep("cli_documents", workdir)
    assert rep["failures"] == {"traceback": 2}, rep["examples"]
    assert sorted(e.split(" dim ")[0] for e in rep["examples"]) == [
        "traceback: verify non_utf8 by path", "traceback: verify non_utf8 by stdin"]
    assert len(rep["latencies"]) == rep["attempted"] == 26
    assert _failed_frac(rep) == 2 / 26
    assert rep["layers"]["cli.ops_failed.traceback"] == 2
    assert rep["layers"]["cli.process_overhead_s"] > 0
    result, _ = run.aggregate([rep], False, SPEC)
    assert result["correct"]


def test_wrong_library_output_is_counted(workdir, monkeypatch):
    def one_short(node):
        return set(list(workloads.lq.neighbors(node))[1:])

    monkeypatch.setattr(workloads.lq, "neighbors_recursive", one_short)
    rep = _rep("certify", workdir)
    assert rep["failures"] == {"wrong_output": workloads.SCALES["small"]["spot_nodes"]}
    result, _ = run.aggregate([rep], False, SPEC)
    assert not result["correct"] and _failed_frac(rep) > 0


def test_library_exception_is_a_wrong_result(workdir, monkeypatch):
    def invalid(dim):
        raise workloads.lq.InvalidPairError(f"no pair at dim {dim}")

    monkeypatch.setattr(workloads.lq, "edh_cycles", invalid)
    rep = workloads.execute("explore", 7, 0, False, "small", workdir)
    assert rep["failures"] == {"traceback": workloads.planned_ops("explore", "small")}
    rep.update(rep=0, traced=False, setup_only=False, setup_s=None, wall_s=None, duration_s=1.0)
    result, _ = run.aggregate([rep], False, SPEC)
    assert not result["correct"] and _failed_frac(rep) == 1


def test_residual_is_checked_without_the_library_validation(workdir, monkeypatch):
    def unvalidated(dim, pair):
        return SimpleNamespace(unused_edges=frozenset(), degree_histogram={})

    monkeypatch.setattr(workloads.lq, "residual_analysis", unvalidated)
    rep = _rep("certify", workdir)
    assert rep["failures"] == {"wrong_output": 1}, rep["examples"]


def test_wrong_cli_exit_codes_and_outputs_are_counted(workdir):
    always_ok = [sys.executable, "-c", "import sys; sys.exit(0)"]
    rep = _rep("cli_documents", workdir, prefix=always_ok)
    # no output files from 4 constructs and 2 exports; 12 broken or malformed
    # documents pass; only the 8 valid documents get the exit code they should
    assert rep["failures"] == {"wrong_output": 6, "wrong_exit": 12}
    result, _ = run.aggregate([rep], False, SPEC)
    assert not result["correct"] and _failed_frac(rep) == 18 / 26


def test_cli_traceback_is_wrong_unless_the_input_must_be_rejected(workdir):
    crash = [sys.executable, "-c", "import sys; sys.exit('Traceback (most recent call last):')"]
    rep = _rep("cli_documents", workdir, prefix=crash)
    assert rep["failures"] == {"traceback": 26}
    # 4 constructs, 2 exports and 8 valid documents must succeed
    assert rep["wrong"] == 14
    result, _ = run.aggregate([rep], False, SPEC)
    assert not result["correct"]


def test_timeout_fails_the_whole_repetition():
    rep = run.run_rep("explore", 7, 0, False, scale="small", timeout=0.001)
    planned = workloads.planned_ops("explore", "small")
    assert rep["failures"] == {"timeout": planned} and rep["wrong"] == planned
    assert rep["wall_s"] is None


def test_run_in_child_processes():
    reps = run.run_workload("explore", 7, 1, True, scale="small")
    full = [r for r in reps if not r["setup_only"]]
    setups = [r for r in reps if r["setup_only"]]
    assert [r["traced"] for r in full] == [True, False, True]
    assert len(setups) == run.SETUP_ONLY_REPS * len(full)
    assert all(r["failures"] == {} and r["setup_s"] > 0 for r in reps)
    assert all(r["wall_s"] > 0 for r in full) and all(r["wall_s"] is None for r in setups)
    traced, _ = run.aggregate(reps, True, SPEC)
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    plain, lines = run.aggregate(reps, False, SPEC)
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert plain["correct"] and plain["attempted"] == 3 * workloads.planned_ops("explore", "small")
    assert plain["metrics"]["wall_s"]["value"] == full[1]["wall_s"]
    assert f"median of {len(reps)} repetitions, {len(setups)} set-up only" in "\n".join(lines)


@pytest.mark.parametrize(
    ("returncode", "stderr", "timed_out", "cls"),
    [
        (None, b"", True, "timeout"),
        (-9, b"", False, "oom"),
        (1, b"Traceback ...\nMemoryError\n", False, "oom"),
        (1, b"Traceback ...\nUnicodeDecodeError: ...\n", False, "traceback"),
        (3, b"ltqcube: malformed input: ...\n", False, None),
    ],
)
def test_crash_classes(returncode, stderr, timed_out, cls):
    assert workloads.crash_class(returncode, stderr, timed_out) == cls


def test_without_sources_the_benchmark_refuses(workdir):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(workloads.ROOT / "perfbench", f"{workdir}/perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
