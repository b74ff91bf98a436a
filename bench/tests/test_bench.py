"""Self-tests of the benchmark: python3 -m pytest bench/tests -q"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import child  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "0.1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    table = "\n".join(lines[:-1])
    for m in expected:
        assert f"{m['name']} " in table and m["unit"] in table
    assert "ops_failed_frac" in table
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _tiny_pass(workload, tmp_path):
    return child.run_pass(ROOT, workload, 0, "tiny", str(tmp_path), first=True)


def test_clean_pass_has_no_failures(tmp_path):
    child.ready(ROOT)
    record = _tiny_pass("interactive", tmp_path)
    assert record["failed"] == 0, record["failures"]


def test_corrupted_report_counts_as_failed_op(tmp_path, monkeypatch):
    child.ready(ROOT)
    from lineparadox import cli

    real = cli.verification_summary

    def off_by_one(*args, **kwargs):
        summary = real(*args, **kwargs)
        summary["counts"]["A"] += 1
        return summary

    monkeypatch.setattr(cli, "verification_summary", off_by_one)
    record = _tiny_pass("sweep-k2", tmp_path)
    assert record["failed"] == 1
    assert "class counts sum" in record["failures"][0]


def test_corrupted_figure_counts_as_failed_op(tmp_path, monkeypatch):
    child.ready(ROOT)
    from lineparadox import cli

    real = cli.cayley_ball_dot
    monkeypatch.setattr(cli, "cayley_ball_dot",
                        lambda ball: real(ball).replace(' -> "', ' -> "1', 1))
    record = _tiny_pass("interactive", tmp_path)
    assert record["failed"] >= 1
    assert any("edges" in f for f in record["failures"])


def test_wrong_decode_counts_as_failed_op(tmp_path, monkeypatch):
    child.ready(ROOT)
    from lineparadox import labeling

    real = labeling.VertexLabeling.word_of_label
    monkeypatch.setattr(labeling.VertexLabeling, "word_of_label",
                        lambda self, n: real(self, n + 1))
    record = _tiny_pass("omega", tmp_path)
    # Every label of the oracle sample (64 per rank) now decodes wrongly.
    assert record["failed"] >= 128


def test_benchmark_without_the_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "sweep-k2", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_is_span_minus_child_coverage(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(tracer.time, "perf_counter", lambda: clock[0])
    t = tracer.Tracer()

    def leaf():
        clock[0] += 2.0

    def outer():
        clock[0] += 1.0
        traced_leaf()
        traced_leaf()
        clock[0] += 3.0

    traced_leaf = t.wrap("labeling.decode", leaf, stored=False)
    t.request = 7
    t.wrap("cli.main", outer, stored=True)()
    (span,) = t.spans
    assert span[1] == "cli.main" and span[5] == 7
    assert span[3] - span[2] == 8.0 and span[3] - span[2] - span[6] == 4.0
    assert t.leaves == {(0, "labeling.decode"): [2, 4.0, 4.0]}
    metrics = t.layer_metrics(verify_requests=0, bytes_out=0)
    assert metrics["cli.main.self_s"] == 4.0
    assert metrics["labeling.decode.calls"] == 2
    assert metrics["labeling.decode.self_s"] == 4.0
