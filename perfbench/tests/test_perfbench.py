"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``)."""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from multibrot import cli, coeffs
from perfbench import run, trace, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_METRICS = ("series.tail_calls", "series.tail_terms", "series.peak_operand_bits",
                 "coeffs.coefficient_calls", "coeffs.shortcut_ratio",
                 "coeffs.partition_tuples", "exact.binomial_calls", "exact.padic_calls",
                 "checks.verdicts", "checks.failed_verdicts", "cache.bytes_read",
                 "cache.bytes_written", "cli.pool_starts", "cli.pool_tasks")

# Small operations that between them enter every traced layer.
MINI_OPS = [
    workloads.Operation("mini", ("compute", "--d", "2", "--m-max", "12", "--threads", "2")),
    workloads.Operation("mini", ("verify", "--d", "2,3", "--m-max", "12", "--threads", "2")),
    workloads.Operation("mini", ("bench", "--d", "2,3", "--m-max", "12", "--method", "both",
                                 "--threads", "1", "--threads-compare", "2")),
]


def setup_table(tmp_path) -> Path:
    path = tmp_path / "table.csv"
    _, ok, text = workloads.run_operation(cli, workloads.SETUP_TABLE, workloads.load_reference())
    assert ok
    path.write_text(text, encoding="utf-8")
    return path


def test_names_are_well_formed_and_match_the_runner():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_request_sequence_depends_only_on_seed_and_pass(tmp_path):
    first = workloads.request_sequence(7, tmp_path / "t.csv", 2)
    assert first == workloads.request_sequence(7, tmp_path / "t.csv", 2)
    assert first != workloads.request_sequence(8, tmp_path / "t.csv", 2)
    assert first != workloads.request_sequence(7, tmp_path / "t.csv", 3)
    assert len(first) >= 120


def test_every_possible_request_has_a_reference():
    reference = workloads.load_reference()
    for seed in range(20):
        for pass_index in range(-1, 5):
            for op in workloads.operations("small-requests", seed, Path("t.csv"), pass_index):
                assert op.key in reference
    for name in workloads.SWEEPS:
        assert name in reference


def test_flipped_digit_in_a_table_row_raises_error_rate(tmp_path):
    reference = workloads.load_reference()
    table = setup_table(tmp_path)
    ops = [workloads.request("verify-cache", d, 20, table) for d in workloads.DEGREES]
    assert run.run_pass(cli, coeffs, ops, reference)["failed"] == 0

    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("2,5,"))
    d, m, num, den = lines[row].rstrip("\n").split(",")
    flipped = num[:-1] + str((int(num[-1]) + 2) % 10)
    lines[row] = f"{d},{m},{flipped},{den}\n"
    table.write_text("".join(lines), encoding="utf-8")
    assert run.run_pass(cli, coeffs, ops, reference)["failed"] == len(ops)


def test_flipped_digit_in_computed_output_is_a_failure():
    reference = workloads.load_reference()
    op = workloads.request("compute", 2, 10, None)
    code, stdout = workloads.outcome(cli, op.argv)
    assert workloads.matches(reference[op.key], code, stdout)
    i = stdout.index("\n2,3,") + 5
    corrupted = stdout[:i] + str((int(stdout[i]) + 1) % 10) + stdout[i + 1:]
    assert not workloads.matches(reference[op.key], code, corrupted)


def traced_counts(table):
    ops = MINI_OPS + [workloads.request("verify-cache", 3, 12, table)]
    tracer = trace.Tracer()
    tracer.install()
    try:
        run.run_pass(cli, coeffs, ops, {}, tracer)
    finally:
        tracer.uninstall()
    return trace.layer_metrics(tracer)


def test_count_metrics_repeat_exactly_and_every_layer_is_entered(tmp_path):
    table = setup_table(tmp_path)
    first, second = traced_counts(table), traced_counts(table)
    for name in COUNT_METRICS:
        assert first[name] == second[name], name
        assert first[name] > 0, name
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals


def checkout(tmp_path, with_package=True) -> Path:
    """A copy of the files the benchmark runs from, outside this repository."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    if with_package:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def bench(cwd, workload, trace_flag, seconds):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace_flag)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    root = checkout(tmp_path)
    done = bench(root, "small-requests", 1, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    record = json.loads((root / "perfbench/out/small-requests-seed3-trace1.json").read_text())
    env = record["environment"]
    for key in ("python", "arithmetic_backend", "nproc", "git_revision", "seed"):
        assert key in env
    assert env["seed"] == 3


def test_run_emits_every_end_to_end_metric_and_the_seconds_behind_them(tmp_path):
    root = checkout(tmp_path)
    done = bench(root, "small-requests", 0, 0)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    record = json.loads((root / "perfbench/out/small-requests-seed3-trace0.json").read_text())
    passes = record["passes"]
    assert all(len(p["calibration_s"]) == 2 * run.CALIBRATION_REPEATS for p in passes)
    wall_cal = statistics.median(p["wall_s"] / statistics.median(p["calibration_s"])
                                 for p in passes)
    assert wall_cal == result["metrics"]["wall_cal"]["value"]
    assert record["seconds"]["wall_s"]["value"] == statistics.median(p["wall_s"] for p in passes)


def test_fails_without_the_package(tmp_path):
    done = bench(checkout(tmp_path, with_package=False), "crosscheck", 0, 1)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
