"""The names the benchmark under ``perfbench/`` looks up in the package,
and the command lines it runs.

``perfbench.trace.Tracer.install`` wraps a fixed list of functions by
module and name, and ``perfbench/run.py`` reads a few more; renaming or
deleting any of them breaks the benchmark, so it fails here first.  So
does an option or option value that a workload or the reference
recorder passes, such as ``--threads`` or a ``--method`` choice.
"""

import sys
from pathlib import Path

import pytest

import multibrot.cli as cli
from multibrot import cache, checks, coeffs, exact, series

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import make_reference, trace, workloads  # noqa: E402

BENCHMARK_ARGV = [
    *workloads.SWEEPS.values(),
    workloads.SETUP_TABLE.argv,
    *(workloads.request(kind, 2, 10, Path("table.csv")).argv
      for kind in workloads.REQUEST_KINDS),
    make_reference.CROSSCHECK,
]


def test_tracer_installs_and_uninstalls():
    originals = {(module, attr): getattr(module, attr)
                 for module in (cli, coeffs, checks, cache, series, exact)
                 for attr in dir(module) if callable(getattr(module, attr))}
    tracer = trace.Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[(cli, "main")]
        assert cli.main(["bench", "--d", "2,3", "--m-max", "4", "--method", "residue"]) == 0
    finally:
        tracer.uninstall()
    metrics = trace.layer_metrics(tracer)
    assert metrics["coeffs.coefficient_calls"] == 10
    assert metrics["coeffs.shortcut_ratio"] > 0  # METHOD_SPECIAL records were seen
    restored = {(module, attr): getattr(module, attr) for module, attr in originals}
    assert restored == originals


def test_names_the_benchmark_reads_exist():
    assert callable(cli.build_parser)
    assert isinstance(coeffs._poly_cache, dict)
    assert isinstance(exact.GMP_BACKEND, bool)
    assert isinstance(coeffs.METHOD_SPECIAL, str)


@pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
def test_benchmark_argv_parses(argv):
    args = cli.build_parser().parse_args(list(argv))
    cli.normalize_args(args)


def test_traced_cache_request_fills_the_check_layers(tmp_path):
    # the traced check layers count what a verify --cache request does:
    # its valuations go through exact.padic_valuation, and the suite's
    # verdicts are the report's lines
    code, text = workloads.outcome(cli, workloads.SETUP_TABLE.argv)
    assert code == cli.EXIT_OK
    table = tmp_path / "table.csv"
    table.write_text(text, encoding="utf-8")
    op = next(op for op in workloads.request_sequence(1, table) if "--cache" in op.argv)
    tracer = trace.Tracer()
    tracer.install()
    try:
        code, report = workloads.outcome(cli, op.argv)
    finally:
        tracer.uninstall()
    assert workloads.matches(workloads.load_reference()[op.key], code, report)
    metrics = trace.layer_metrics(tracer)
    assert metrics["exact.padic_calls"] > 0
    lines = report.splitlines()
    assert lines[0] == checks.REPORT_HEADER and lines[-1].startswith("#sha256:")
    assert metrics["checks.verdicts"] == len(lines) - 2
    assert metrics["cache.parse_s"] > 0 and metrics["checks.report_s"] > 0
