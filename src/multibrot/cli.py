"""Command-line front end.

Subcommands: ``compute`` (coefficient tables), ``verify`` (bound checks
with a machine-readable report), ``census`` (zero coefficients and
whether the divisibility criterion explains them), and ``bench``
(timings plus cross-method/cross-thread-count correctness hashes).

Exit codes: 0 success, 1 verification failure or method disagreement,
2 usage error, 3 I/O error.  Output is deterministic: work is
partitioned by index and merged in sorted order, so any worker count
produces byte-identical results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import cache
from .checks import CHECK_NAMES, CHECKS, applicable, format_report, suite_verdicts
from .coeffs import (
    METHOD_COMBINATORIAL,
    METHOD_RESIDUE,
    CoeffRecord,
    CoeffTable,
    laurent_coefficient,
    vanishes_by_divisibility,
    zero_census,
)
from .exact import rational

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

CACHE_DIR_ENV = "MULTIBROT_CACHE_DIR"


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    degrees: list[int]
    m_max: int
    method: str = METHOD_RESIDUE
    cache_path: Path | None = None
    output: str = "csv"
    checks: list[str] = field(default_factory=list)
    threads: int = 1
    report_path: Path | None = None
    threads_compare: int | None = None


def _parse_degrees(raw: list[str]) -> list[int]:
    degrees = []
    for chunk in raw:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            try:
                d = int(item)
            except ValueError:
                raise UsageError(f"invalid degree {item!r}") from None
            if d < 2:
                raise UsageError(f"degree must be >= 2, got {d}")
            degrees.append(d)
    if not degrees:
        raise UsageError("at least one degree is required")
    return sorted(set(degrees))


def _parse_checks(raw: list[str] | None) -> list[str]:
    if raw is None:
        return list(CHECK_NAMES)
    names = []
    for chunk in raw:
        for item in chunk.split(","):
            item = item.strip()
            if item:
                names.append(item)
    unknown = [n for n in names if n not in CHECK_NAMES]
    if unknown:
        raise UsageError(
            f"unknown check names: {', '.join(unknown)} "
            f"(known: {', '.join(CHECK_NAMES)})"
        )
    return names


def _resolve_cache_path(raw: str | None) -> Path | None:
    if raw is None:
        return None
    path = Path(raw)
    base = os.environ.get(CACHE_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multibrot",
        description="Exact Laurent coefficients of the Multibrot exterior map "
        "and mechanical checks of the known denominator bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method_default=None):
        p.add_argument("--d", action="append", default=None, metavar="D[,D...]",
                       help="degree(s); repeatable or comma-separated (default: 2)")
        p.add_argument("--m-max", type=int, required=True, metavar="M",
                       help="largest coefficient index")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker processes (default: all cores); output is "
                            "identical for any value")
        if method_default is not None:
            p.add_argument("--method",
                           choices=(METHOD_RESIDUE, METHOD_COMBINATORIAL, "both"),
                           default=method_default)

    p_compute = sub.add_parser("compute", help="compute a coefficient table")
    common(p_compute, method_default=METHOD_RESIDUE)
    p_compute.add_argument("--cache", default=None, metavar="PATH",
                           help="write the table here instead of stdout "
                                f"(relative paths resolve under ${CACHE_DIR_ENV})")
    p_compute.add_argument("--output", choices=("csv", "json-lines"), default="csv")

    p_verify = sub.add_parser("verify", help="run bound checks and emit a report")
    common(p_verify)
    p_verify.add_argument("--checks", action="append", default=None,
                          metavar="NAME[,NAME...]",
                          help=f"checks to run (default: all of {', '.join(CHECK_NAMES)})")
    p_verify.add_argument("--report", default=None, metavar="PATH",
                          help="report file (default: stdout)")
    p_verify.add_argument("--cache", default=None, metavar="PATH",
                          help="preload coefficients from this table")

    p_census = sub.add_parser("census", help="list zero coefficients")
    common(p_census)
    p_census.add_argument("--output", choices=("csv", "json-lines"), default="csv")

    p_bench = sub.add_parser("bench", help="time both methods; hashes double as "
                                           "correctness checks")
    common(p_bench, method_default="both")
    p_bench.add_argument("--threads-compare", type=int, default=None, metavar="N",
                         help="re-run with N workers and require identical hashes")

    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    degrees = _parse_degrees(args.d) if args.d else [2]
    if args.m_max < 0:
        raise UsageError("--m-max must be >= 0")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    cfg = RunConfig(
        command=args.command,
        degrees=degrees,
        m_max=args.m_max,
        threads=args.threads,
    )
    if hasattr(args, "method"):
        cfg.method = args.method
    if hasattr(args, "output"):
        cfg.output = args.output
    if getattr(args, "cache", None) is not None:
        cfg.cache_path = _resolve_cache_path(args.cache)
    if args.command == "verify":
        cfg.checks = _parse_checks(args.checks)
        if args.report is not None:
            cfg.report_path = Path(args.report)
    if args.command == "bench":
        cfg.threads_compare = args.threads_compare
        if cfg.threads_compare is not None and cfg.threads_compare < 1:
            raise UsageError("--threads-compare must be >= 1")
    return cfg


# ----------------------------------------------------------------------
# parallel coefficient computation


def _compute_chunk(task):
    """Worker: coefficients for one degree and a list of indices.

    Returns plain-int tuples so results cross process boundaries cheaply.
    """
    d, m_list, method, shortcut = task
    out = []
    for m in m_list:
        rec = laurent_coefficient(d, m, method=method, use_vanishing_shortcut=shortcut)
        out.append((d, m, int(rec.value.numerator), int(rec.value.denominator),
                    rec.method, rec.n_used))
    return out


def _fill_table(table, pairs, method, threads, shortcut=True):
    """Populate table with the given (d, m) pairs, in parallel if asked.

    Striped partitioning balances the heavier high-index work; the table
    is the single writer-side aggregation point, so results are merged
    here regardless of completion order.
    """
    todo = sorted({(d, m) for d, m in pairs if table.get(d, m) is None})
    if not todo:
        return
    if threads <= 1 or len(todo) < 4:
        for d, m in todo:
            table.add(laurent_coefficient(d, m, method=method,
                                          use_vanishing_shortcut=shortcut))
        return
    by_degree: dict[int, list[int]] = {}
    for d, m in todo:
        by_degree.setdefault(d, []).append(m)
    stripes = threads * 4
    tasks = []
    for d in sorted(by_degree):
        ms = sorted(by_degree[d])
        for s in range(stripes):
            stripe = ms[s::stripes]
            if stripe:
                tasks.append((d, stripe, method, shortcut))
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_compute_chunk, tasks))
    except (ImportError, OSError) as exc:  # pragma: no cover - sandboxed hosts
        print(f"multibrot: process pool unavailable ({exc}); running serially",
              file=sys.stderr)
        results = [_compute_chunk(t) for t in tasks]
    for chunk in results:
        for d, m, num, den, meth, n_used in chunk:
            table.add(CoeffRecord(d, m, rational(num, den), meth, n_used))


# ----------------------------------------------------------------------
# subcommands


def _emit(text: str, path: Path | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


@cache.unlimited_int_digits()
def _records_json_lines(records) -> str:
    lines = []
    for rec in records:
        lines.append(json.dumps({
            "d": rec.d,
            "m": rec.m,
            "numerator": str(rec.value.numerator),
            "denominator": str(rec.value.denominator),
        }, sort_keys=True))
    return "\n".join(lines) + "\n" if lines else ""


def cmd_compute(cfg: RunConfig) -> int:
    pairs = [(d, m) for d in cfg.degrees for m in range(cfg.m_max + 1)]
    primary = METHOD_RESIDUE if cfg.method == "both" else cfg.method
    table = CoeffTable(method=primary)
    _fill_table(table, pairs, primary, cfg.threads)
    if cfg.method == "both":
        other = CoeffTable(method=METHOD_COMBINATORIAL)
        _fill_table(other, pairs, METHOD_COMBINATORIAL, cfg.threads)
        for d, m in pairs:
            a, b = table.value(d, m), other.value(d, m)
            if a != b:
                print(f"multibrot: method disagreement at d={d}, m={m}: "
                      f"residue={a}, combinatorial={b}", file=sys.stderr)
                return EXIT_VERIFICATION
    records = table.records_sorted()
    if cfg.output == "csv":
        text = cache.format_table(records)
    else:
        text = _records_json_lines(records)
    _emit(text, cfg.cache_path)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    table = CoeffTable()
    if cfg.cache_path is not None:
        for d, m, value in cache.load_coefficients(cfg.cache_path):
            table.add(CoeffRecord(d, m, value, "cached", -1))
    shortcut_pairs = []
    full_pairs = []
    for name, d, m in applicable(cfg.degrees, cfg.m_max, cfg.checks):
        (full_pairs if CHECKS[name].full else shortcut_pairs).append((d, m))
    _fill_table(table, shortcut_pairs, METHOD_RESIDUE, cfg.threads)
    full_table = CoeffTable()
    _fill_table(full_table, full_pairs, METHOD_RESIDUE, cfg.threads, shortcut=False)

    verdicts = suite_verdicts(cfg.degrees, cfg.m_max, cfg.checks, table, full_table)
    _emit(format_report(verdicts), cfg.report_path)
    failures = [v for v in verdicts if not v.passed]
    print(f"multibrot verify: {len(verdicts)} verdicts, {len(failures)} failures",
          file=sys.stderr)
    return EXIT_VERIFICATION if failures else EXIT_OK


def cmd_census(cfg: RunConfig) -> int:
    table = CoeffTable()
    pairs = [(d, m) for d in cfg.degrees for m in range(cfg.m_max + 1)
             if not vanishes_by_divisibility(d, m)]
    _fill_table(table, pairs, METHOD_RESIDUE, cfg.threads)
    lines = []
    summaries = []
    for d in cfg.degrees:
        zeros = zero_census(d, cfg.m_max, table)
        for m, explained in zeros:
            if cfg.output == "csv":
                lines.append(f"{d},{m},{'true' if explained else 'false'}")
            else:
                lines.append(json.dumps(
                    {"d": d, "m": m, "explained": explained}, sort_keys=True))
        explained_count = sum(1 for _, e in zeros if e)
        summaries.append(
            f"# d={d}: zeros={len(zeros)} explained={explained_count} "
            f"unexplained={len(zeros) - explained_count}"
        )
    text = "\n".join(lines + summaries) + "\n"
    sys.stdout.write(text)
    return EXIT_OK


def _bench_one(cfg: RunConfig, method: str, threads: int):
    pairs = [(d, m) for d in cfg.degrees for m in range(cfg.m_max + 1)]
    table = CoeffTable(method=method)
    start = time.perf_counter()
    _fill_table(table, pairs, method, threads)
    elapsed = time.perf_counter() - start
    records = table.records_sorted()
    peak_bits = 0
    for rec in records:
        peak_bits = max(peak_bits,
                        int(rec.value.numerator).bit_length(),
                        int(rec.value.denominator).bit_length())
    digest = hashlib.sha256(cache.format_table(records).encode("utf-8")).hexdigest()
    return elapsed, peak_bits, digest


def cmd_bench(cfg: RunConfig) -> int:
    methods = ([METHOD_RESIDUE, METHOD_COMBINATORIAL]
               if cfg.method == "both" else [cfg.method])
    thread_counts = [cfg.threads]
    if cfg.threads_compare is not None and cfg.threads_compare != cfg.threads:
        thread_counts.append(cfg.threads_compare)
    print("method,threads,seconds,peak_coeff_bits,sha256")
    hashes = {}
    for method in methods:
        for threads in thread_counts:
            elapsed, peak_bits, digest = _bench_one(cfg, method, threads)
            hashes[(method, threads)] = digest
            print(f"{method},{threads},{elapsed:.3f},{peak_bits},{digest}")
    distinct = set(hashes.values())
    if len(distinct) > 1:
        print("multibrot bench: hash mismatch across runs; values disagree",
              file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
    except UsageError as exc:
        print(f"multibrot: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "compute": cmd_compute,
        "verify": cmd_verify,
        "census": cmd_census,
        "bench": cmd_bench,
    }
    try:
        return handlers[cfg.command](cfg)
    except cache.CacheFormatError as exc:
        print(f"multibrot: bad coefficient table: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"multibrot: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
