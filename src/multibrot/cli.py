"""Command-line front end.

Subcommands: ``compute`` (coefficient tables), ``verify`` (bound checks
with a machine-readable report), ``census`` (zero coefficients and
whether the divisibility criterion explains them), and ``bench``
(timings plus cross-method/cross-thread-count correctness hashes).

``compute``, ``verify`` and ``census`` fill their tables serially, with
one column sweep per degree.  Only ``bench`` starts worker processes:
it times the per-index residue and partition-sum routes on ``--threads``
workers, partitioned by index and merged in sorted order, so every
worker count gives byte-identical tables.

Exit codes: 0 success, 1 verification failure or method disagreement,
2 usage error, 3 I/O error or (``bench`` only) a broken worker pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from . import cache
from .checks import CHECK_NAMES, CHECKS, applicable, format_report, suite_verdicts
from .coeffs import (
    METHOD_COMBINATORIAL,
    METHOD_RESIDUE,
    METHOD_SWEEP,
    CoeffRecord,
    CoeffTable,
    choose_n,
    coefficients_by_sweep,
    laurent_coefficient,
    zero_census,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3

CACHE_DIR_ENV = "MULTIBROT_CACHE_DIR"


class UsageError(ValueError):
    pass


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


def _resolve_cache_path(raw: str) -> Path:
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

    def common(p, methods=None, method_default=None):
        p.add_argument("--d", action="append", default=None, metavar="D[,D...]",
                       help="degree(s); repeatable or comma-separated (default: 2)")
        p.add_argument("--m-max", type=int, required=True, metavar="M",
                       help="largest coefficient index")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker processes for bench (default: all cores); "
                            "the other commands run serially; output is "
                            "identical for any value")
        if methods is not None:
            p.add_argument("--method", choices=methods, default=method_default)

    p_compute = sub.add_parser("compute", help="compute a coefficient table")
    common(p_compute, methods=(METHOD_SWEEP, METHOD_COMBINATORIAL, "both"),
           method_default=METHOD_SWEEP)
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
    common(p_bench, methods=(METHOD_RESIDUE, METHOD_COMBINATORIAL, "both"),
           method_default="both")
    p_bench.add_argument("--threads-compare", type=int, default=None, metavar="N",
                         help="re-run with N workers and require identical hashes")

    return parser


def normalize_args(args: argparse.Namespace) -> None:
    """Validate the parsed arguments and normalize them in place: ``d``
    becomes the sorted degree list, ``checks`` the list of check names and
    ``cache`` the resolved path.  Raises ``UsageError``."""
    args.d = _parse_degrees(args.d) if args.d else [2]
    if args.m_max < 0:
        raise UsageError("--m-max must be >= 0")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    if getattr(args, "threads_compare", None) is not None and args.threads_compare < 1:
        raise UsageError("--threads-compare must be >= 1")
    if getattr(args, "cache", None) is not None:
        args.cache = _resolve_cache_path(args.cache)
    if args.command == "verify":
        args.checks = _parse_checks(args.checks)


# ----------------------------------------------------------------------
# coefficient computation


def _fill_table(table, pairs, method, full_pairs=()):
    """Compute the given (d, m) pairs that the table lacks, and every pair
    in ``full_pairs``, serially.

    A full record replaces whatever the table held at its pair, so a
    check that reads one never sees a cached or shortcut value.  The
    sweep runs once per degree, up to the largest index it has to write,
    and writes only the wanted indices; sweep records are computed
    without the vanishing shortcut.  The per-index methods compute each
    wanted pair on its own, with the shortcut off at ``full_pairs``.
    """
    full = set(full_pairs)
    wanted = {(d, m) for d, m in pairs if table.get(d, m) is None} | full
    if method != METHOD_SWEEP:
        for d, m in sorted(wanted):
            table.add(laurent_coefficient(d, m, method=method,
                                          use_vanishing_shortcut=(d, m) not in full))
        return
    tops = {}
    for d, m in wanted:
        tops[d] = max(tops.get(d, 0), m)
    for d, top in sorted(tops.items()):
        for m, value in enumerate(coefficients_by_sweep(d, top)):
            if (d, m) in wanted:
                table.add(CoeffRecord(d, m, value, METHOD_SWEEP, choose_n(d, max(m, 1))))


def _compute_chunk(method, pairs):
    """Bench worker: the record of each (d, m) pair, in order."""
    return [laurent_coefficient(d, m, method=method) for d, m in pairs]


def _fill_table_in_pool(table, pairs, method, threads):
    """``_fill_table`` for ``bench`` on up to ``threads`` worker processes.

    Striped partitioning of the sorted pairs balances the heavier
    high-index work, and no more workers start than there are stripes;
    the table is the single writer-side aggregation point, so results
    are merged here regardless of completion order.
    """
    if threads == 1:
        _fill_table(table, pairs, method)
        return
    jobs = sorted(set(pairs))
    stripes = threads * 4
    tasks = [jobs[s::stripes] for s in range(min(stripes, len(jobs)))]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        for chunk in pool.map(partial(_compute_chunk, method), tasks):
            for record in chunk:
                table.add(record)


# ----------------------------------------------------------------------
# subcommands


def _emit(text: str, path: str | Path | None):
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


def cmd_compute(args) -> int:
    pairs = [(d, m) for d in args.d for m in range(args.m_max + 1)]
    primary = METHOD_SWEEP if args.method == "both" else args.method
    table = CoeffTable()
    _fill_table(table, pairs, primary)
    if args.method == "both":
        other = CoeffTable()
        _fill_table(other, pairs, METHOD_COMBINATORIAL)
        for d, m in pairs:
            a, b = table.value(d, m), other.value(d, m)
            if a != b:
                print(f"multibrot: method disagreement at d={d}, m={m}: "
                      f"{primary}={a}, combinatorial={b}", file=sys.stderr)
                return EXIT_VERIFICATION
    records = table.records_sorted()
    if args.output == "csv":
        text = cache.format_table(records)
    else:
        text = _records_json_lines(records)
    _emit(text, args.cache)
    return EXIT_OK


def cmd_verify(args) -> int:
    table = CoeffTable()
    if args.cache is not None:
        for d, m, value in cache.load_coefficients(args.cache):
            table.add(CoeffRecord(d, m, value, "cached", -1))
    pairs = []
    full_pairs = []
    for name, d, m in applicable(args.d, args.m_max, args.checks):
        (full_pairs if CHECKS[name].full else pairs).append((d, m))
    _fill_table(table, pairs, METHOD_SWEEP, full_pairs)

    verdicts = suite_verdicts(args.d, args.m_max, args.checks, table)
    _emit(format_report(verdicts), args.report)
    failures = [v for v in verdicts if not v.passed]
    print(f"multibrot verify: {len(verdicts)} verdicts, {len(failures)} failures",
          file=sys.stderr)
    for line in _failure_summary(failures):
        print(f"multibrot verify: {line}", file=sys.stderr)
    return EXIT_VERIFICATION if failures else EXIT_OK


def _failure_summary(failures) -> list[str]:
    """Failure counts per (check, p) in the order of their first failure,
    then the first five failing verdicts; p is a prime or None ("-")."""
    counts = Counter((v.check, v.p) for v in failures)
    lines = [f"{check} p={p or '-'}: {n} failures" for (check, p), n in counts.items()]
    lines += [f"failed {v.check} d={v.d} m={v.m} p={v.p or '-'}" for v in failures[:5]]
    return lines


def cmd_census(args) -> int:
    table = CoeffTable()
    _fill_table(table, [(d, m) for d in args.d for m in range(args.m_max + 1)], METHOD_SWEEP)
    lines = []
    summaries = []
    for d in args.d:
        zeros = zero_census(d, args.m_max, table)
        for m, explained in zeros:
            if args.output == "csv":
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


def _bench_one(args, method: str, threads: int):
    pairs = [(d, m) for d in args.d for m in range(args.m_max + 1)]
    table = CoeffTable()
    start = time.perf_counter()
    _fill_table_in_pool(table, pairs, method, threads)
    elapsed = time.perf_counter() - start
    records = table.records_sorted()
    peak_bits = 0
    for rec in records:
        peak_bits = max(peak_bits,
                        rec.value.numerator.bit_length(),
                        rec.value.denominator.bit_length())
    digest = hashlib.sha256(cache.format_table(records).encode("utf-8")).hexdigest()
    return elapsed, peak_bits, digest


def cmd_bench(args) -> int:
    methods = ([METHOD_RESIDUE, METHOD_COMBINATORIAL]
               if args.method == "both" else [args.method])
    thread_counts = [args.threads]
    if args.threads_compare is not None and args.threads_compare != args.threads:
        thread_counts.append(args.threads_compare)
    print("method,threads,seconds,peak_coeff_bits,sha256")
    hashes = {}
    for method in methods:
        for threads in thread_counts:
            elapsed, peak_bits, digest = _bench_one(args, method, threads)
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
        normalize_args(args)
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
        return handlers[args.command](args)
    except cache.CacheFormatError as exc:
        print(f"multibrot: bad coefficient table: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"multibrot: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        # imported here: the module takes a third of the CLI's import time
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"multibrot: worker pool broke: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
