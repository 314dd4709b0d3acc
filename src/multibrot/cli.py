"""Command-line front end.

Subcommands: ``compute`` (coefficient tables), ``verify`` (bound checks
with a machine-readable report), ``census`` (zero coefficients and
whether the divisibility criterion explains them), and ``bench``
(timings and table digests of the per-index routes or of the sweep).
With ``--method both``, ``compute`` and ``bench`` compare two methods'
values row by row and name the first differing ``(d, m)`` on stderr.

Every command runs in one process.  ``compute``, ``verify`` and
``census`` read their values from one ``coefficients_by_sweep`` per
degree (run by ``compute`` itself and by the library's ``suite_verdicts``
and ``zero_census``), as does ``bench --method sweep``; ``bench``'s other
methods and the partition-sum pass of ``compute --method both`` call the
per-index routes directly, one index at a time.  ``--threads`` is
accepted and validated for compatibility but changes nothing.

``main`` builds its parser once per process, on its first call; every
later in-process call (a test suite, a library loop over ``main``) shares
that parser, which parsing never changes.  A request whose first word
names a command is parsed once, by that command's subparser; any other
argv (none, an unknown command, ``--help``) goes to the top-level
parser, which prints help or a usage error as argparse does.  An unknown
trailing argument is therefore reported by the command's parser
(``multibrot compute: error: unrecognized arguments: ...``).

Exit codes: 0 success, 1 verification failure, method disagreement or
inexact division, 2 usage error, 3 I/O error, bad table or out of memory,
130 interrupted (Ctrl-C, one stderr line).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from collections import Counter
from pathlib import Path

from . import cache, coeffs
from .checks import CHECK_NAMES, format_report, suite_verdicts
from .coeffs import (
    METHOD_COMBINATORIAL,
    METHOD_RESIDUE,
    METHOD_SWEEP,
    laurent_coefficient,
    zero_census,
)
from .exact import MAX_DEGREE

# Largest --m-max: a d=2 sweep took 14.5-21 s at m=2000, 279 s CPU at m=4000 (~m^3.7-4.3).
MAX_M = 10**5

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT

CACHE_DIR_ENV = "MULTIBROT_CACHE_DIR"


class UsageError(ValueError):
    pass


def _split_list(raw: list[str]) -> list[str]:
    """The non-blank items of a repeatable comma-separated option, stripped."""
    return [item for chunk in raw for item in map(str.strip, chunk.split(",")) if item]


# The spelling of every integer on the command line: ASCII digits after an
# optional minus sign, as in the table format (leading zeros aside).
_DECIMAL = re.compile("-?[0-9]+")


def _integer(text: str) -> int:
    """``int(text)`` for a spelling that ``_DECIMAL`` matches in full; any
    other text (a plus sign, an underscore, a space, a non-ASCII digit) or
    a value past the digit cap raises the ``ArgumentTypeError`` with which
    argparse reports a value ``int`` refuses."""
    if _DECIMAL.fullmatch(text):
        try:
            return int(text)
        except ValueError:  # past the digit cap
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_degrees(raw: list[str]) -> list[int]:
    degrees = []
    for item in _split_list(raw):
        try:
            d = _integer(item)
        except argparse.ArgumentTypeError:
            raise UsageError(f"invalid degree {item!r}") from None
        if d < 2:
            raise UsageError(f"degree must be >= 2, got {d}")
        if d > MAX_DEGREE:
            raise UsageError(f"degree must be <= {MAX_DEGREE}, got {d}")
        degrees.append(d)
    if not degrees:
        raise UsageError("at least one degree is required")
    return sorted(set(degrees))


def _parse_checks(raw: list[str] | None) -> list[str]:
    if raw is None:
        return list(CHECK_NAMES)
    names = _split_list(raw)
    if not names:
        raise UsageError("at least one check is required")
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
    """The ``multibrot`` parser: built on the first call, then shared."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The ``multibrot`` parser and its subparsers by command name, built
    once per process."""
    parser = argparse.ArgumentParser(
        prog="multibrot",
        description="Exact Laurent coefficients of the Multibrot exterior map "
        "and mechanical checks of the known denominator bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, methods=None, method_default=None):
        p.add_argument("--d", action="append", default=None, metavar="D[,D...]",
                       help="degree(s); repeatable or comma-separated (default: 2)")
        p.add_argument("--m-max", type=_integer, required=True, metavar="M",
                       help="largest coefficient index")
        p.add_argument("--threads", type=_integer, default=1,
                       help="kept for compatibility: must be >= 1, changes "
                            "nothing (every command runs in one process)")
        if methods is not None:
            p.add_argument("--method", choices=methods, default=method_default)

    p_compute = sub.add_parser("compute", help="compute a coefficient table")
    p_compute.set_defaults(run=cmd_compute)
    common(p_compute, methods=(METHOD_SWEEP, "both"), method_default=METHOD_SWEEP)
    p_compute.add_argument("--cache", type=_resolve_cache_path, default=None, metavar="PATH",
                           help="write the table here instead of stdout "
                                f"(relative paths resolve under ${CACHE_DIR_ENV})")
    p_compute.add_argument("--output", choices=("csv", "json-lines"), default="csv")

    p_verify = sub.add_parser("verify", help="run bound checks and emit a report")
    p_verify.set_defaults(run=cmd_verify)
    common(p_verify)
    p_verify.add_argument("--checks", action="append", default=None,
                          metavar="NAME[,NAME...]",
                          help=f"checks to run (default: all of {', '.join(CHECK_NAMES)})")
    p_verify.add_argument("--report", default=None, metavar="PATH",
                          help="report file (default: stdout)")
    p_verify.add_argument("--cache", type=_resolve_cache_path, default=None, metavar="PATH",
                          help="preload coefficients from this table")

    p_census = sub.add_parser("census", help="list zero coefficients")
    p_census.set_defaults(run=cmd_census)
    common(p_census)
    p_census.add_argument("--output", choices=("csv", "json-lines"), default="csv")

    p_bench = sub.add_parser("bench", help="time the per-index routes or the sweep; "
                                           "hashes double as correctness checks")
    p_bench.set_defaults(run=cmd_bench)
    common(p_bench, methods=(METHOD_RESIDUE, METHOD_COMBINATORIAL, METHOD_SWEEP, "both"),
           method_default="both")

    return parser, sub.choices


def normalize_args(args: argparse.Namespace) -> None:
    """Validate the parsed arguments and normalize them in place: ``d``
    becomes the sorted degree list and ``checks`` the list of check names
    (``--cache`` is resolved by its ``type``).  Raises ``UsageError``."""
    args.d = _parse_degrees(args.d) if args.d else [2]
    if args.m_max < 0:
        raise UsageError("--m-max must be >= 0")
    if args.m_max > MAX_M:
        raise UsageError(f"--m-max must be <= {MAX_M}, got {args.m_max}")
    if args.threads < 1:
        raise UsageError("--threads must be >= 1")
    if args.command == "verify":
        args.checks = _parse_checks(args.checks)


# ----------------------------------------------------------------------
# subcommands


def _emit(text: str, path: str | Path | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _records_json_lines(rows) -> str:
    return "".join(json.dumps({"d": d, "m": m, "numerator": cache.int_to_text(value.numerator),
                               "denominator": cache.int_to_text(value.denominator)},
                              sort_keys=True) + "\n" for d, m, value in rows)


def _fraction_text(value) -> str:
    """``value`` as numerator/denominator, at any length of its terms."""
    return "/".join(map(cache.int_to_text, value.as_integer_ratio()))


def _rows(degrees, m_max, method=METHOD_SWEEP):
    """(d, m, b_m) for every degree and m <= m_max: one sweep per degree,
    or the per-index route ``method`` at each index."""
    if method == METHOD_SWEEP:
        return [(d, m, value) for d in degrees
                for m, value in enumerate(coeffs.coefficients_by_sweep(d, m_max))]
    return [(d, m, laurent_coefficient(d, m, method=method).value)
            for d in degrees for m in range(m_max + 1)]


def _disagreement(methods, rows_a, rows_b) -> bool:
    """Whether two methods' rows differ; stderr names the first such (d, m) and both values."""
    for (d, m, a), (_, _, b) in zip(rows_a, rows_b):
        if a != b:
            print(f"multibrot: method disagreement at d={d}, m={m}: "
                  f"{methods[0]}={_fraction_text(a)}, "
                  f"{methods[1]}={_fraction_text(b)}", file=sys.stderr)
            return True
    return False


def cmd_compute(args) -> int:
    rows = _rows(args.d, args.m_max)
    if args.method == "both" and _disagreement(
            (METHOD_SWEEP, METHOD_COMBINATORIAL), rows,
            _rows(args.d, args.m_max, METHOD_COMBINATORIAL)):
        return EXIT_VERIFICATION
    if args.output == "csv":
        text = cache.format_table(rows)
    else:
        text = _records_json_lines(rows)
    _emit(text, args.cache)
    return EXIT_OK


def cmd_verify(args) -> int:
    cached = None
    if args.cache is not None:
        cached = {(d, m): value for d, m, value
                  in cache.load_coefficients(args.cache, args.d, args.m_max)}
    verdicts = suite_verdicts(args.d, args.m_max, args.checks, cached)
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
    lines = []
    summaries = []
    for d in args.d:
        zeros = zero_census(d, args.m_max)
        explained = sum(1 for _, e in zeros if e)
        counts = {"d": d, "zeros": len(zeros), "explained_zeros": explained,
                  "unexplained_zeros": len(zeros) - explained}
        if args.output == "csv":
            lines += [f"{d},{m},{'true' if e else 'false'}" for m, e in zeros]
            summaries.append("# d={d}: zeros={zeros} explained={explained_zeros} "
                             "unexplained={unexplained_zeros}".format(**counts))
        else:
            lines += [json.dumps({"d": d, "m": m, "explained": e}, sort_keys=True)
                      for m, e in zeros]
            summaries.append(json.dumps(counts))
    _emit("\n".join(lines + summaries) + "\n", None)
    return EXIT_OK


def cmd_bench(args) -> int:
    methods = ([METHOD_RESIDUE, METHOD_COMBINATORIAL]
               if args.method == "both" else [args.method])
    print("method,seconds,peak_coeff_bits,sha256")
    tables = []
    for method in methods:
        start = time.perf_counter()
        rows = _rows(args.d, args.m_max, method)
        elapsed = time.perf_counter() - start
        peak_bits = max(max(value.numerator.bit_length(), value.denominator.bit_length())
                        for _, _, value in rows)
        digest = hashlib.sha256(cache.format_table(rows).encode("utf-8")).hexdigest()
        print(f"{method},{elapsed:.3f},{peak_bits},{digest}")
        tables.append(rows)
    return EXIT_VERIFICATION if len(tables) > 1 and _disagreement(methods, *tables) else EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args = commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    else:
        args = parser.parse_args(argv)
    try:
        normalize_args(args)
        return args.run(args)
    except UsageError as exc:
        print(f"multibrot: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except cache.CacheFormatError as exc:
        print(f"multibrot: bad coefficient table: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"multibrot: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("multibrot: out of memory", file=sys.stderr)
        return EXIT_IO
    except ArithmeticError as exc:
        print(f"multibrot: inexact division: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except KeyboardInterrupt:
        print("multibrot: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
