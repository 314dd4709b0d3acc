"""The benchmark's workloads, their operations and the output checks.

An operation is one in-process ``multibrot.cli.main(argv)`` call, as a
client of the library would make it.  Each operation names a key in
``reference.json``, which holds the exit code and the SHA-256 of the
standard output that the operation produced at the commit the reference
was taken from (for ``bench``: the table hashes it prints).  An operation
fails when it raises, exits with another code, or prints other output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Operation:
    key: str
    argv: tuple[str, ...]


DEGREES = (2, 3, 4, 5, 6)
REQUEST_M_MIN, REQUEST_M_MAX = 4, 40
REQUEST_KINDS = ("compute", "census", "verify", "verify-cache")
# One request per (kind, degree, m stratum): 4 kinds x 5 degrees x 6 strata.
REQUEST_STRATA = 6
# Every check except ``vanishing``, which needs full computations that a
# preloaded table cannot supply.
CACHE_CHECKS = "main,zagier,ewing-schober,levin,yamashita,integrality,dadic"
# small-requests writes this table at set-up for its ``verify --cache`` requests.
SETUP_TABLE = Operation("setup-table", ("compute", "--d", ",".join(map(str, DEGREES)),
                                        "--m-max", str(REQUEST_M_MAX)))


# Each sweep pass takes a few seconds, so that a run holds enough passes
# for its median to stand still while the host's speed drifts.
SWEEPS = {
    # m <= 100, the ladder's first d = 2 point, rather than 150: a 150 pass
    # took 4.4-7.5 s on a 2-core VM, too long to be bracketed closely by
    # calibration runs; the kernel still does >99% of the work.
    "residue-serial": ("compute", "--d", "2", "--m-max", "100", "--threads", "1"),
    # Serial: with ``--threads-compare 2`` its wall time spread across runs
    # far more than its CPU time did on a 2-core VM; small-requests
    # measures the pool.
    "crosscheck": ("bench", "--d", "2,3", "--m-max", "80", "--method", "both",
                   "--threads", "1"),
}
WORKLOADS = ("residue-serial", "small-requests", "crosscheck")


def operations(workload: str, seed: int, table_path: Path | None,
               pass_index: int = 0) -> list[Operation]:
    """Pass ``pass_index`` of a workload.

    Only small-requests depends on the seed and the pass; the sweeps are
    fixed points of the (d, m_max) ladder, so that every run measures the
    same work.
    """
    if workload == "small-requests":
        return request_sequence(seed, table_path, pass_index)
    return [Operation(workload, SWEEPS[workload])]


def request_sequence(seed: int, table_path: Path | None,
                     pass_index: int = 0) -> list[Operation]:
    """The seeded closed-loop request sequence of one small-requests pass.

    Each (kind, degree) pair gets one request per stratum of the m_max
    range, with m_max drawn inside the stratum, and the whole list is
    shuffled.  Stratifying keeps the request mix alike from draw to draw
    while every m_max stays possible; drawing afresh for every pass of a
    run (from the run's seed and the pass's index) averages what is left of
    the difference over the run, so that the cost of a run barely depends
    on its seed.
    """
    rng = random.Random(f"{seed}/{pass_index}")
    span = REQUEST_M_MAX - REQUEST_M_MIN + 1
    ops = []
    for kind in REQUEST_KINDS:
        for d in DEGREES:
            for s in range(REQUEST_STRATA):
                lo = REQUEST_M_MIN + s * span // REQUEST_STRATA
                hi = REQUEST_M_MIN + (s + 1) * span // REQUEST_STRATA - 1
                m = rng.randint(lo, hi)
                ops.append(request(kind, d, m, table_path))
    rng.shuffle(ops)
    return ops


def request(kind: str, d: int, m: int, table_path: Path | None) -> Operation:
    argv = ["verify" if kind == "verify-cache" else kind, "--d", str(d), "--m-max", str(m)]
    if kind == "verify-cache":
        argv += ["--checks", CACHE_CHECKS, "--cache", str(table_path)]
    return Operation(f"{kind} d={d} m={m}", tuple(argv))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bench_hashes(stdout: str) -> list[str]:
    """The sha256 column of ``bench`` output (one row per method and thread count)."""
    rows = stdout.splitlines()[1:]
    return [row.rsplit(",", 1)[-1] for row in rows]


def outcome(cli, argv) -> tuple[int | None, str]:
    """Run ``cli.main(argv)`` in-process; exit code None means it raised.

    ``cli.main`` is looked up on each call so that a tracer's wrapper is used.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit):
            code = None
    return code, out.getvalue()


def matches(expected: dict, code: int | None, stdout: str) -> bool:
    """Whether an operation's exit code and output equal the reference.

    ``verify`` exits 1 on the seed's known failing verdicts (criterion 07,
    Yamashita's floor form), so exit 1 passes only with the reference report.
    """
    if code != expected["exit"]:
        return False
    if "bench_hashes" in expected:
        return bench_hashes(stdout) == expected["bench_hashes"]
    return digest(stdout) == expected["sha256"]


def run_operation(cli, op: Operation, reference: dict) -> tuple[float, bool, str]:
    """Latency in seconds, whether the output matched the reference, and the output."""
    start = time.perf_counter()
    code, stdout = outcome(cli, op.argv)
    elapsed = time.perf_counter() - start
    expected = reference.get(op.key)
    return elapsed, expected is not None and matches(expected, code, stdout), stdout
