"""Record ``reference.json``: the expected exit code and output digest of
every operation the benchmark can run.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good; later commits must
reproduce these bytes exactly.  Operations run serially here
(``--threads 1``), so the benchmark's multi-worker runs also check that
output does not depend on the worker count.  Before recording, every
coefficient any workload uses (d = 2..6, m <= 150) is computed by both
the residue and the partition-sum route, and the two must agree.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from multibrot import cli  # noqa: E402
from perfbench import workloads  # noqa: E402

CROSSCHECK = ("compute", "--d", "2,3,4,5,6", "--m-max", "150", "--method", "both",
              "--threads", "2")


def expected(argv) -> dict:
    code, stdout = workloads.outcome(cli, tuple(argv) + ("--threads", "1"))
    if code is None:
        raise SystemExit(f"reference run raised: {' '.join(argv)}")
    if argv[0] == "bench":
        return {"exit": code, "bench_hashes": workloads.bench_hashes(stdout)}
    return {"exit": code, "sha256": workloads.digest(stdout)}


def main() -> int:
    code, _ = workloads.outcome(cli, CROSSCHECK)
    if code != 0:
        print("residue and partition-sum routes disagree; no reference written",
              file=sys.stderr)
        return 1
    reference = {"_crosscheck": {"argv": list(CROSSCHECK), "exit": code}}
    for name, argv in workloads.SWEEPS.items():
        reference[name] = expected(argv)
    reference[workloads.SETUP_TABLE.key] = expected(workloads.SETUP_TABLE.argv)
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.csv"
        _, text = workloads.outcome(cli, workloads.SETUP_TABLE.argv)
        table.write_text(text, encoding="utf-8")
        for kind in workloads.REQUEST_KINDS:
            for d in workloads.DEGREES:
                for m in range(workloads.REQUEST_M_MIN, workloads.REQUEST_M_MAX + 1):
                    op = workloads.request(kind, d, m, table)
                    reference[op.key] = expected(op.argv)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(reference) - 1} reference outputs to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
