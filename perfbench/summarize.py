"""Fold the result files of many runs into one point of the perf trajectory.

    python3 perfbench/summarize.py LABEL

Reads every ``perfbench/out/*-trace*.json`` and writes
``perfbench/results/LABEL.json``: per workload, the seeds run and, per
metric, the median and quartiles over runs, plus the environment of the
first run.  Run it after ten or more seeds per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
RESULTS_DIR = ROOT / "perfbench" / "results"


def summarize(records) -> dict:
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(lambda: defaultdict(list))
    environment = None
    for record in records:
        env = record["environment"]
        environment = environment or {k: v for k, v in env.items()
                                      if k not in ("workload", "seed", "trace")}
        kind = "per_layer" if env["trace"] else "end_to_end"
        seeds[env["workload"]][kind].append(env["seed"])
        for name, entry in record["metrics"].items():
            values[(env["workload"], kind)][name].append(entry["value"])
    workloads = {}
    for (workload, kind), metrics in sorted(values.items()):
        out = workloads.setdefault(workload, {})
        out[kind] = {"seeds": sorted(seeds[workload][kind]), "metrics": {}}
        for name, vals in metrics.items():
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            out[kind]["metrics"][name] = {"median": statistics.median(vals),
                                          "q1": q[0], "q3": q[2], "runs": len(vals)}
    return {"environment": environment, "workloads": workloads}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(OUT_DIR.glob("*-trace[01].json"))]
    if not records:
        print(f"no result files in {OUT_DIR}", file=sys.stderr)
        return 1
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{argv[0]}.json"
    path.write_text(json.dumps(summarize(records), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
