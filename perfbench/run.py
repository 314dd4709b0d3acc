"""Run one workload of the multibrot benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and needs nothing installed.  With ``--trace 0`` it makes one untimed
warm-up pass of the workload, repeats timed passes within ``--seconds``
and reports the end-to-end metrics of ``BENCHMARK.json`` as medians over
the timed passes; with ``--trace 1`` it does the same with pairs of an
untraced and a traced pass and reports the per-layer metrics and the
tracing overhead.  Every operation's output is checked against
``reference.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also writes ``perfbench/out/<workload>-seed<N>-trace<T>.json``
with the environment, every per-pass value and the error rate, and a
traced run writes its spans next to it as ``.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, trace, workloads  # noqa: E402

SETUP_SAMPLES = 15
# calibrate.py runs this many times after the warm-up and after each timed pass.
CALIBRATION_REPEATS = 3
SETUP_CODE = "import multibrot.cli as c; c.build_parser()"
EXIT_MISSING = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def reset_program_state(coeffs) -> None:
    """Make each pass start like a fresh invocation: drop the Q_n memo."""
    memo = getattr(coeffs, "_poly_cache", None)
    if memo is not None:
        memo.clear()


def cpu_seconds() -> float:
    """User+system CPU of this process and every reaped child (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Largest resident set of this process or any reaped child, in MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def setup_seconds(samples: int = SETUP_SAMPLES) -> tuple[float, int]:
    """Median wall time for a fresh interpreter to import the package and
    build the CLI parser, after one unmeasured run that writes bytecode;
    also the number of samples that failed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=False)
    times, failed = [], 0
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=False)
        times.append(time.perf_counter() - start)
        failed += done.returncode != 0
    return statistics.median(times), failed


def run_pass(cli, coeffs, ops, reference, tracer=None, pass_index=0) -> dict:
    reset_program_state(coeffs)
    if tracer is not None:
        tracer.reset()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    latencies, failed = [], 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.request = f"{pass_index}:{i}"
        elapsed, ok, _ = workloads.run_operation(cli, op, reference)
        latencies.append(elapsed)
        failed += not ok
    return {"wall_s": time.perf_counter() - start, "cpu_s": cpu_seconds() - cpu0,
            "latencies_s": latencies, "attempted": len(ops), "failed": failed}


def repeat_passes(seconds, one_pass, duration) -> tuple[object, list]:
    """An untimed warm-up pass, then timed passes for ``seconds`` in all.

    A timed pass always runs; another starts only if a pass of median
    length still ends before the deadline, so a run does not overshoot.
    ``duration(result)`` is how long that call of ``one_pass`` took.
    Returns the warm-up result and the timed results.
    """
    deadline = time.perf_counter() + seconds
    warmup = one_pass(-1)
    passes = [one_pass(0)]
    while (time.perf_counter() + statistics.median(map(duration, passes))
           < deadline):
        passes.append(one_pass(len(passes)))
    return warmup, passes


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, setup_s) -> dict:
    """Pass and request times in calibration units, and in seconds.

    Each timed pass is divided by the median time of ``calibrate.py``'s
    computation in the blocks run just before and just after it; the host's
    speed drifts by tens of percent from minute to minute, and the ratio
    cancels most of that drift.  Medians and percentiles are then taken
    over the passes (or, for requests, over all requests) of the run.
    """
    cal = [statistics.median(p["calibration_s"]) for p in passes]
    latencies = [x for p in passes for x in p["latencies_s"]]
    relative = [x / c for p, c in zip(passes, cal) for x in p["latencies_s"]]
    return {
        "wall_cal": statistics.median(p["wall_s"] / c for p, c in zip(passes, cal)),
        "cpu_cal": statistics.median(p["cpu_s"] / c for p, c in zip(passes, cal)),
        "request_p50_cal": statistics.median(relative),
        "request_p90_cal": percentile(relative, 90),
        "peak_rss_mib": peak_rss_mib(),
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": percentile(latencies, 90),
        "calibration_s": statistics.median(cal),
    }


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def environment(args, exact) -> dict:
    return {
        "python": platform.python_version(),
        "arithmetic_backend": "gmpy2.mpq" if exact.GMP_BACKEND else "fractions.Fraction",
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "multibrot" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'multibrot'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return EXIT_MISSING
    sys.path.insert(0, str(ROOT / "src"))
    from multibrot import cli, coeffs, exact

    # One CPU for this process and every process it starts (pool workers,
    # set-up samples), so the calibration runs on the CPU the work ran on:
    # on a shared 2-vCPU host the second vCPU's speed, which a calibration
    # on the first cannot see, moved two-worker pass times by up to half.
    # Pools keep their default size and start-up cost, but share the CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    specs = metric_specs()
    reference = workloads.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    attempted = failed = 0

    table_path = None
    if args.workload == "small-requests":
        table_path = OUT_DIR / "small-requests-table.csv"
        _, ok, text = workloads.run_operation(cli, workloads.SETUP_TABLE, reference)
        table_path.write_text(text, encoding="utf-8")
        attempted, failed = 1, int(not ok)

    def ops(i):
        """The operations of pass i.  A traced run repeats pass 0's, so that
        its counts repeat exactly from run to run."""
        return workloads.operations(args.workload, args.seed, table_path,
                                    0 if args.trace else i)

    def untraced(i):
        return run_pass(cli, coeffs, ops(i), reference, pass_index=i)

    blocks = []

    def calibrated(i):
        """An untraced pass, then a block of calibration runs; a timed pass
        keeps the blocks just before and just after it."""
        start = time.perf_counter()
        result = untraced(i)
        blocks.append(calibrate.seconds(CALIBRATION_REPEATS))
        if i >= 0:
            result["calibration_s"] = blocks[-2] + blocks[-1]
        result["cycle_s"] = time.perf_counter() - start
        return result

    if args.trace:
        tracer = trace.Tracer()
        per_pass, records = [], []

        def pair(i):
            """An untraced pass, then a traced one: the overhead is measured
            under the same host conditions as the layers."""
            plain = untraced(2 * i)
            tracer.install()
            try:
                traced = run_pass(cli, coeffs, ops(i), reference, tracer, 2 * i + 1)
            finally:
                tracer.uninstall()
            if i >= 0:
                per_pass.append(trace.layer_metrics(tracer))
                records.append(list(tracer.records()))
            return plain, traced

        warmup, pairs = repeat_passes(args.seconds, pair,
                                      lambda both: both[0]["wall_s"] + both[1]["wall_s"])
        passes = [p for both in pairs for p in both]
        checked = list(warmup) + passes
        trace.write_records(stem.with_suffix(".spans.jsonl"), records)
        metrics = trace.median_metrics(per_pass)
        metrics["trace.overhead"] = (statistics.median(t["wall_s"] for _, t in pairs)
                                     / statistics.median(u["wall_s"] for u, _ in pairs))
        names = specs["per_layer"]
    else:
        setup_s, setup_failed = setup_seconds()
        attempted += SETUP_SAMPLES
        failed += setup_failed
        warmup, passes = repeat_passes(args.seconds, calibrated, lambda p: p["cycle_s"])
        checked = [warmup] + passes
        metrics = end_to_end(passes, setup_s)
        names = specs["end_to_end"]

    attempted += sum(p["attempted"] for p in checked)
    failed += sum(p["failed"] for p in checked)
    error_rate = failed / attempted
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names}
    # The seconds behind the calibrated metrics: stored and shown, not bounded.
    unbounded = {name: {"value": metrics[name], "unit": "s"} for name in
                 ("wall_s", "cpu_s", "request_p50_s", "request_p90_s", "calibration_s")
                 if name in metrics}

    env = environment(args, exact)
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "metrics": reported, "seconds": unbounded,
                   "error_rate": error_rate,
                   "attempted": attempted, "failed": failed,
                   "passes": passes}, fh, indent=1)
    request_samples = sum(len(p["latencies_s"]) for p in passes)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"request_samples={request_samples} backend={env['arithmetic_backend']} "
          f"nproc={env['nproc']} python={env['python']}")
    for name, entry in {**reported, **unbounded}.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {error_rate:.6g} failed/attempted ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
