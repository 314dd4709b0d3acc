"""Spans around calls into the package's layers, recorded from outside it.

``Tracer.install`` replaces each traced public function in every
``multibrot`` module that binds it (``coeffs`` binds
``rational_power_tail``; ``cli``, ``checks`` and ``coeffs`` bind
``laurent_coefficient``), and swaps ``concurrent.futures.ProcessPoolExecutor``
for a subclass that runs each task under the tracer in the worker and
returns the worker's spans with the task's result.  Nothing in ``src/``
changes; ``uninstall`` puts every original object back.

A span is ``(id, name, start, end, parent, request, attrs)``.  Calls that
happen thousands of times per request (``binomial_general``,
``padic_valuation``, tuples yielded by ``partition_index_tuples``) are
not recorded one by one: they are summed per (name, parent span) into
``(name, parent, request, calls, seconds)`` aggregates, which keeps the
trace small and the overhead low while self times stay exact.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import functools
import itertools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from statistics import median_low

# Forked pool workers find the tracer here; only one can be installed.
_active: "Tracer | None" = None

# (span name, defining module, attribute, kind)
SPAN, HOT, COUNT_YIELDS = "span", "hot", "count_yields"
SITES = (
    ("cli.main", "multibrot.cli", "main", SPAN),
    ("series.iterate_parameter_polynomial", "multibrot.series",
     "iterate_parameter_polynomial", SPAN),
    ("series.rational_power_tail", "multibrot.series", "rational_power_tail", SPAN),
    ("coeffs.laurent_coefficient", "multibrot.coeffs", "laurent_coefficient", SPAN),
    ("coeffs.coefficient_by_residue", "multibrot.coeffs", "coefficient_by_residue", SPAN),
    ("coeffs.coefficient_by_partition_sum", "multibrot.coeffs",
     "coefficient_by_partition_sum", SPAN),
    ("coeffs.partition_index_tuples", "multibrot.coeffs", "partition_index_tuples",
     COUNT_YIELDS),
    ("exact.binomial_general", "multibrot.exact", "binomial_general", HOT),
    ("exact.padic_valuation", "multibrot.exact", "padic_valuation", HOT),
    ("checks.suite_verdicts", "multibrot.checks", "suite_verdicts", SPAN),
    ("checks.format_report", "multibrot.checks", "format_report", SPAN),
    ("cache.parse_table", "multibrot.cache", "parse_table", SPAN),
    ("cache.format_table", "multibrot.cache", "format_table", SPAN),
)
POOL_SPAN = "cli.pool"
TASK_SPAN = "cli.pool_task"


def _numbers(x):
    """Every exact number inside a result: rationals, ints, or containers of them."""
    if isinstance(x, int) or hasattr(x, "denominator"):
        yield x
    elif hasattr(x, "tail"):
        yield from _numbers(x.tail)
    elif isinstance(x, (tuple, list)):
        for item in x:
            yield from _numbers(item)


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(int(x.numerator)).bit_length(), int(x.denominator).bit_length())


def _tail_attrs(args, kwargs, result):
    nums = list(_numbers(result))
    return {"terms": len(nums), "bits": max((_bits(v) for v in nums), default=0)}


def _coefficient_attrs(args, kwargs, result):
    from multibrot.coeffs import METHOD_SPECIAL

    return {"shortcut": int(getattr(result, "method", None) == METHOD_SPECIAL)}


def _suite_attrs(args, kwargs, result):
    return {"verdicts": len(result), "failed": sum(1 for v in result if not v.passed)}


def _parse_attrs(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return {"bytes": len(text.encode("utf-8"))}


def _format_attrs(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


ATTRS = {
    "series.rational_power_tail": _tail_attrs,
    "coeffs.laurent_coefficient": _coefficient_attrs,
    "checks.suite_verdicts": _suite_attrs,
    "cache.parse_table": _parse_attrs,
    "cache.format_table": _format_attrs,
}


class Tracer:
    """In-memory span recorder for one benchmark process and its pool workers."""

    def __init__(self):
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []
        self.request = None
        self.reset()

    # -- recording ------------------------------------------------------

    def reset(self):
        """Drop everything recorded so far (called at the start of a pass)."""
        self.spans: list[tuple] = []
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.pools: list[dict] = []
        self._stack: list[str] = []

    def open(self, name: str):
        span_id = f"{os.getpid()}.{next(self._ids)}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return (span_id, name, time.perf_counter(), parent, self.request)

    def close(self, handle, attrs=None) -> float:
        """Record the span opened as ``handle``; returns its duration."""
        end = time.perf_counter()
        span_id, name, start, parent, request = handle
        while self._stack and self._stack.pop() != span_id:
            pass
        self.spans.append((span_id, name, start, end, parent, request, attrs))
        return end - start

    def add(self, name: str, calls: int, seconds: float):
        parent = self._stack[-1] if self._stack else None
        entry = self.aggregates[(name, parent, self.request)]
        entry[0] += calls
        entry[1] += seconds

    # -- patching -------------------------------------------------------

    def install(self):
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        for name, module_name, attr, kind in SITES:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, kind)
            for module_key, module in list(sys.modules.items()):
                if (module_key == "multibrot" or module_key.startswith("multibrot.")) \
                        and getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        self._patched.append((concurrent.futures, "ProcessPoolExecutor",
                              concurrent.futures.process.ProcessPoolExecutor))
        concurrent.futures.ProcessPoolExecutor = TracedPool
        _active = self

    def uninstall(self):
        global _active
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        _active = None

    def _wrap(self, name, fn, kind):
        if kind == HOT:
            @functools.wraps(fn)
            def hot(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add(name, 1, time.perf_counter() - start)
            return hot
        if kind == COUNT_YIELDS:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                finally:
                    self.add(name, count, 0.0)
            return counting
        attrs_of = ATTRS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            handle = self.open(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    attrs = attrs_of(args, kwargs, result)
                return result
            finally:
                self.close(handle, attrs)
        return spanned

    # -- output -------------------------------------------------------

    def records(self):
        """Spans and aggregates as JSON-ready dicts."""
        for span_id, name, start, end, parent, request, attrs in self.spans:
            yield {"id": span_id, "name": name, "start": start, "end": end,
                   "parent": parent, "request": request, "attrs": attrs}
        for (name, parent, request), (calls, seconds) in self.aggregates.items():
            yield {"aggregate": name, "parent": parent, "request": request,
                   "calls": calls, "seconds": seconds}
        for pool in self.pools:
            yield {"pool": pool}


def _traced_call(fn, args, parent, request):
    """Pool task run in a worker: returns the result with the worker's spans."""
    tracer = _active
    if tracer is None:  # a worker that did not inherit the tracer (not forked)
        return fn(*args), [], []
    tracer.reset()
    tracer.request = request
    tracer._stack.append(parent)
    handle = tracer.open(TASK_SPAN)
    try:
        result = fn(*args)
    finally:
        tracer.close(handle)
    return result, tracer.spans, list(tracer.aggregates.items())


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class TracedPool(concurrent.futures.process.ProcessPoolExecutor):
    """Process pool that records a span over its life and merges worker spans.

    Worker CPU is the growth of the parent's reaped-children CPU between
    construction and shutdown, which covers worker start-up and idle polling
    as well as the tasks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tracer = _active
        self._cpu0 = _children_cpu()
        self._span = self._tracer.open(POOL_SPAN)
        self._stats = {"workers": self._max_workers, "tasks": 0}

    def map(self, fn, *iterables, timeout=None, chunksize=1):
        tasks = list(zip(*iterables))
        self._stats["tasks"] += len(tasks)
        n = len(tasks)
        results = super().map(_traced_call, [fn] * n, tasks, [self._span[0]] * n,
                              [self._tracer.request] * n, timeout=timeout,
                              chunksize=chunksize)
        return self._merge(results)

    def _merge(self, results):
        for result, spans, aggregates in results:
            self._tracer.spans.extend(spans)
            for key, (calls, seconds) in aggregates:
                entry = self._tracer.aggregates[key]
                entry[0] += calls
                entry[1] += seconds
            yield result

    def shutdown(self, wait=True, *, cancel_futures=False):
        super().shutdown(wait=wait, cancel_futures=cancel_futures)
        if self._span is not None:
            wall = self._tracer.close(self._span)
            self._stats.update(wall=wall, worker_cpu=_children_cpu() - self._cpu0)
            self._tracer.pools.append(self._stats)
            self._span = None


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything recorded since the last ``reset``.

    ``*_s`` metrics are seconds summed over the parent and all pool
    workers.  ``coeffs.residue_self_s``, ``coeffs.partition_s`` and
    ``checks.suite_self_s`` are self times: the span's duration minus the
    time of the traced calls it made.
    """
    child_time: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, parent, request, attrs in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    agg_calls: dict[str, int] = defaultdict(int)
    agg_seconds: dict[str, float] = defaultdict(float)
    for (name, parent, request), (calls, seconds) in tracer.aggregates.items():
        agg_calls[name] += calls
        agg_seconds[name] += seconds
        if parent is not None:
            child_time[parent] += seconds

    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr_sum: dict[tuple[str, str], int] = defaultdict(int)
    peak_bits = 0
    for span_id, name, start, end, parent, request, attrs in tracer.spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
        for key, value in (attrs or {}).items():
            attr_sum[(name, key)] += value
            if key == "bits":
                peak_bits = max(peak_bits, value)

    coefficient_calls = calls["coeffs.laurent_coefficient"]
    pool_wall = sum(p["wall"] for p in tracer.pools)
    pool_capacity = sum(p["wall"] * p["workers"] for p in tracer.pools)
    worker_cpu = sum(p["worker_cpu"] for p in tracer.pools)
    return {
        "series.tail_s": total["series.rational_power_tail"],
        "series.tail_calls": calls["series.rational_power_tail"],
        "series.tail_terms": attr_sum[("series.rational_power_tail", "terms")],
        "series.peak_operand_bits": peak_bits,
        "series.qn_build_s": total["series.iterate_parameter_polynomial"],
        "coeffs.residue_self_s": self_time["coeffs.coefficient_by_residue"],
        "coeffs.coefficient_calls": coefficient_calls,
        "coeffs.shortcut_ratio": (
            attr_sum[("coeffs.laurent_coefficient", "shortcut")] / coefficient_calls
            if coefficient_calls else 0.0),
        "coeffs.partition_s": self_time["coeffs.coefficient_by_partition_sum"],
        "coeffs.partition_tuples": agg_calls["coeffs.partition_index_tuples"],
        "exact.binomial_s": agg_seconds["exact.binomial_general"],
        "exact.binomial_calls": agg_calls["exact.binomial_general"],
        "exact.padic_s": agg_seconds["exact.padic_valuation"],
        "exact.padic_calls": agg_calls["exact.padic_valuation"],
        "checks.suite_self_s": self_time["checks.suite_verdicts"],
        "checks.report_s": total["checks.format_report"],
        "checks.verdicts": attr_sum[("checks.suite_verdicts", "verdicts")],
        "checks.failed_verdicts": attr_sum[("checks.suite_verdicts", "failed")],
        "cache.parse_s": total["cache.parse_table"],
        "cache.bytes_read": attr_sum[("cache.parse_table", "bytes")],
        "cache.format_s": total["cache.format_table"],
        "cache.bytes_written": attr_sum[("cache.format_table", "bytes")],
        "cli.pool_starts": len(tracer.pools),
        "cli.pool_tasks": sum(p["tasks"] for p in tracer.pools),
        "cli.pool_s": pool_wall,
        "cli.worker_cpu_s": worker_cpu,
        "cli.pool_idle_frac": 1.0 - worker_cpu / pool_capacity if pool_capacity else 0.0,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes, taken as an observed value so that
    counts, which are equal on every pass, stay integers."""
    return {name: median_low(p[name] for p in per_pass) for name in per_pass[0]}


def write_records(path, passes) -> None:
    """Write one JSON line per span, aggregate and pool, tagged with its pass."""
    with open(path, "w", encoding="utf-8") as fh:
        for index, records in enumerate(passes):
            for record in records:
                record["pass"] = index
                fh.write(json.dumps(record, sort_keys=True) + "\n")
