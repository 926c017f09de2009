"""Layer-by-layer tracing of the program from outside.

The traced run wraps the public entry points of each layer (and, where
a layer has no public seam, the one private method that marks its
boundary) with a span recorder that lives in this file. The program's
code is not changed: :func:`install` replaces attributes on already
imported classes and modules, and the processes the benchmark starts
(CLI, pool workers, daemon) install the same wrappers through
``launch.py``.

A span is ``(sid, parent, name, start_ns, end_ns)``, kept in memory per
process and written out as one JSON file when the process ends
(:func:`dump`). Counters ride along in the same file. The benchmark
process merges every file into the per-layer metrics
(:func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Modules that bind a wrapped function by name (``from module import
#: name``) and are not imported by :func:`install` itself; they must be
#: loaded before wrapping so their copies are replaced too.
BY_NAME_IMPORTERS = ("repro.cli", "repro.core.trend_score")


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        with self._lock:
            self._next += 1
            sid = self._next
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        nested = any(entry[1] == name for entry in stack)
        stack.append((sid, name))
        return sid, parent, name, time.perf_counter_ns(), nested

    def end(self, token):
        end = time.perf_counter_ns()
        self._stack().pop()
        sid, parent, name, start, _nested = token
        self.spans.append((sid, parent, name, start, end))

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    def as_dict(self):
        return {"pid": os.getpid(), "spans": self.spans,
                "counters": dict(self.counters)}


#: The process's recorder; ``None`` until :func:`install` runs.
RECORDER = None
_ORIGINALS = []


def _span_call(recorder, name, fn, after=None):
    """``fn`` wrapped in a span named ``name``; ``after(recorder,
    result, args)`` may add counters from the call's result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(token)
        if after is not None and not token[4]:
            # Counted once per outermost call: a wrapped kernel that
            # calls another wrapped kernel of the same layer (the DTW
            # pair kernels do) must not count its work twice.
            after(recorder, result, args)
        return result

    return wrapper


def _span_generator(recorder, name, fn, count_name):
    """A generator function whose every ``next()`` is a span: lazy
    trace synthesis is paid when the consumer pulls an item."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            token = recorder.begin(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                recorder.end(token)
            recorder.count(count_name)
            yield item

    return wrapper


def _replace(owner, attr, wrapper):
    original = getattr(owner, attr)
    _ORIGINALS.append((owner, attr, original))
    setattr(owner, attr, wrapper)
    # Copies bound by ``from module import name`` elsewhere.
    if inspect.ismodule(owner):
        for module in list(sys.modules.values()):
            if module is None or module is owner:
                continue
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    _ORIGINALS.append((module, name, original))
                    setattr(module, name, wrapper)


def _wrap(owner, attr, name, after=None):
    fn = getattr(owner, attr)
    _replace(owner, attr, _span_call(RECORDER, name, fn, after))


# -- counters taken from results --------------------------------------------


_SAMPLE_FIELDS = (
    "l1_loads", "l1_stores", "l1_load_misses", "l1_store_misses",
    "l2_accesses", "l2_misses", "llc_loads", "llc_stores",
    "llc_load_misses", "llc_store_misses", "dtlb_loads", "dtlb_stores",
    "dtlb_load_misses", "dtlb_store_misses", "branch_instructions",
    "branch_misses",
)


def _after_interval(recorder, sample, args):
    recorder.count("uarch.mem_ops", len(args[1].addresses))
    for field in _SAMPLE_FIELDS:
        recorder.count("sample." + field, getattr(sample, field))


def _after_pairs(recorder, result, args):
    recorder.count("engine.dtw_pairs", len(args[1]))


def _after_map(recorder, result, args):
    if args[0].workers > 1 and len(result) > 1:
        recorder.count("engine.pool_tasks", len(result))


def _after_response(recorder, result, args):
    recorder.count("service.responses")
    recorder.count("service.response_bytes", len(result))


def _after_workload(recorder, result, args):
    recorder.count("perf.workloads")


def _after_candidate(recorder, result, args):
    recorder.count("subset_eval.candidates")


# -- installation -------------------------------------------------------------


_ENGINES = []


def _track_engine(init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        _ENGINES.append(self)

    return wrapper


def _wrap_queue(original):
    """``ScoringService._run_scoring``: the time a job waits for the
    single scoring thread, from submission to start."""

    @functools.wraps(original)
    async def wrapper(self, fn, *args):
        submitted = time.perf_counter_ns()

        def timed(*a):
            RECORDER.count("service.queue_wait_ns",
                           time.perf_counter_ns() - submitted)
            RECORDER.count("service.jobs")
            return fn(*a)

        return await original(self, timed, *args)

    return wrapper


def install():
    """Wrap every layer's entry points in this process (idempotent)."""
    global RECORDER
    if RECORDER is not None:
        return RECORDER
    import importlib

    for name in BY_NAME_IMPORTERS:
        importlib.import_module(name)
    RECORDER = Recorder()
    from repro.core import composer, normalization, report, subset
    from repro.engine import engine, parallel, subset_eval
    from repro.experiments import runner
    from repro.perf import session
    from repro.service import app, http, protocol
    from repro.stats import backend
    from repro.uarch import branch, cpu, hierarchy, memory, tlb
    from repro.workloads import base

    _replace(base.Workload, "intervals", _span_generator(
        RECORDER, "workloads.synth", base.Workload.intervals,
        "workloads.intervals"))
    _wrap(cpu.CPU, "execute_interval", "uarch.busy", _after_interval)
    _wrap(hierarchy.CacheHierarchy, "access_many", "uarch.hierarchy")
    _wrap(tlb.TwoLevelTLB, "access_many", "uarch.tlb")
    _wrap(branch._PredictorBase, "run_trace", "uarch.branch")
    _wrap(memory.DemandPager, "touch_many", "uarch.pager")
    _wrap(session.PerfSession, "run_workload", "perf.measure",
          _after_workload)
    _wrap(runner, "measure_suites", "experiments.measure")

    _replace(engine.Engine, "__init__", _track_engine(engine.Engine.__init__))
    _wrap(engine.Engine, "trend_score", "engine.trend")
    _wrap(engine.Engine, "cluster_score", "engine.cluster")
    _wrap(engine.Engine, "coverage_score", "engine.coverage")
    _wrap(engine.Engine, "spread_score", "engine.spread")
    for kernel in ("batched_pair_distances", "banded_pair_distances",
                   "bucketed_pair_distances"):
        _wrap(backend, kernel, "engine.dtw", _after_pairs)
    _wrap(parallel.ParallelExecutor, "map", "engine.pool_map", _after_map)
    _wrap(subset_eval.SubsetEvaluator, "__init__", "subset_eval.precompute")
    _wrap(subset_eval.SubsetEvaluator, "evaluate", "subset_eval.evaluate",
          _after_candidate)

    _wrap(normalization, "normalize_series_set", "core.normalize")
    _wrap(composer.SuiteComposer, "compose", "core.compose")
    _wrap(report.SuiteComparison, "table", "core.render")
    _wrap(report.SuiteScorecard, "__str__", "core.render")
    _wrap(subset.SubsetReport, "__str__", "core.render")
    _wrap(subset_eval.SubsetSearchResult, "__str__", "core.render")

    for fn in ("encode_scorecard", "encode_comparison",
               "encode_subset_report", "encode_search_result"):
        _wrap(protocol, fn, "service.encode")
    _wrap(protocol, "decode_scorecard", "service.decode")
    _wrap(http, "response_bytes", "service.respond", _after_response)
    for job in ("_score_sync", "_compare_sync", "_subset_sync"):
        _wrap(app.ScoringService, job, "service.scoring")
    _replace(app.ScoringService, "_run_scoring",
             _wrap_queue(app.ScoringService._run_scoring))
    return RECORDER


def uninstall():
    """Put every wrapped attribute back (the benchmark process traces
    one pass, then runs its checks untraced)."""
    global RECORDER
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)
    RECORDER = None
    _ENGINES.clear()


def engine_counters():
    """Summed engine registry counters of every Engine this process
    built (CLI engines and the fresh per-task engines of pool workers)."""
    totals = defaultdict(float)
    for engine in _ENGINES:
        for name, value in engine.metrics.snapshot().as_dict().items():
            if isinstance(value, (int, float)):
                totals[name] += value
    return dict(totals)


def dump(path):
    """Write this process's spans and counters to ``path``."""
    if RECORDER is None:
        return
    payload = RECORDER.as_dict()
    payload["engine"] = engine_counters()
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
    os.replace(tmp, path)


# -- aggregation ----------------------------------------------------------------


def _inclusive(spans):
    """Per name: total time of the spans not nested inside a span of the
    same name (so recursion or wrapper chains count once), and their
    number."""
    by_sid = {s[0]: s for s in spans}
    totals = defaultdict(int)
    counts = defaultdict(int)
    for sid, parent, name, start, end in spans:
        p = parent
        nested = False
        while p:
            ps = by_sid.get(p)
            if ps is None:
                break
            if ps[2] == name:
                nested = True
                break
            p = ps[1]
        if not nested:
            totals[name] += end - start
            counts[name] += 1
    return totals, counts


def self_times(spans):
    """Per name: span time minus the time its direct children cover."""
    child = defaultdict(int)
    for _sid, parent, _name, start, end in spans:
        if parent:
            child[parent] += end - start
    out = defaultdict(int)
    for sid, _parent, name, start, end in spans:
        out[name] += (end - start) - child.get(sid, 0)
    return out


def merge(payloads):
    """Per-name inclusive/self nanoseconds, span counts, and counters
    summed over every process's payload."""
    inclusive = defaultdict(int)
    selfs = defaultdict(int)
    calls = defaultdict(int)
    counters = defaultdict(float)
    engine = defaultdict(float)
    for payload in payloads:
        spans = [tuple(s) for s in payload["spans"]]
        tot, cnt = _inclusive(spans)
        for k, v in tot.items():
            inclusive[k] += v
        for k, v in cnt.items():
            calls[k] += v
        for k, v in self_times(spans).items():
            selfs[k] += v
        for k, v in payload["counters"].items():
            counters[k] += v
        for k, v in payload.get("engine", {}).items():
            engine[k] += v
    return inclusive, selfs, calls, counters, engine


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(payloads, engine_delta=None):
    """The ``per_layer`` metrics of BENCHMARK.json from merged payloads.

    ``engine_delta`` replaces the engine registry counters when the
    engine lives in a process that writes no payload (the daemon's
    counters come from ``GET /v1/metrics``)."""
    inclusive, selfs, calls, c, engine = merge(payloads)
    if engine_delta is not None:
        engine = engine_delta

    def s(name):
        return inclusive.get(name, 0) / 1e9

    m = {}
    m["workloads.synth_s"] = (s("workloads.synth"), "s")
    m["workloads.intervals"] = (c.get("workloads.intervals", 0), "count")
    m["uarch.busy_s"] = (s("uarch.busy"), "s")
    for part in ("hierarchy", "tlb", "branch", "pager"):
        m[f"uarch.{part}_s"] = (s(f"uarch.{part}"), "s")
    mem_ops = c.get("uarch.mem_ops", 0)
    m["uarch.mem_ops"] = (mem_ops, "count")
    m["uarch.mem_ops_per_s"] = (_ratio(mem_ops, s("uarch.busy")), "1/s")

    def rate(misses, accesses):
        return _ratio(sum(c.get("sample." + f, 0) for f in misses),
                      sum(c.get("sample." + f, 0) for f in accesses))

    m["uarch.l1d_miss_rate"] = (rate(
        ("l1_load_misses", "l1_store_misses"), ("l1_loads", "l1_stores")),
        "ratio")
    m["uarch.l2_miss_rate"] = (rate(("l2_misses",), ("l2_accesses",)),
                               "ratio")
    m["uarch.llc_miss_rate"] = (rate(
        ("llc_load_misses", "llc_store_misses"),
        ("llc_loads", "llc_stores")), "ratio")
    m["uarch.dtlb_miss_rate"] = (rate(
        ("dtlb_load_misses", "dtlb_store_misses"),
        ("dtlb_loads", "dtlb_stores")), "ratio")
    m["uarch.branch_miss_rate"] = (rate(
        ("branch_misses",), ("branch_instructions",)), "ratio")
    m["perf.measure_s"] = (s("perf.measure"), "s")
    m["perf.self_s"] = (selfs.get("perf.measure", 0) / 1e9, "s")
    m["perf.workloads"] = (c.get("perf.workloads", 0), "count")
    m["experiments.measure_s"] = (s("experiments.measure"), "s")

    hits = engine.get("cache_hits", 0)
    lookups = hits + engine.get("cache_misses", 0)
    m["engine.cache_lookups"] = (lookups, "count")
    m["engine.cache_hits"] = (hits, "count")
    m["engine.hit_rate"] = (_ratio(hits, lookups), "ratio")
    m["engine.disk_hits"] = (engine.get("disk_hits", 0), "count")
    m["engine.pool_tasks"] = (c.get("engine.pool_tasks", 0), "count")
    for kernel in ("trend", "cluster", "coverage", "spread"):
        m[f"engine.{kernel}_s"] = (s(f"engine.{kernel}"), "s")
    m["engine.dtw_pairs"] = (c.get("engine.dtw_pairs", 0), "count")

    m["subset_eval.precompute_s"] = (s("subset_eval.precompute"), "s")
    m["subset_eval.evaluate_s"] = (s("subset_eval.evaluate"), "s")
    m["subset_eval.candidates_per_s"] = (_ratio(
        c.get("subset_eval.candidates", 0), s("subset_eval.evaluate")),
        "1/s")
    m["core.normalize_s"] = (s("core.normalize"), "s")
    m["core.compose_s"] = (s("core.compose"), "s")
    m["core.render_s"] = (s("core.render"), "s")

    m["service.encode_s"] = (s("service.encode"), "s")
    m["service.decode_s"] = (s("service.decode"), "s")
    m["service.response_kb"] = (_ratio(c.get("service.response_bytes", 0),
                                       c.get("service.responses", 0))
                                / 1024.0, "KiB")
    m["service.scoring_s"] = (s("service.scoring"), "s")
    m["service.queue_wait_ms"] = (_ratio(c.get("service.queue_wait_ns", 0),
                                         c.get("service.jobs", 0)) / 1e6,
                                  "ms")
    return m, selfs, calls


def self_time_table(selfs, calls):
    """Human-readable self time and span count per span name."""
    rows = sorted(selfs.items(), key=lambda kv: -kv[1])
    lines = [f"{'span':<24} {'self_s':>10} {'spans':>9}"]
    for name, ns in rows:
        lines.append(f"{name:<24} {ns / 1e9:>10.4f} {calls.get(name, 0):>9}")
    return "\n".join(lines)
