"""``served``: a seeded request mix against a warm scoring daemon.

``perspector --quick serve --port 0`` runs in its own process. Set-up
starts it and sends each distinct request once, which simulates the
four suites and fills the daemon's in-memory kernel cache. Each round
then has two closed-loop callers in this process (one per core) send a
seeded sequence of those requests -- ``score`` of parsec, lmbench,
nbench and sgxgauge under ``all``/``llc``/``tlb``, ``compare`` of the
four under each focus, LHS ``subset --size 4`` of each -- with a ``GET
/v1/metrics`` every 20th request. Every request hits the warm cache,
so the HTTP layer, the queue at the single scoring thread, wire
encoding and cache lookups carry the load.

spec17 and ``--search`` are left out: a cold spec17 simulation would
dominate set-up, and a warm search (~220 ms against 5-15 ms for the
rest) would make the latency percentiles bimodal.

A request's latency runs from sending it to holding the decoded
response. Checks: every response carries the same score bits as the
set-up (cold) response to the same request, with only the
``details.engine`` counters free to differ, and the daemon's request
counters equal the requests sent.
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from run import Op

IN_PROCESS = False

SUITES = {"full": ("parsec", "lmbench", "nbench", "sgxgauge"),
          "tiny": ("nbench", "sgxgauge")}
REQUESTS = {"full": 3000, "tiny": 60}
FOCUSES = ("all", "llc", "tlb")
METRICS_EVERY = 20
CALLERS = 2
SUBSET_SIZE = 4
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 60

_BANNER = re.compile(r"listening on http://([^:\s]+):(\d+)")


@dataclass
class Daemon:
    proc: subprocess.Popen
    host: str
    port: int
    log: str
    sent: Counter = field(default_factory=Counter)
    lock: threading.Lock = field(default_factory=threading.Lock)
    cold: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=120.0,
                             connect_timeout=10.0, retries=0)


@dataclass
class State:
    setup_times: list
    daemon: Daemon
    distinct: list


@dataclass
class Round:
    wall_s: float
    latencies_ms: list
    ops: list
    layers: tuple = ()
    #: The traced pass checks its own daemon's counters before
    #: stopping it.
    count_op: Op = None


def _distinct(size):
    suites = SUITES[size]
    out = [("score", s, f) for s in suites for f in FOCUSES]
    out += [("compare", suites, f) for f in FOCUSES]
    out += [("subset", s, SUBSET_SIZE) for s in suites]
    return out


_ENDPOINT = {"score": "POST /v1/score", "compare": "POST /v1/compare",
             "subset": "POST /v1/subset", "metrics": "GET /v1/metrics",
             "health": "GET /v1/health"}


def _send(daemon, client, request):
    kind = request[0]
    with daemon.lock:  # two callers count into one tally
        daemon.sent[_ENDPOINT[kind]] += 1
    if kind == "score":
        return client.score(request[1], focus=request[2])
    if kind == "compare":
        return client.compare(list(request[1]), focus=request[2])
    if kind == "subset":
        return client.subset(request[1], size=request[2])
    if kind == "health":
        return client.health()
    return client.metrics()


def _decode(kind, payload):
    """What a caller holds once the response is usable: floats rebuilt
    from their bit patterns."""
    from repro.service import protocol

    if kind == "score":
        return protocol.decode_scorecard(payload)
    if kind == "compare":
        return [protocol.decode_scorecard(c) for c in payload["scorecards"]]
    if kind == "subset":
        return {name: protocol.bits_float(bits)
                for name, bits in payload["subset_score_bits"].items()}
    return payload["values"]


def _without_engine(payload):
    """The payload minus the per-request engine counters."""
    def strip(card):
        card = dict(card)
        card["details"] = {k: v for k, v in card["details"].items()
                           if k != "engine"}
        return card

    if "scorecards" in payload:
        payload = dict(payload)
        payload["scorecards"] = [strip(c) for c in payload["scorecards"]]
        return payload
    if "details" in payload:
        return strip(payload)
    return payload


def _start(ctx, trace_dir=None):
    log = os.path.join(ctx.work, f"serve-{time.time_ns()}.log")
    with open(log, "w") as err:
        proc = subprocess.Popen(
            ctx.cli(trace_dir) + ["--quick", "serve", "--port", "0"],
            cwd=ctx.work, env=ctx.env(trace_dir),
            stdout=subprocess.DEVNULL, stderr=err)
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        with open(log) as f:
            match = _BANNER.search(f.read())
        if match:
            return Daemon(proc, match.group(1), int(match.group(2)), log)
        if proc.poll() is not None:
            break
        time.sleep(0.05)
    _stop(Daemon(proc, "", 0, log))
    with open(log) as f:
        raise RuntimeError(f"scoring daemon did not start: {f.read()[-800:]}")


def _stop(daemon):
    """Ask the daemon to drain and exit; wait for it, by force if it
    does not."""
    if daemon.proc.poll() is None and daemon.port:
        try:
            daemon.client().shutdown()
        except (OSError, RuntimeError):
            pass  # already gone: the wait below reaps it
    try:
        daemon.proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        daemon.proc.terminate()
        try:
            daemon.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            daemon.proc.kill()
            daemon.proc.wait()


def _warm_up(daemon, distinct):
    """Send each distinct request once, keeping the cold responses."""
    client = daemon.client()
    for request in distinct:
        daemon.cold[request] = _without_engine(_send(daemon, client, request))
    daemon.metrics = _send(daemon, client, ("metrics",))["values"]


def setup(ctx):
    start = time.perf_counter()
    distinct = _distinct(ctx.size)
    daemon = _start(ctx)
    try:
        _warm_up(daemon, distinct)
    except BaseException:
        _stop(daemon)
        raise
    return State([time.perf_counter() - start], daemon, distinct)


def _sequence(ctx, distinct):
    rng = np.random.default_rng([ctx.seed, 11])
    out = []
    for i in range(REQUESTS[ctx.size]):
        if (i + 1) % METRICS_EVERY == 0:
            out.append(("metrics",))
        else:
            out.append(distinct[int(rng.integers(len(distinct)))])
    return out


def _caller(daemon, requests, results):
    client = daemon.client()
    for request in requests:
        op = Op(f"{request[0]}:{request[1] if len(request) > 1 else ''}")
        start = time.perf_counter()
        try:
            payload = _send(daemon, client, request)
            _decode(request[0], payload)
        except (OSError, RuntimeError, KeyError, ValueError) as exc:
            op.check(False, f"{type(exc).__name__}: {exc}")
            results.append((op, (time.perf_counter() - start) * 1e3))
            continue
        results.append((op, (time.perf_counter() - start) * 1e3))
        if request[0] != "metrics":
            op.check(_without_engine(payload) == daemon.cold[request],
                     "warm response differs from the cold one beyond "
                     "the engine counters")


def _requests(ctx, state, daemon):
    sequence = _sequence(ctx, state.distinct)
    shares = [sequence[c::CALLERS] for c in range(CALLERS)]
    results = [[] for _ in range(CALLERS)]
    threads = [threading.Thread(target=_caller, args=(daemon, s, r))
               for s, r in zip(shares, results)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    pairs = [p for r in results for p in r]
    return Round(wall_s=wall, latencies_ms=[ms for _op, ms in pairs],
                 ops=[op for op, _ms in pairs])


def round(ctx, state):
    return _requests(ctx, state, state.daemon)


def _count_check(daemon):
    """The daemon counted exactly the requests sent to it."""
    op = Op("metrics-count")
    client = daemon.client()
    before = daemon.metrics
    values = _send(daemon, client, ("metrics",))["values"]
    op.check(values.get("service_requests") == sum(daemon.sent.values()),
             f"daemon counted {values.get('service_requests')} requests, "
             f"{sum(daemon.sent.values())} were sent")
    health = _send(daemon, client, ("health",))
    op.check(health["endpoint_requests"] == dict(daemon.sent),
             f"per-endpoint counts {health['endpoint_requests']} != sent "
             f"{dict(daemon.sent)}")
    daemon.metrics = values
    delta = {k: values.get(k, 0) - before.get(k, 0)
             for k in ("cache_hits", "cache_misses", "disk_hits")}
    return op, delta


def check(ctx, state, result):
    if result.count_op is not None:
        return [result.count_op]
    return [_count_check(state.daemon)[0]]


# -- traced pass --------------------------------------------------------------


def traced_pass(ctx, state):
    """Set-up and one round against a daemon started through the
    tracing launcher; client-side decoding is traced in this process."""
    import tracing

    trace_dir = os.path.join(ctx.work, "trace")
    os.makedirs(trace_dir)
    recorder = tracing.install()
    daemon = _start(ctx, trace_dir)
    try:
        _warm_up(daemon, state.distinct)
        result = _requests(ctx, state, daemon)
        result.count_op, delta = _count_check(daemon)
        client_payload = recorder.as_dict()
    finally:
        _stop(daemon)
        tracing.uninstall()
    payloads = [client_payload]
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as f:
            payloads.append(json.load(f))
    result.layers = tracing.layer_metrics(payloads, engine_delta=delta)
    return result


def teardown(ctx, state):
    _stop(state.daemon)
