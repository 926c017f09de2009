"""Multi-host sharded fan-out for the scoring engine (DESIGN.md §14).

:class:`ParallelExecutor` tops out at one machine's cores. This module
scales the two embarrassingly-parallel hot paths -- per-event all-pairs
DTW and subset-search candidate evaluation -- across machines by using
already-running ``repro serve`` daemons as shard workers:

* the **coordinator** (:class:`ShardCoordinator`) partitions the work
  into blocks with stable ids -- contiguous pair ranges for
  ``dtw-pairs``, contiguous candidate ranges for ``subset-batch`` --
  and reassembles results strictly in input order;
* each **shard** is a plain scoring daemon; ``POST /v1/shard/exec``
  runs one block via :func:`execute_block` on the daemon's engine.
  Operands travel bit-exactly (``encode_array`` hex buffers, scores as
  IEEE-754 bit patterns), so the wire adds nothing to the numerics;
* the **disk cache** (``--cache-dir`` on shared storage) is the common
  warm tier: every daemon and the coordinator address it by the same
  content keys, so work any shard has done once is a disk hit for all.

Bit-identity argument: block partitioning is a pure function of the
input (never of shard count, shard health or timing), the per-block
kernels are the exact functions the serial path runs
(:func:`repro.stats.backend.pair_distances`, :class:`SubsetEvaluator`;
DESIGN.md §13), and reassembly
is by input index. Shard assignment and failure-driven re-dispatch
therefore only decide *where* a block runs, never what it returns --
``repro qa --shards N`` enforces this against the serial oracle,
including a kill-one-shard variant.

Failure model: a shard whose request fails (connection refused, timed
out, HTTP error) is marked dead for the rest of the coordinator's
life; its unfinished blocks re-dispatch round-robin to the survivors.
When every shard is dead, :class:`NoShardsAlive` is raised carrying
the last per-shard errors. Shard daemons must **not** themselves be
configured with ``--shard-hosts`` (a worker that re-shards its blocks
could recurse into its own coordinator and deadlock); ``repro serve``
strips the flag.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer, span
from repro.stats.backend import pair_distances

#: Block operations a shard daemon can execute (POST /v1/shard/exec).
OPS = ("dtw-pairs", "subset-batch")

#: Blocks carved per alive shard per dispatch. A little
#: over-decomposition lets a fast shard absorb a straggler's backlog
#: on re-dispatch without re-partitioning the input.
BLOCKS_PER_SHARD = 2

#: Client knobs for shard traffic: generous read timeout (a cold
#: full-preset block can take a while), fast connection failure.
DEFAULT_TIMEOUT = 600.0
CONNECT_TIMEOUT = 10.0


class ShardError(RuntimeError):
    """A shard fan-out could not complete."""


class NoShardsAlive(ShardError):
    """Every configured shard has failed; nowhere left to re-dispatch."""


@dataclass(frozen=True)
class ShardHost:
    """One shard daemon's address."""

    host: str
    port: int

    @property
    def address(self):
        return f"{self.host}:{self.port}"


def parse_shard_hosts(spec):
    """Normalize a shard-host spec into a tuple of :class:`ShardHost`.

    Accepts ``None`` / ``""`` (no shards), a ``"host:port,host:port"``
    string (the ``--shard-hosts`` / ``$REPRO_SHARDS`` format), or an
    iterable of :class:`ShardHost` / ``"host:port"`` strings /
    ``(host, port)`` pairs.
    """
    if not spec:
        return ()
    if isinstance(spec, str):
        spec = [part for part in spec.split(",") if part.strip()]
    hosts = []
    for entry in spec:
        if isinstance(entry, ShardHost):
            hosts.append(entry)
            continue
        if isinstance(entry, str):
            text = entry.strip()
            host, sep, port_text = text.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"shard host {text!r} is not of the form host:port")
            entry = (host, port_text)
        host, port = entry
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ValueError(
                f"shard host {host!r} has a non-integer port {port!r}"
            ) from None
        if not 0 < port < 65536:
            raise ValueError(f"shard host {host!r} port {port} out of range")
        hosts.append(ShardHost(str(host), port))
    return tuple(hosts)


@dataclass(frozen=True)
class ShardBlock:
    """One unit of shard work: a stable id, an op, a JSON-safe payload."""

    block_id: str
    op: str
    payload: dict = field(repr=False)

    def as_dict(self):
        return {"id": self.block_id, "op": self.op, "payload": self.payload}


def make_blocks(op, payloads):
    """Wrap payloads as :class:`ShardBlock` with stable ids.

    The id is ``op:sequence:digest8`` -- the sequence index pins the
    reassembly slot, the payload content digest makes the id stable
    across retries and readable in traces.
    """
    blocks = []
    for index, payload in enumerate(payloads):
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()[:8]
        blocks.append(ShardBlock(f"{op}:{index:04d}:{digest}", op, payload))
    return blocks


def partition_ranges(n_items, n_parts):
    """Contiguous ``(start, stop)`` ranges covering ``range(n_items)``.

    Deterministic, never-empty parts, balanced to within one item --
    the partition is a pure function of ``(n_items, n_parts)`` so the
    block boundaries never depend on shard health or timing.
    """
    n_parts = max(1, min(int(n_parts), int(n_items)))
    base, extra = divmod(int(n_items), n_parts)
    ranges = []
    start = 0
    for part in range(n_parts):
        stop = start + base + (1 if part < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class ShardCoordinator:
    """Partition work into blocks, execute them on shard daemons,
    reassemble in input order (bit-identical at any shard count).

    Parameters
    ----------
    hosts:
        Anything :func:`parse_shard_hosts` accepts; at least one host.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to hang the shard
        counters off (the owning engine passes its own); a private one
        is created when omitted.
    client_factory:
        ``ShardHost -> client`` override (tests inject loopback clients
        that skip HTTP); the default builds a
        :class:`~repro.service.client.ServiceClient` per shard.
    """

    _RETRYABLE = (OSError, RuntimeError)

    def __init__(self, hosts, metrics=None, client_factory=None,
                 timeout=DEFAULT_TIMEOUT, connect_timeout=CONNECT_TIMEOUT,
                 blocks_per_shard=BLOCKS_PER_SHARD):
        hosts = parse_shard_hosts(hosts)
        if not hosts:
            raise ValueError("ShardCoordinator needs at least one host")
        if metrics is None:
            from repro.obs.metrics import MetricsRegistry
            metrics = MetricsRegistry()
        self.hosts = hosts
        self.metrics = metrics
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.blocks_per_shard = max(1, int(blocks_per_shard))
        self._client_factory = client_factory
        self._clients = {}
        self._dead = set()
        self._dispatches = metrics.counter("shard_dispatches")
        self._dispatched = metrics.counter("shard_blocks_dispatched")
        self._redispatched = metrics.counter("shard_blocks_redispatched")
        self._failures = metrics.counter("shard_failures")
        self._block_ms = metrics.histogram("shard_block_ms")
        self._stall_ms = metrics.histogram("shard_stall_ms")
        self._straggler_ms = metrics.histogram("shard_straggler_ms")
        self._shard_blocks = [metrics.counter(f"shard{index}_blocks")
                              for index in range(len(hosts))]

    # -- lifecycle ---------------------------------------------------------

    def alive(self):
        """Indices of shards not yet marked dead."""
        return [index for index in range(len(self.hosts))
                if index not in self._dead]

    def close(self):
        self._clients.clear()

    def _client(self, index):
        client = self._clients.get(index)
        if client is None:
            host = self.hosts[index]
            if self._client_factory is not None:
                client = self._client_factory(host)
            else:
                from repro.service.client import ServiceClient
                client = ServiceClient(
                    host=host.host, port=host.port, timeout=self.timeout,
                    connect_timeout=self.connect_timeout, retries=1,
                )
            self._clients[index] = client
        return client

    # -- dispatch ----------------------------------------------------------

    def run(self, blocks):
        """Execute blocks on the shards; results in block order.

        Assignment is deterministic round-robin over the currently
        alive shards, one dispatch thread per shard draining its queue
        in order. A shard that fails mid-wave is marked dead and its
        unfinished blocks re-dispatch to the survivors in a follow-up
        wave. Neither assignment nor failure order can change a result
        bit: every shard computes with bit-identical kernels and
        reassembly is by block index, so retries only move *where* a
        block runs.
        """
        blocks = list(blocks)
        if not blocks:
            return []
        self._dispatches.inc()
        results = [None] * len(blocks)
        pending = list(range(len(blocks)))
        local = Tracer()
        errors = []
        first_wave = True
        with span("shard.dispatch", blocks=len(blocks),
                  shards=len(self.alive())) as dispatch:
            while pending:
                alive = self.alive()
                if not alive:
                    raise NoShardsAlive(
                        f"all {len(self.hosts)} shard(s) failed; last "
                        "errors: " + "; ".join(errors[-3:]))
                if not first_wave:
                    self._redispatched.inc(len(pending))
                queues = {index: [] for index in alive}
                for position, block_index in enumerate(pending):
                    queues[alive[position % len(alive)]].append(block_index)
                failures = {}
                with local.span("shard.wave", shards=len(alive)):
                    threads = [
                        threading.Thread(
                            target=self._drain,
                            args=(index, queue, blocks, results, local,
                                  failures),
                            name=f"repro-shard-{index}",
                        )
                        for index, queue in queues.items() if queue
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                wave_spans = local.drain()
                self._observe_wave(wave_spans)
                if obs_trace.enabled() and dispatch.sid is not None:
                    obs_trace.current_tracer().adopt(
                        [s for s in wave_spans if s.name == "shard.block"],
                        parent_sid=dispatch.sid)
                for index, exc in sorted(failures.items()):
                    self._dead.add(index)
                    self._failures.inc()
                    errors.append(f"{self.hosts[index].address}: {exc}")
                pending = [b for b in pending if results[b] is None]
                first_wave = False
        return results

    def _drain(self, index, queue, blocks, results, tracer, failures):
        """One shard's wave worker: execute its queue in order, stop at
        the first failure (recorded for the re-dispatch pass)."""
        address = self.hosts[index].address
        client = self._client(index)
        for block_index in queue:
            block = blocks[block_index]
            with tracer.span("shard.block", shard=address,
                             block=block.block_id, op=block.op) as sp:
                try:
                    result = client.shard_exec(block.as_dict())
                except self._RETRYABLE as exc:
                    sp.set(failed=True)
                    failures[index] = exc
                    return
            results[block_index] = result
            self._dispatched.inc()
            self._shard_blocks[index].inc()

    def _observe_wave(self, wave_spans):
        """Derive the dispatch/stall/straggler metrics from the wave's
        span records (span durations, never raw clock reads)."""
        wave = next((s for s in wave_spans if s.name == "shard.wave"), None)
        wall_ns = wave.duration_ns if wave is not None else 0
        busy = {}
        for record in wave_spans:
            if record.name != "shard.block":
                continue
            self._block_ms.observe(record.duration_ns / 1e6)
            shard = record.attrs.get("shard", "?")
            busy[shard] = busy.get(shard, 0) + record.duration_ns
        if wall_ns:
            for busy_ns in busy.values():
                self._stall_ms.observe(max(0, wall_ns - busy_ns) / 1e6)
        if len(busy) >= 2:
            ordered = sorted(busy.values())
            self._straggler_ms.observe((ordered[-1] - ordered[0]) / 1e6)

    def _target_blocks(self):
        return max(1, len(self.alive())) * self.blocks_per_shard

    # -- operations --------------------------------------------------------

    def dtw_pairs(self, arrays, idx_i, idx_j, band):
        """The requested pair distances, computed across the shards.

        Bit-identical to ``pair_distances(arrays, idx_i, idx_j,
        band)`` run locally: contiguous pair ranges, per-block series
        remapped to the indices the block references (smaller payloads,
        same floats), values returned as IEEE-754 bit patterns.
        """
        from repro.service.protocol import bits_float, encode_array

        n_pairs = len(idx_i)
        payloads = []
        ranges = partition_ranges(n_pairs, self._target_blocks())
        for start, stop in ranges:
            block_i = [int(x) for x in idx_i[start:stop]]
            block_j = [int(x) for x in idx_j[start:stop]]
            used = sorted(set(block_i) | set(block_j))
            remap = {g: k for k, g in enumerate(used)}
            payloads.append({
                "series": [
                    encode_array(np.asarray(arrays[g], dtype=float))
                    for g in used
                ],
                "pairs_i": [remap[g] for g in block_i],
                "pairs_j": [remap[g] for g in block_j],
                "band": band,
            })
        results = self.run(make_blocks("dtw-pairs", payloads))
        values = []
        for result in results:
            values.extend(bits_float(bits) for bits in result["value_bits"])
        return np.asarray(values, dtype=float)

    def subset_batches(self, matrix, candidates, seed, full_scores,
                       n_points, band, cdf):
        """SubsetReports for the candidates, evaluated across shards.

        Contiguous candidate ranges; each shard daemon builds the same
        single-process :class:`SubsetEvaluator` the serial path uses
        and returns the subset-score bit patterns plus the trend-path
        record, from which the coordinator rebuilds each report via
        :func:`~repro.core.subset.report_from_scores` -- the exact
        assembly the local evaluator runs, so reports are bit-identical.
        """
        from repro.core.subset import report_from_scores
        from repro.service.protocol import (bits_float, encode_counter_matrix,
                                            float_bits)

        candidates = [tuple(names) for names in candidates]
        matrix_payload = encode_counter_matrix(matrix)
        full_bits = {str(name): float_bits(value)
                     for name, value in full_scores.items()}
        ranges = partition_ranges(len(candidates), self._target_blocks())
        payloads = [
            {
                "matrix": matrix_payload,
                "candidates": [list(names)
                               for names in candidates[start:stop]],
                "seed": int(seed),
                "full_score_bits": full_bits,
                "n_points": int(n_points),
                "band": band,
                "cdf": cdf,
            }
            for start, stop in ranges
        ]
        results = self.run(make_blocks("subset-batch", payloads))
        reports = []
        for (start, stop), result in zip(ranges, results):
            encoded_reports = result["reports"]
            if len(encoded_reports) != stop - start:
                raise ShardError(
                    f"shard returned {len(encoded_reports)} reports for a "
                    f"{stop - start}-candidate block")
            for names, encoded in zip(candidates[start:stop],
                                      encoded_reports):
                subset_scores = {
                    name: bits_float(bits)
                    for name, bits in encoded["subset_score_bits"].items()
                }
                details = {}
                trend_paths = encoded.get("trend_paths")
                if trend_paths is not None:
                    details["trend_paths"] = dict(trend_paths)
                reports.append(report_from_scores(
                    names, full_scores, subset_scores, details=details))
        return reports


# -- daemon-side block execution --------------------------------------------


def execute_block(engine, block):
    """Run one shard block against a local engine.

    The daemon-side implementation of ``POST /v1/shard/exec`` (also
    what the loopback test clients call directly). ``engine`` is the
    daemon's long-lived :class:`~repro.engine.engine.Engine`; its
    caches apply.
    """
    if isinstance(block, ShardBlock):
        block = block.as_dict()
    op = block.get("op")
    if op not in OPS:
        raise ShardError(
            f"unknown shard op {op!r}; expected one of {list(OPS)}")
    payload = block.get("payload") or {}
    with span("shard.exec", op=str(op), block=str(block.get("id"))):
        if op == "dtw-pairs":
            return _exec_dtw_pairs(engine, payload)
        return _exec_subset_batch(engine, payload)


def _exec_dtw_pairs(engine, payload):
    """Pair distances for one block: the serial kernel, on decoded
    bit-exact operands, values returned as bit patterns."""
    from repro.service.protocol import decode_array, float_bits
    from repro.stats.dtw import validate_series_list

    arrays = validate_series_list(
        [decode_array(entry) for entry in payload["series"]])
    idx_i = np.asarray(payload["pairs_i"], dtype=int)
    idx_j = np.asarray(payload["pairs_j"], dtype=int)
    if idx_i.shape != idx_j.shape:
        raise ShardError("pairs_i and pairs_j length mismatch")
    values = pair_distances(arrays, idx_i, idx_j, payload.get("band"))
    return {"value_bits": [float_bits(value) for value in values]}


def _exec_subset_batch(engine, payload):
    """Evaluate one candidate batch with the daemon's engine -- the
    same single-process :class:`SubsetEvaluator` path the serial search
    runs, so the returned score bits are bit-identical to it."""
    from repro.engine.subset_eval import SubsetEvaluator
    from repro.service.protocol import (bits_float, decode_counter_matrix,
                                        float_bits)

    matrix = decode_counter_matrix(payload["matrix"])
    full_scores = {
        name: bits_float(bits)
        for name, bits in payload["full_score_bits"].items()
    }
    evaluator = SubsetEvaluator(
        matrix, seed=int(payload["seed"]), engine=engine,
        full_scores=full_scores, n_points=int(payload["n_points"]),
        band=payload.get("band"), cdf=payload["cdf"],
    )
    reports = []
    for names in payload["candidates"]:
        report = evaluator.evaluate(tuple(names))
        reports.append({
            "subset_score_bits": {
                name: float_bits(value)
                for name, value in report.subset_scores.items()
            },
            "trend_paths": report.details.get("trend_paths"),
        })
    return {"reports": reports}
