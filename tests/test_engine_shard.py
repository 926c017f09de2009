"""Tests for the multi-host shard fan-out: host-spec parsing, block
partitioning, and the determinism edge cases the DESIGN.md §14 contract
names -- 1 shard == serial, shards > blocks, mid-run shard death with
re-dispatch, banded blocks that dispatch to different kernels -- plus
a real-HTTP round trip through ``ServiceThread`` daemons."""

import numpy as np
import pytest

from repro.core.perspector import Perspector, PerspectorConfig
from repro.engine import (
    Engine,
    NoShardsAlive,
    ShardCoordinator,
    ShardHost,
    SubsetSearch,
    execute_block,
    parse_shard_hosts,
)
from repro.engine.shard import make_blocks, partition_ranges
from repro.engine.bench import build_subject
from repro.qa.determinism import diff_scorecards, diff_search_results


class TestParseShardHosts:
    def test_none_and_empty_mean_no_shards(self):
        assert parse_shard_hosts(None) == ()
        assert parse_shard_hosts("") == ()
        assert parse_shard_hosts([]) == ()

    def test_comma_string_spec(self):
        hosts = parse_shard_hosts("alpha:9100, beta:9101")
        assert hosts == (ShardHost("alpha", 9100), ShardHost("beta", 9101))
        assert hosts[0].address == "alpha:9100"

    def test_iterable_of_mixed_entry_forms(self):
        hosts = parse_shard_hosts(
            [ShardHost("a", 1), "b:2", ("c", 3), ("d", "4")])
        assert [h.address for h in hosts] == ["a:1", "b:2", "c:3", "d:4"]

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_shard_hosts("no-port-here")
        with pytest.raises(ValueError, match="non-integer port"):
            parse_shard_hosts("host:http")
        with pytest.raises(ValueError, match="out of range"):
            parse_shard_hosts("host:0")
        with pytest.raises(ValueError, match="out of range"):
            parse_shard_hosts([("host", 70000)])


class TestPartitioning:
    def test_ranges_cover_contiguously_and_balance(self):
        ranges = partition_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]
        sizes = [stop - start for start, stop in ranges]
        assert max(sizes) - min(sizes) <= 1

    def test_more_parts_than_items_clamps(self):
        assert partition_ranges(2, 8) == [(0, 1), (1, 2)]
        assert partition_ranges(1, 4) == [(0, 1)]

    def test_block_ids_are_stable_and_ordered(self):
        payloads = [{"x": 1}, {"x": 2}]
        first = make_blocks("dtw-pairs", payloads)
        again = make_blocks("dtw-pairs", payloads)
        assert [b.block_id for b in first] == [b.block_id for b in again]
        assert first[0].block_id.startswith("dtw-pairs:0000:")
        assert first[1].block_id.startswith("dtw-pairs:0001:")
        assert first[0].block_id != first[1].block_id


class LoopbackClient:
    """A shard client that runs blocks on an in-process engine --
    the wire protocol without the socket."""

    def __init__(self, engine, fail_after=None):
        self.engine = engine
        self.fail_after = fail_after
        self.calls = 0

    def shard_exec(self, block):
        if self.fail_after is not None and self.calls >= self.fail_after:
            raise OSError("injected shard death")
        self.calls += 1
        return execute_block(self.engine, block)


def _loopback_coordinator(n_shards, fail_after=None):
    """A coordinator over n in-process fake shards. Returns
    (coordinator, clients); the caller closes the coordinator."""
    fail_after = fail_after or {}
    clients = {}
    for index in range(n_shards):
        engine = Engine(workers=1)
        clients[f"shard{index}:{9000 + index}"] = LoopbackClient(
            engine, fail_after=fail_after.get(index))
    coordinator = ShardCoordinator(
        list(clients), client_factory=lambda h: clients[h.address])
    return coordinator, clients


def _series(n=12, length=48, seed=0):
    rng = np.random.default_rng(seed)
    return [np.cumsum(rng.standard_normal(length)) for _ in range(n)]


class TestLoopbackDeterminism:
    def test_one_shard_equals_serial(self):
        series = _series()
        with Engine(workers=1) as engine:
            serial = engine.dtw_matrix(series)
        coordinator, clients = _loopback_coordinator(1)
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = engine.dtw_matrix(series)
        assert sharded.tobytes() == serial.tobytes()
        assert sum(c.calls for c in clients.values()) > 0

    def test_three_shards_equal_serial_and_share_the_blocks(self):
        series = _series()
        with Engine(workers=1) as engine:
            serial = engine.dtw_matrix(series)
        coordinator, clients = _loopback_coordinator(3)
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = engine.dtw_matrix(series)
        assert sharded.tobytes() == serial.tobytes()
        # Deterministic round-robin over 3 alive shards x 2 blocks each.
        assert [c.calls for c in clients.values()] == [2, 2, 2]

    def test_more_shards_than_blocks(self):
        series = _series(n=3)  # 3 pairs, far fewer blocks than shards
        with Engine(workers=1) as engine:
            serial = engine.dtw_matrix(series)
        coordinator, clients = _loopback_coordinator(8)
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = engine.dtw_matrix(series)
        assert sharded.tobytes() == serial.tobytes()
        assert sum(c.calls for c in clients.values()) == 3

    def test_mid_run_death_redispatches_bit_identically(self):
        series = _series(n=16)
        with Engine(workers=1) as engine:
            serial = engine.dtw_matrix(series)
        # Shard 0 dies after its first block; survivors absorb the rest.
        coordinator, clients = _loopback_coordinator(
            3, fail_after={0: 1})
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = engine.dtw_matrix(series)
        assert sharded.tobytes() == serial.tobytes()
        values = coordinator.metrics.snapshot().as_dict()
        assert values["shard_failures"] == 1
        assert values["shard_blocks_redispatched"] >= 1
        assert coordinator.alive() == [1, 2]

    def test_all_shards_dead_raises(self):
        coordinator, _clients = _loopback_coordinator(
            2, fail_after={0: 0, 1: 0})
        with Engine(workers=1, shards=coordinator) as engine:
            with pytest.raises(NoShardsAlive, match="2 shard"):
                engine.dtw_matrix(_series())

    def test_banded_blocks_equal_serial(self):
        # Serially all 10 pairs run one banded batch; across 5 shards
        # the blocks are single pairs, which dispatch to the scalar
        # kernel. The kernel choice must not show in the bits.
        series = _series(n=5)
        with Engine(workers=1) as engine:
            serial = engine.dtw_matrix(series, band=3)
        coordinator, clients = _loopback_coordinator(5)
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = engine.dtw_matrix(series, band=3)
        assert sharded.tobytes() == serial.tobytes()
        assert sum(c.calls for c in clients.values()) > 0

    def test_sharded_scorecard_matches_serial(self):
        matrix = build_subject(seed=5, n_workloads=10, n_events=3,
                               length=32)
        config = PerspectorConfig(seed=3)
        with Engine(workers=1) as engine:
            serial = Perspector(config=config,
                                engine=engine).score(matrix)
        coordinator, _clients = _loopback_coordinator(2)
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = Perspector(config=config,
                                 engine=engine).score(matrix)
        assert diff_scorecards(serial, sharded) == []

    def test_sharded_subset_search_matches_serial(self):
        matrix = build_subject(seed=2, n_workloads=10, n_events=3,
                               length=32)
        with Engine(workers=1) as engine:
            serial = SubsetSearch(matrix, 4, seed=1,
                                  engine=engine).search(6, method="lhs")
        coordinator, clients = _loopback_coordinator(2)
        with Engine(workers=1, shards=coordinator) as engine:
            sharded = SubsetSearch(matrix, 4, seed=1,
                                   engine=engine).search(6, method="lhs")
        assert diff_search_results(serial, sharded) == []
        assert sum(c.calls for c in clients.values()) > 0


class TestShardOverHTTP:
    @pytest.fixture(scope="class")
    def daemons(self):
        from dataclasses import replace

        from repro.experiments.runner import ExperimentConfig
        from repro.service import ServiceClient, ServiceThread

        config = replace(ExperimentConfig.quick(), workers=1)
        threads = [ServiceThread(config).start() for _ in range(2)]
        spec = ",".join(f"{t.host}:{t.port}" for t in threads)
        yield threads, spec
        for thread in threads:
            ServiceClient(host=thread.host, port=thread.port,
                          retries=0).shutdown()
            thread.join()

    def test_dtw_matrix_over_real_daemons_is_bit_identical(self, daemons):
        _threads, spec = daemons
        series = _series()
        with Engine(workers=1) as engine:
            serial = engine.dtw_matrix(series)
        with Engine(workers=1, shards=spec) as engine:
            sharded = engine.dtw_matrix(series)
            values = engine.metrics.snapshot().as_dict()
        assert sharded.tobytes() == serial.tobytes()
        assert values["shard_blocks_dispatched"] > 0
        assert values["shard_dispatches"] >= 1

    def test_health_advertises_shard_ops(self, daemons):
        from repro.service import ServiceClient

        threads, _spec = daemons
        health = ServiceClient(host=threads[0].host,
                               port=threads[0].port).health()
        assert health["shard_ops"] == ["dtw-pairs", "subset-batch"]

    def test_unknown_op_is_a_400(self, daemons):
        from repro.service import ServiceClient, ServiceError

        threads, _spec = daemons
        client = ServiceClient(host=threads[0].host, port=threads[0].port)
        with pytest.raises(ServiceError) as err:
            client.shard_exec({"id": "x", "op": "nonsense", "payload": {}})
        assert err.value.status == 400
