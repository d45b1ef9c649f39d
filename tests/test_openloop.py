"""Tests for the vectorized open-loop load engine (repro.workloads.openloop).

The engine's determinism story rests on one contract: every vectorized
draw consumes the named RNG stream to exactly the values the scalar
per-op loop would have drawn.  The equivalence tests here pin that
contract (uniforms, coins, Zipf ranks, Poisson counts, striped-shard
assignment); the rest covers the admission-control units (token bucket,
bounded queues, shed accounting), the shared retry policy, and an
end-to-end engine run against a real sharded service — bounded
in-flight invariant, SLO histograms, and same-seed reproducibility.
"""

import math
import random
import time

import numpy as np
import pytest

from repro.errors import ReproError
from repro.net import Fabric
from repro.obs import collecting
from repro.shard import HashRing, ShardedKvService
from repro.sim import MS, SEC, Simulator
from repro.sim.rng import RngStreams
from repro.workloads import (
    WORKLOADS,
    AdmissionControl,
    ArrivalGenerator,
    OpenLoopEngine,
    RetryPolicy,
    StripedZipfSampler,
    TokenBucket,
    UniformSampler,
    ZipfSampler,
    flip_batch,
    poisson_count,
    uniform_batch,
)


class TestUniformBatch:
    def test_matches_scalar_stream_exactly(self):
        batch = uniform_batch(random.Random(42), 1000)
        scalar = [random.Random(42).random() for _ in range(1)]  # warm check
        rng = random.Random(42)
        expected = [rng.random() for _ in range(1000)]
        assert batch.tolist() == expected
        assert scalar[0] == expected[0]

    def test_interleaving_batch_and_scalar_stays_aligned(self):
        """A batch consumes the generator exactly like n scalar calls,
        so mixing the two on one stream never desynchronises it."""
        a, b = random.Random(7), random.Random(7)
        got = []
        got.extend(uniform_batch(a, 10).tolist())
        got.append(a.random())
        got.extend(uniform_batch(a, 5).tolist())
        expected = [b.random() for _ in range(16)]
        assert got == expected

    def test_empty_batch_leaves_stream_untouched(self):
        a, b = random.Random(3), random.Random(3)
        assert len(uniform_batch(a, 0)) == 0
        assert a.random() == b.random()

    def test_flip_batch_matches_scalar_coins(self):
        a, b = random.Random(9), random.Random(9)
        flips = flip_batch(a, 500, 0.1)
        expected = [b.random() < 0.1 for _ in range(500)]
        assert flips.tolist() == expected


class TestSampleBatch:
    def test_zipf_batch_matches_scalar_samples(self):
        sampler = ZipfSampler(10_000, theta=0.99)
        a, b = random.Random(11), random.Random(11)
        batch = sampler.sample_batch(a, 2_000)
        expected = [sampler.sample(b) for _ in range(2_000)]
        assert batch.tolist() == expected

    def test_base_sampler_batch_matches_scalar(self):
        sampler = UniformSampler(512)
        a, b = random.Random(13), random.Random(13)
        batch = sampler.sample_batch(a, 300)
        expected = [sampler.sample(b) for _ in range(300)]
        assert batch.tolist() == expected


def scalar_poisson(rng, lam):
    """Reference chunked-Knuth sampler, one rng.random() per event."""
    total = 0
    remaining = float(lam)
    while remaining > 0.0:
        step = min(remaining, 500.0)
        remaining -= step
        threshold = math.exp(-step)
        product = 1.0
        count = 0
        while True:
            product *= rng.random()
            if product <= threshold:
                break
            count += 1
        total += count
    return total


class TestPoissonCount:
    @pytest.mark.parametrize("lam", [0.3, 2.0, 47.25, 256.0, 500.0])
    def test_count_matches_scalar_knuth(self, lam):
        """Single-chunk rates (lam <= 500, every per-window rate the
        engine actually draws): same seed, same count — only the number
        of uniforms consumed differs, because the vectorized blocks
        over-draw past the stopping point."""
        for seed in range(5):
            vec = poisson_count(random.Random(seed), lam)
            ref = scalar_poisson(random.Random(seed), lam)
            assert vec == ref, (lam, seed)

    def test_multi_chunk_rates_are_deterministic_and_sane(self):
        """Above the chunk cap the counts are chunk-wise Knuth on a
        shared stream (the over-draw shifts where chunk 2 starts, so a
        scalar replay diverges); pin determinism and the mean instead."""
        lam = 1234.5
        first = poisson_count(random.Random(8), lam)
        assert first == poisson_count(random.Random(8), lam)
        rng = random.Random(9)
        draws = [poisson_count(rng, lam) for _ in range(100)]
        mean = sum(draws) / len(draws)
        assert abs(mean - lam) < 5.0 * math.sqrt(lam / len(draws)) + 1.0

    def test_zero_and_negative_rates(self):
        rng = random.Random(0)
        assert poisson_count(rng, 0.0) == 0
        assert poisson_count(rng, -1.0) == 0

    def test_mean_tracks_lambda(self):
        rng = random.Random(17)
        lam = 80.0
        draws = [poisson_count(rng, lam) for _ in range(400)]
        mean = sum(draws) / len(draws)
        assert abs(mean - lam) < 3.0 * math.sqrt(lam / len(draws)) + 1.0

    def test_deterministic(self):
        assert poisson_count(random.Random(5), 321.5) == poisson_count(
            random.Random(5), 321.5
        )


class TestStripedZipfSampler:
    def test_key_table_matches_scalar_nonce_walk(self):
        """Batched construction is an optimisation only: the table is
        byte-identical to walking nonce candidates one ring call at a
        time."""
        ring = HashRing(["alpha", "beta", "gamma"])
        sampler = StripedZipfSampler(90, ring)
        shards = ring.shards
        for rank in range(90):
            nonce = 0
            while True:
                candidate = b"key%018d.%04d" % (rank, nonce)
                if ring.shard_for(candidate) == shards[rank % 3]:
                    break
                nonce += 1
            assert sampler.key(rank) == candidate, rank

    def test_shard_index_batch_is_the_striping_invariant(self):
        ring = HashRing(["s0", "s1", "s2", "s3"])
        sampler = StripedZipfSampler(64, ring)
        ranks = np.arange(64, dtype=np.int64)
        owners = sampler.shard_index_batch(ranks)
        assert owners.tolist() == [r % 4 for r in range(64)]
        # ... and the invariant is real: the ring agrees key by key.
        for rank in range(64):
            assert ring.shard_for(sampler.key(rank)) == ring.shards[rank % 4]
        assert sampler.n_shards == 4
        assert sampler.shard_name(2) == ring.shards[2]


def make_generator(seed=21, n_shards=3, n_keys=300, n_clients=100_000):
    sim = Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=seed))
    ring = HashRing([f"s{i}" for i in range(n_shards)])
    sampler = StripedZipfSampler(n_keys, ring)
    generator = ArrivalGenerator(
        fabric, WORKLOADS["read-heavy"], sampler, n_clients, n_shards=n_shards
    )
    return generator, ring


class TestArrivalGenerator:
    def test_vectorized_batch_equals_scalar_batch(self):
        """The engine's hot path and the closed-loop per-op loop draw
        identical columns from identical seeds."""
        vec, _ = make_generator(seed=23)
        ref, ring = make_generator(seed=23)
        a = vec.batch(4_000)
        b = ref.scalar_batch(4_000)
        assert np.array_equal(a.ranks, b.ranks)
        assert np.array_equal(a.writes, b.writes)
        assert np.array_equal(a.shards, b.shards)
        assert np.array_equal(a.clients, b.clients)
        assert a.count == 4_000

    def test_scalar_batch_via_ring_walk_agrees(self):
        """Resolving shards the closed-loop way — render key, SHA-1,
        walk the ring — lands on the same shard column as rank % G."""
        vec, _ = make_generator(seed=29)
        ref, ring = make_generator(seed=29)
        a = vec.batch(500)
        b = ref.scalar_batch(500, ring=ring)
        assert np.array_equal(a.shards, b.shards)

    def test_vectorized_generation_is_10x_the_scalar_loop(self):
        """What makes a million-client population affordable: at equal
        columns, ``batch`` generates arrivals an order of magnitude
        faster than the closed-loop-style per-op loop (Zipf sample, coin,
        client draw, key render, SHA-1 ring walk).  Measured 19-25x; a
        fall back to per-op sampling reads ~1x.  The figMclients shape:
        two shards, a million clients, 4,096-arrival windows."""
        window, windows = 4_096, 8  # 32,768 arrivals per timed run
        shape = dict(seed=1, n_shards=2, n_keys=4_096, n_clients=1_000_000)
        vec, _ = make_generator(**shape)
        ref, ring = make_generator(**shape)
        a, b = vec.batch(window), ref.scalar_batch(window, ring=ring)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

        def timed(draw):
            started = time.perf_counter()
            for _ in range(windows):
                draw()
            return time.perf_counter() - started

        best = {"vector": math.inf, "scalar": math.inf}
        for _ in range(3):  # interleaved best-of-3: both sides see the same host
            best["vector"] = min(best["vector"], timed(lambda: vec.batch(window)))
            best["scalar"] = min(
                best["scalar"], timed(lambda: ref.scalar_batch(window, ring=ring))
            )
        assert best["scalar"] >= 10 * best["vector"], best

    def test_window_count_consumes_only_the_arrival_stream(self):
        gen_a, _ = make_generator(seed=31)
        gen_b, _ = make_generator(seed=31)
        gen_a.window_count(200.0)  # draws from "...:arrivals" only
        assert np.array_equal(gen_a.batch(100).ranks, gen_b.batch(100).ranks)

    def test_rejects_mismatched_striping(self):
        sim = Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=1))
        ring = HashRing(["s0", "s1"])
        sampler = StripedZipfSampler(10, ring)
        with pytest.raises(ValueError):
            ArrivalGenerator(fabric, WORKLOADS["mixed"], sampler, 10, n_shards=3)

    def test_rejects_empty_population(self):
        sim = Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=1))
        with pytest.raises(ValueError):
            ArrivalGenerator(fabric, WORKLOADS["mixed"], ZipfSampler(10), 0)


class TestTokenBucket:
    def test_starts_full_and_clamps_at_burst(self):
        bucket = TokenBucket(rate_per_sec=1000.0, burst=50.0)
        assert bucket.take(20) == 20
        bucket.refill(10 * SEC)  # way more than needed
        assert bucket.tokens == 50.0

    def test_take_is_bounded_by_tokens(self):
        bucket = TokenBucket(rate_per_sec=0.0, burst=10.0)
        assert bucket.take(25) == 10
        assert bucket.take(1) == 0

    def test_refill_rate(self):
        bucket = TokenBucket(rate_per_sec=1000.0, burst=1000.0)
        bucket.take(1000)
        bucket.refill(250 * MS)  # 0.25 s at 1000/s
        assert bucket.take(10_000) == 250

    def test_rejects_negative_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(-1.0, 10.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, -10.0)

    def test_admission_control_bucket(self):
        assert AdmissionControl().bucket() is None
        bucket = AdmissionControl(rate_ops_per_sec=2000.0).bucket()
        assert bucket.rate_per_sec == 2000.0
        assert bucket.burst == pytest.approx(100.0)  # 50 ms of rate
        explicit = AdmissionControl(rate_ops_per_sec=100.0, burst_ops=7.0).bucket()
        assert explicit.burst == 7.0


class FlakyError(ReproError):
    retryable = True


class FatalError(ReproError):
    retryable = False


def run_policy(policy, attempt):
    """Drive policy.execute() in a fresh simulator; returns (outcome, elapsed).

    *elapsed* is captured inside the process, right after the policy
    returns — it is exactly the simulated time the policy consumed.
    """
    sim = Simulator()
    box = {}

    def gen():
        box["outcome"] = yield from policy.execute(sim, attempt)
        box["elapsed"] = sim.now

    process = sim.spawn(gen())
    sim.run_until_settled(process, deadline=10 * SEC)
    assert process.settled
    if process.failed:
        raise process.exception
    return box["outcome"], box["elapsed"]


class TestRetryPolicy:
    def test_backoff_schedule_is_capped_exponential(self):
        policy = RetryPolicy(base_backoff_us=1 * MS, multiplier=2.0, cap_us=5 * MS)
        assert [policy.backoff_us(n) for n in range(5)] == [
            0.0,
            1 * MS,
            2 * MS,
            4 * MS,
            5 * MS,  # capped
        ]

    def test_success_adds_no_simulated_time(self):
        def attempt():
            return 7
            yield  # pragma: no cover — makes this a generator

        outcome, elapsed = run_policy(RetryPolicy(), attempt)
        assert outcome.ok and outcome.value == 7
        assert outcome.attempts == 1 and outcome.retries == 0
        assert elapsed == 0.0

    def test_retryable_error_retries_with_backoff_then_gives_up(self):
        calls = []

        def attempt():
            calls.append(1)
            raise FlakyError("still down")
            yield  # pragma: no cover

        policy = RetryPolicy(
            max_attempts=4, base_backoff_us=1 * MS, multiplier=2.0, cap_us=20 * MS
        )
        outcome, elapsed = run_policy(policy, attempt)
        assert not outcome.ok
        assert outcome.attempts == 4 and outcome.retries == 3
        assert isinstance(outcome.error, FlakyError)
        assert len(calls) == 4
        assert elapsed == (1 + 2 + 4) * MS  # backoff between attempts only

    def test_non_retryable_error_fails_immediately(self):
        def attempt():
            raise FatalError("no point")
            yield  # pragma: no cover

        outcome, elapsed = run_policy(RetryPolicy(max_attempts=5), attempt)
        assert not outcome.ok and outcome.attempts == 1
        assert isinstance(outcome.error, FatalError)
        assert elapsed == 0.0

    def test_recovers_after_transient_failures(self):
        state = {"left": 2}

        def attempt():
            if state["left"]:
                state["left"] -= 1
                raise FlakyError("transient")
            return "fine"
            yield  # pragma: no cover

        outcome, _ = run_policy(RetryPolicy(), attempt)
        assert outcome.ok and outcome.value == "fine"
        assert outcome.attempts == 3 and outcome.retries == 2

    def test_non_repro_errors_propagate(self):
        def attempt():
            raise RuntimeError("a bug, not a service condition")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            run_policy(RetryPolicy(), attempt)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_us=-1.0)


def run_engine(
    seed=41,
    offered=40_000.0,
    admission=None,
    measure_us=100 * MS,
    n_clients=50_000,
):
    """A short open-loop run against a live 2-shard service."""
    sim = Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=seed))
    service = ShardedKvService(fabric, shards=2, backups=1)
    service.start()
    sampler = StripedZipfSampler(256, service.ring)
    engine = OpenLoopEngine(
        fabric,
        service,
        WORKLOADS["mixed"],
        sampler,
        offered_ops_per_sec=offered,
        n_clients=n_clients,
        admission=admission or AdmissionControl(max_inflight=4, queue_limit=64),
    )
    sim.run(until=50 * MS)  # let coordinators come up
    engine.start()
    sim.run(until=100 * MS)  # warm the lanes
    engine.begin_measurement()
    sim.run(until=100 * MS + measure_us)
    engine.end_measurement()
    engine.stop()
    sim.run(until=150 * MS + measure_us)  # drain
    return engine


class TestOpenLoopEngine:
    def test_validation(self):
        sim = Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=1))
        service = ShardedKvService(fabric, shards=2, backups=1)
        sampler = StripedZipfSampler(16, service.ring)
        with pytest.raises(ValueError):
            OpenLoopEngine(
                fabric, service, WORKLOADS["mixed"], sampler, -1.0, 100
            )
        with pytest.raises(ValueError):
            OpenLoopEngine(
                fabric, service, WORKLOADS["mixed"], sampler, 1.0, 100, window_us=0
            )

    def test_underload_completes_without_shedding(self):
        with collecting() as registry:
            engine = run_engine()
        counts, shed = engine.counts, engine.shed
        assert counts["offered"] > 0
        assert counts["completed"] > 0.9 * counts["offered"]
        assert counts["errors"] == 0
        assert shed["throttle"] == 0 and shed["queue"] == 0
        # Both ops of the mixed workload flowed and were counted.
        assert engine.ops["read"] > 0 and engine.ops["write"] > 0
        assert counts["completed"] == engine.ops["read"] + engine.ops["write"]
        assert engine.achieved_ops_per_sec() > 0
        # A sizeable slice of the simulated population showed up.
        assert 0 < engine.clients_active <= engine.generator.n_clients
        # SLO histograms exist per shard with the promised percentiles.
        summary = engine.slo_summary()
        assert set(summary) == {g.name for g in engine.cluster.groups}
        for per_op in summary.values():
            for stats in per_op.values():
                assert {"p50", "p99", "p99.9"} <= set(stats)
                assert stats["count"] > 0
        # publish() lands the same numbers in the registry.
        engine.publish(registry)
        snap = registry.snapshot()
        assert snap["counters"]["openloop.completed"] == counts["completed"]

    def test_bounded_inflight_invariant(self):
        engine = run_engine(admission=AdmissionControl(max_inflight=3, queue_limit=64))
        peaks = engine.inflight_peaks()
        assert peaks  # one entry per shard lane
        for lane in engine.lanes:
            assert 0 < lane.inflight_peak <= 3, peaks
            assert lane.queued_peak <= 64

    def test_overload_sheds_on_the_queue(self):
        """Offered load far past the dispatch capacity: the bounded
        backlog sheds (counted, not silently deferred) and achieved
        stays pinned near capacity."""
        engine = run_engine(
            offered=400_000.0,
            admission=AdmissionControl(max_inflight=2, queue_limit=16),
        )
        assert engine.shed["queue"] > 0
        assert engine.counts["admitted"] < engine.counts["offered"]
        assert engine.counts["completed"] < engine.counts["offered"] * 0.8

    def test_token_bucket_sheds_with_reason_throttle(self):
        engine = run_engine(
            offered=100_000.0,
            admission=AdmissionControl(
                max_inflight=4, queue_limit=512, rate_ops_per_sec=20_000.0
            ),
        )
        assert engine.shed["throttle"] > 0
        # The throttle is ahead of the queues: what it admits fits.
        assert engine.counts["admitted"] <= engine.counts["offered"]

    def test_same_seed_reproduces_the_run_exactly(self):
        with collecting():
            first = run_engine(seed=43)
        with collecting():
            second = run_engine(seed=43)
        assert first.counts == second.counts
        assert first.shed == second.shed
        assert first.ops == second.ops
        assert first.slo_summary() == second.slo_summary()
        assert first.clients_active == second.clients_active

    def test_single_group_cluster_gets_one_lane(self):
        """A cluster without .groups is driven as one shard-0 lane."""
        sim = Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=47))
        service = ShardedKvService(fabric, shards=2, backups=1)
        service.start()
        group = service.groups[0]
        engine = OpenLoopEngine(
            fabric,
            group,
            WORKLOADS["read-heavy"],
            ZipfSampler(64),
            offered_ops_per_sec=10_000.0,
            n_clients=1_000,
            admission=AdmissionControl(max_inflight=2, queue_limit=32),
        )
        sim.run(until=50 * MS)
        engine.start()
        engine.begin_measurement()
        sim.run(until=120 * MS)
        engine.end_measurement()
        engine.stop()
        sim.run(until=140 * MS)
        assert len(engine.lanes) == 1
        assert engine.counts["completed"] > 0
        assert engine.counts["errors"] == 0
