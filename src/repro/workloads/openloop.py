"""Vectorized open-loop load generation (ROADMAP item 5).

The closed-loop :class:`~repro.workloads.clients.ClientPool` runs one
Python generator per client, so a run can afford tens of clients — and
a closed-loop client, by construction, slows its arrival rate down to
whatever the service can absorb, hiding exactly the queueing collapse
the "millions of users" claim is about.  This module models the client
population as an open-loop arrival *process* instead:

* arrivals are drawn per timer window in bulk — a deterministic
  Poisson count (:func:`poisson_count`), then one vectorized batch of
  Zipf ranks, read/write coins, client ids and shard assignments
  (:class:`ArrivalGenerator`) — so a window costs O(one numpy batch),
  not O(one coroutine step per client);
* admission control sheds what the configured policy refuses to queue
  (token-bucket throttle, bounded per-shard backlog) and *counts* the
  sheds instead of silently slowing down;
* a bounded in-flight window per shard (:class:`ShardLane` +
  ``max_inflight`` dispatcher processes) issues the admitted ops
  through ordinary :class:`~repro.kv.client.KvClient` calls, with
  failures routed through a :class:`~repro.workloads.retry.RetryPolicy`;
* completions feed per-shard ``openloop.latency_us`` SLO histograms
  (p50/p99/p99.9) and offered/admitted/shed/achieved accounting.

Everything is deterministic in the fabric seed: arrival counts and all
per-arrival draws come from named :class:`~repro.sim.rng.RngStreams`
via :func:`~repro.workloads.generator.uniform_batch`, which reproduces
the scalar ``rng.random()`` stream bit for bit.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from repro.kv.client import KvClient
from repro.net.fabric import Fabric
from repro.obs import state as obs_state
from repro.sim.units import MS
from repro.workloads.generator import (
    KeySampler,
    WorkloadMix,
    flip_batch,
    uniform_batch,
)
from repro.workloads.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "poisson_count",
    "ArrivalBatch",
    "ArrivalGenerator",
    "TokenBucket",
    "AdmissionControl",
    "ShardLane",
    "OpenLoopEngine",
]

#: Poisson chunk cap: exp(-500) ~ 7e-218 keeps the Knuth threshold far
#: from double-precision underflow while letting one chunk cover most
#: realistic per-window rates in a single vectorized block.
_POISSON_CHUNK = 500.0


def poisson_count(rng, lam: float) -> int:
    """One Poisson(*lam*) draw from *rng*, deterministic and fast.

    Exact Knuth sampling — count uniforms until their running product
    falls below ``exp(-lam)`` — with two twists for the open-loop
    engine's per-window rates: *lam* is split into chunks of at most
    :data:`_POISSON_CHUNK` (Poisson is additive, and the per-chunk
    threshold then never approaches underflow), and each chunk consumes
    its uniforms through :func:`uniform_batch` + ``np.cumprod`` rather
    than one scalar ``rng.random()`` call per event.  ``np.cumprod``
    emits every prefix product, so within a chunk the stopping index —
    and therefore the count — is bit-identical to the scalar loop's
    (pinned by ``tests/test_openloop.py``); only the *number of
    uniforms consumed* differs, because blocks over-draw past the
    stopping point.  For multi-chunk rates (lam above the cap, which
    no per-window engine rate reaches) that over-draw shifts where the
    next chunk starts on the stream, so the total matches a scalar
    replay only chunk-wise, not end-to-end — still fully deterministic
    in the seed.

    numpy's own Poisson generator is deliberately not used: stream
    reproducibility across numpy versions is not part of this repo's
    determinism contract — the python-``random`` Mersenne Twister
    stream is.
    """
    if lam <= 0.0:
        return 0
    total = 0
    remaining = float(lam)
    while remaining > 0.0:
        step = min(remaining, _POISSON_CHUNK)
        remaining -= step
        threshold = math.exp(-step)
        # First block covers the mean plus ~8 sigma; extensions are rare.
        block = int(step + 8.0 * math.sqrt(step)) + 16
        product = 1.0
        count = 0
        while True:
            prefix = product * np.cumprod(uniform_batch(rng, block))
            below = np.flatnonzero(prefix <= threshold)
            if len(below):
                count += int(below[0])
                break
            count += block
            product = float(prefix[-1])
            block = 64
        total += count
    return total


class TokenBucket:
    """A deterministic token bucket (*rate* tokens/s, *burst* capacity)."""

    __slots__ = ("rate_per_sec", "burst", "tokens")

    def __init__(self, rate_per_sec: float, burst: float):
        if rate_per_sec < 0 or burst < 0:
            raise ValueError("token bucket rate and burst must be non-negative")
        self.rate_per_sec = rate_per_sec
        self.burst = burst
        self.tokens = burst  # starts full

    def refill(self, elapsed_us: float) -> None:
        """Credit *elapsed_us* of rate, clamped at the burst capacity."""
        self.tokens = min(
            self.burst, self.tokens + self.rate_per_sec * elapsed_us / 1e6
        )

    def take(self, n: int) -> int:
        """Admit up to *n* whole ops; returns how many got tokens."""
        admitted = min(int(n), int(self.tokens))
        if admitted > 0:
            self.tokens -= admitted
            return admitted
        return 0


class AdmissionControl(NamedTuple):
    """Client-side backpressure policy for the open-loop engine.

    ``max_inflight`` bounds concurrently issued ops per shard (it is the
    number of dispatcher processes per lane); ``queue_limit`` bounds the
    backlog waiting behind them — arrivals past it are shed with reason
    ``queue``.  ``rate_ops_per_sec`` adds a token-bucket throttle ahead
    of the queues (reason ``throttle``); ``None`` disables it.  The
    default burst is 50 ms of rate.
    """

    max_inflight: int = 16
    queue_limit: int = 512
    rate_ops_per_sec: Optional[float] = None
    burst_ops: Optional[float] = None

    def bucket(self) -> Optional[TokenBucket]:
        if self.rate_ops_per_sec is None:
            return None
        burst = self.burst_ops
        if burst is None:
            burst = self.rate_ops_per_sec * 0.05
        return TokenBucket(self.rate_ops_per_sec, burst)


class ArrivalBatch(NamedTuple):
    """One window's arrivals, column-wise."""

    ranks: np.ndarray  #: int64 key ranks
    writes: np.ndarray  #: bool write flags
    shards: np.ndarray  #: int64 owning-shard indices
    clients: np.ndarray  #: int64 issuing-client ids in [0, n_clients)

    @property
    def count(self) -> int:
        return len(self.ranks)


class ArrivalGenerator:
    """Vectorized draws for a population of *n_clients* open-loop clients.

    Four named RNG streams (arrivals, keys, coins, clients) keep every
    column's randomness independent and seed-deterministic.  Shard
    assignment uses the sampler's ``shard_index_batch`` when it has one
    (the striped-Zipf ``rank % G`` invariant); single-target clusters
    get shard 0 for every arrival.

    :meth:`scalar_batch` draws the same columns one op at a time — the
    closed-loop pool's inner loop, consuming the same streams to the
    same values — and exists for the equivalence tests and as the
    baseline of the generation-speed ratio in ``tests/test_openloop.py``.
    """

    def __init__(
        self,
        fabric: Fabric,
        mix: WorkloadMix,
        sampler: KeySampler,
        n_clients: int,
        n_shards: int = 1,
        name: str = "openloop",
    ):
        if n_clients < 1:
            raise ValueError(f"need at least one client, got {n_clients}")
        sampler_shards = getattr(sampler, "n_shards", None)
        if sampler_shards is not None and sampler_shards != n_shards:
            raise ValueError(
                f"sampler stripes {sampler_shards} shards, engine has {n_shards}"
            )
        self.mix = mix
        self.sampler = sampler
        self.n_clients = n_clients
        self.n_shards = n_shards
        self._arrival_rng = fabric.rng.stream(f"{name}:arrivals")
        self._key_rng = fabric.rng.stream(f"{name}:keys")
        self._coin_rng = fabric.rng.stream(f"{name}:coins")
        self._client_rng = fabric.rng.stream(f"{name}:clients")

    def window_count(self, lam: float) -> int:
        """Poisson arrival count for one window of offered load *lam*."""
        return poisson_count(self._arrival_rng, lam)

    def _assign_shards(self, ranks: np.ndarray) -> np.ndarray:
        assign = getattr(self.sampler, "shard_index_batch", None)
        if assign is not None:
            return assign(ranks)
        return np.zeros(len(ranks), dtype=np.int64)

    def batch(self, n: int) -> ArrivalBatch:
        """Draw *n* arrivals in one vectorized pass."""
        ranks = self.sampler.sample_batch(self._key_rng, n)
        writes = flip_batch(self._coin_rng, n, self.mix.write_fraction)
        clients = (uniform_batch(self._client_rng, n) * self.n_clients).astype(
            np.int64
        )
        return ArrivalBatch(ranks, writes, self._assign_shards(ranks), clients)

    def scalar_batch(self, n: int, ring=None) -> ArrivalBatch:
        """Draw *n* arrivals one scalar op at a time (same streams).

        With *ring* the shard column is resolved the way a closed-loop
        router would — render the key, SHA-1 it, walk the ring — instead
        of through the striped ``rank % G`` invariant; the result is
        identical for striped samplers, which is the point: the ratio
        test charges the baseline the work a real per-client loop performs.
        """
        ranks = np.empty(n, dtype=np.int64)
        writes = np.empty(n, dtype=bool)
        shards = np.empty(n, dtype=np.int64)
        clients = np.empty(n, dtype=np.int64)
        sampler = self.sampler
        write_fraction = self.mix.write_fraction
        shard_ids = (
            {name: index for index, name in enumerate(ring.shards)}
            if ring is not None
            else None
        )
        for i in range(n):
            rank = sampler.sample(self._key_rng)
            ranks[i] = rank
            writes[i] = self._coin_rng.random() < write_fraction
            clients[i] = int(self._client_rng.random() * self.n_clients)
            if ring is not None:
                shards[i] = shard_ids[ring.shard_for(sampler.key(rank))]
            elif self.n_shards > 1:
                shards[i] = rank % self.n_shards
            else:
                shards[i] = 0
        return ArrivalBatch(ranks, writes, shards, clients)


class ShardLane(object):
    """One shard's bounded backlog and in-flight window."""

    __slots__ = (
        "sim",
        "index",
        "name",
        "queue_limit",
        "pending",
        "wake",
        "inflight",
        "inflight_peak",
        "queued_peak",
    )

    def __init__(self, sim, index: int, name: str, queue_limit: int):
        self.sim = sim
        self.index = index
        self.name = name
        self.queue_limit = queue_limit
        self.pending: deque = deque()
        self.wake = sim.event()
        self.inflight = 0
        self.inflight_peak = 0
        self.queued_peak = 0

    def kick(self) -> None:
        """Wake every dispatcher parked on this lane."""
        wake, self.wake = self.wake, self.sim.event()
        wake.trigger()


class OpenLoopEngine:
    """Open-loop load against one cluster (sharded or single-group).

    One ticker process draws each window's arrivals in bulk; per shard,
    ``admission.max_inflight`` dispatcher processes (each with its own
    client host) drain the lane's backlog through the retry policy.
    Between :meth:`begin_measurement` and :meth:`end_measurement`,
    completions are recorded into per-shard ``openloop.latency_us`` SLO
    histograms (latency includes queue wait — arrivals are stamped at
    their window tick) and the offered/admitted/shed/completed
    counters.
    """

    def __init__(
        self,
        fabric: Fabric,
        cluster,
        mix: WorkloadMix,
        sampler: KeySampler,
        offered_ops_per_sec: float,
        n_clients: int,
        window_us: float = 1 * MS,
        admission: Optional[AdmissionControl] = None,
        retry: Optional[RetryPolicy] = None,
        value_bytes: int = 992,
        name: str = "openloop",
        client_factory: Optional[Callable] = None,
        elastic: bool = False,
    ):
        if offered_ops_per_sec < 0:
            raise ValueError("offered load must be non-negative")
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.fabric = fabric
        self.sim = fabric.sim
        self.cluster = cluster
        self.mix = mix
        self.offered_ops_per_sec = offered_ops_per_sec
        self.window_us = window_us
        self.admission = admission or AdmissionControl()
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.name = name
        self._value = b"v" * value_bytes
        self._client_factory = client_factory or KvClient
        self._targets: List = [cluster] if cluster.ring is None else list(cluster.groups)
        self.generator = ArrivalGenerator(
            fabric, mix, sampler, n_clients,
            n_shards=len(self._targets), name=name,
        )
        self.lanes = [
            ShardLane(self.sim, index, target.name, self.admission.queue_limit)
            for index, target in enumerate(self._targets)
        ]
        # Elastic mode (opt-in, off for the committed fixed-topology
        # baselines): follow the service's ring version, adding lanes and
        # dispatchers for shards the control plane splits in, and route
        # each arrival by its key's *current* owner instead of the
        # striping invariant — keys whose arcs moved land on the new
        # shard's lane the window after cutover.
        self.elastic = elastic
        self._ring_version = -1
        self._lane_pos = {lane.name: lane.index for lane in self.lanes}
        self._key_lane: Optional[np.ndarray] = None
        if elastic:
            if cluster.ring is None:
                raise ValueError("elastic mode needs a sharded cluster")
            if not hasattr(sampler, "all_keys"):
                raise ValueError("elastic mode needs a striped key sampler")
        self._bucket = self.admission.bucket()
        self._seen = np.zeros(n_clients, dtype=bool)
        self.counts: Dict[str, int] = {
            "offered": 0, "admitted": 0, "completed": 0,
            "errors": 0, "retries": 0,
        }
        self.shed: Dict[str, int] = {"throttle": 0, "queue": 0}
        self.ops: Dict[str, int] = {"read": 0, "write": 0}
        self.measuring = False
        self.running = False
        self.measure_start_us = 0.0
        self.measure_end_us = 0.0
        self._slo_cache: Dict = {}
        self._slo_phase: Optional[str] = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Spawn the arrival ticker and every lane's dispatchers."""
        self.running = True
        self.sim.spawn(self._ticker(), name=f"{self.name}-ticker")
        for lane, target in zip(self.lanes, self._targets):
            self._spawn_lane(lane, target)

    def _spawn_lane(self, lane: "ShardLane", target) -> None:
        for slot in range(self.admission.max_inflight):
            host = self.fabric.add_host(
                f"{self.name}-{lane.name}-d{slot}", cores=2
            )
            client = self._client_factory(host, self.fabric, target)
            if hasattr(client, "prefer"):
                client.prefer(slot)
            host.spawn(
                self._dispatcher(lane, client),
                name=f"{self.name}-{lane.name}-d{slot}",
            )

    def _elastic_sync(self) -> None:
        """Converge lanes and routing onto the service's current ring."""
        ring = self.cluster.ring
        if ring.version == self._ring_version:
            return
        for shard in ring.shards:
            if shard not in self._lane_pos:
                lane = ShardLane(
                    self.sim, len(self.lanes), shard, self.admission.queue_limit
                )
                self.lanes.append(lane)
                self._lane_pos[shard] = lane.index
                target = self.cluster._group(shard)
                self._targets.append(target)
                if self.running:
                    self._spawn_lane(lane, target)
        # Route by current ownership: one vectorized ring lookup over
        # the (fixed) key table per ring version, then O(1) per arrival.
        owners = ring.shard_index_batch(self.generator.sampler.all_keys())
        positions = np.array(
            [self._lane_pos[name] for name in ring.shards], dtype=np.int64
        )
        self._key_lane = positions[owners]
        self._ring_version = ring.version

    def stop(self) -> None:
        """Stop generating; parked dispatchers exit, in-flight ops drain."""
        self.running = False
        for lane in self.lanes:
            lane.kick()

    def begin_measurement(self, phase: Optional[str] = None) -> None:
        """Zero the accounting; subsequent completions are recorded.

        *phase* names the window: it rides along as an extra SLO-metric
        label, so multi-window runs (figHotspot's before/after shift)
        get independent tail histograms instead of one accumulated one.
        Left unset, metric keys are unchanged from single-window runs.
        """
        self._slo_phase = phase
        for key in self.counts:
            self.counts[key] = 0
        for key in self.shed:
            self.shed[key] = 0
        for key in self.ops:
            self.ops[key] = 0
        self._slo_cache = {}
        self.measure_start_us = self.sim.now
        self.measuring = True

    def end_measurement(self) -> None:
        self.measuring = False
        self.measure_end_us = self.sim.now

    # -- derived numbers ---------------------------------------------------------

    @property
    def clients_active(self) -> int:
        """Distinct simulated clients that issued at least one arrival."""
        return int(self._seen.sum())

    def achieved_ops_per_sec(self) -> float:
        window_us = self.measure_end_us - self.measure_start_us
        if window_us <= 0:
            return 0.0
        return self.counts["completed"] / (window_us / 1e6)

    def inflight_peaks(self) -> Dict[str, int]:
        return {lane.name: lane.inflight_peak for lane in self.lanes}

    def snapshot(self):
        """Engine accounting frozen for the end-to-end benchmark's reader."""
        from repro.obs.stats import StatsSnapshot

        counters = {key: float(value) for key, value in self.counts.items()}
        for reason, value in self.shed.items():
            counters[f"shed_{reason}"] = float(value)
        for op, value in self.ops.items():
            counters[f"completed_{op}"] = float(value)
        return StatsSnapshot(
            kind="openloop",
            name=self.name,
            counters=counters,
            gauges={
                "offered_ops_per_sec": float(self.offered_ops_per_sec),
                "achieved_ops_per_sec": self.achieved_ops_per_sec(),
                "clients_active": float(self.clients_active),
                "lanes": float(len(self.lanes)),
                "ring_version": float(self._ring_version),
            },
        )

    def slo_summary(self) -> Dict[str, Dict[str, dict]]:
        """``{shard: {op: SloHistogram.summary()}}`` for measured ops."""
        out: Dict[str, Dict[str, dict]] = {}
        for (lane_name, op), histogram in sorted(self._slo_cache.items()):
            out.setdefault(lane_name, {})[op] = histogram.summary()
        return out

    def publish(self, registry, prefix: str = "openloop") -> None:
        """Write the run's accounting into *registry* (once, at the end)."""
        for key, value in self.counts.items():
            registry.counter(f"{prefix}.{key}").inc(value)
        for reason, value in self.shed.items():
            registry.counter(f"{prefix}.shed", reason=reason).inc(value)
        for op, value in self.ops.items():
            registry.counter(f"{prefix}.completed_ops", op=op).inc(value)
        registry.gauge(f"{prefix}.offered_ops_per_sec").set(
            self.offered_ops_per_sec
        )
        registry.gauge(f"{prefix}.achieved_ops_per_sec").set(
            self.achieved_ops_per_sec()
        )
        registry.gauge(f"{prefix}.clients_active").set(self.clients_active)
        registry.gauge(f"{prefix}.clients_population").set(
            self.generator.n_clients
        )
        for lane in self.lanes:
            registry.gauge(f"{prefix}.inflight_peak", shard=lane.name).set(
                lane.inflight_peak
            )
            registry.gauge(f"{prefix}.queued_peak", shard=lane.name).set(
                lane.queued_peak
            )

    # -- processes ---------------------------------------------------------------

    def _ticker(self):
        sim = self.sim
        while self.running:
            self._tick()
            yield sim.timeout(self.window_us)

    def _tick(self) -> None:
        """Draw one window's arrivals, admit, enqueue, wake lanes."""
        if self.elastic:
            self._elastic_sync()
        lam = self.offered_ops_per_sec * self.window_us / 1e6
        n = self.generator.window_count(lam)
        if self.measuring:
            self.counts["offered"] += n
        if n == 0:
            return
        batch = self.generator.batch(n)
        self._seen[batch.clients] = True
        admitted = n
        if self._bucket is not None:
            self._bucket.refill(self.window_us)
            admitted = self._bucket.take(n)
            if self.measuring:
                self.shed["throttle"] += n - admitted
            if admitted == 0:
                return
        now = self.sim.now
        if self._key_lane is not None:
            key_indices = self.generator.sampler.key_index_batch(
                batch.ranks[:admitted]
            )
            shards = self._key_lane[key_indices]
        else:
            shards = batch.shards[:admitted]
        for lane in self.lanes:
            lane_indices = np.flatnonzero(shards == lane.index)
            if not len(lane_indices):
                continue
            pending = lane.pending
            space = lane.queue_limit - len(pending)
            if space < len(lane_indices):
                if self.measuring:
                    self.shed["queue"] += len(lane_indices) - max(space, 0)
                if space <= 0:
                    continue
                lane_indices = lane_indices[:space]
            lane_ranks = batch.ranks[lane_indices].tolist()
            lane_writes = batch.writes[lane_indices].tolist()
            for rank, is_write in zip(lane_ranks, lane_writes):
                pending.append((rank, is_write, now))
            if self.measuring:
                self.counts["admitted"] += len(lane_ranks)
            if len(pending) > lane.queued_peak:
                lane.queued_peak = len(pending)
            lane.kick()

    def _dispatcher(self, lane: ShardLane, client):
        sim = self.sim
        while True:
            if lane.pending:
                rank, is_write, enqueued_us = lane.pending.popleft()
                lane.inflight += 1
                if lane.inflight > lane.inflight_peak:
                    lane.inflight_peak = lane.inflight
                outcome = yield from self.retry.execute(
                    sim, lambda: self._op(client, rank, is_write)
                )
                lane.inflight -= 1
                self._finish(lane, is_write, enqueued_us, outcome)
            elif self.running:
                yield lane.wake
            else:
                return

    def _op(self, client, rank: int, is_write: bool):
        key = self.generator.sampler.key(rank)
        if is_write:
            return (yield from client.put(key, self._value))
        return (yield from client.get(key))

    def _finish(self, lane: ShardLane, is_write: bool, enqueued_us, outcome):
        if not self.measuring:
            return
        self.counts["retries"] += outcome.retries
        if not outcome.ok:
            self.counts["errors"] += 1
            return
        op = "write" if is_write else "read"
        self.counts["completed"] += 1
        self.ops[op] += 1
        histogram = self._slo_cache.get((lane.name, op))
        if histogram is None:
            registry = obs_state.REGISTRY
            if registry is None:
                return
            labels = {"op": op, "shard": lane.name}
            if self._slo_phase is not None:
                labels["phase"] = self._slo_phase
            histogram = registry.slo(f"{self.name}.latency_us", **labels)
            self._slo_cache[(lane.name, op)] = histogram
        histogram.observe(self.sim.now - enqueued_us)
