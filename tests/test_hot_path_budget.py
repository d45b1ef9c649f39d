"""Hot-path budget: what one put and one cached get may cost the host.

The simulated numbers are pinned byte-for-byte by the baselines; this
pins the *host* work behind them, as deterministic counts: scheduled
events, one-sided verbs and ``Event`` objects per operation on a
fixed-seed cluster.  The ceilings are the measured values, so a change
that re-adds a scheduled event, or an ``Event`` per verb or per NIC
queue hop, fails here rather than showing up as a few percent of
``host_ops_per_s`` three PRs later.  Lower is fine: tighten the ceiling.
"""

from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.net.fabric import Fabric
from repro.sim import MS, SEC, engine
from repro.sim.rng import RngStreams

CLIENTS = 4
OPS_PER_CLIENT = 50
OPS = CLIENTS * OPS_PER_CLIENT

#: Scheduled events and verbs are the model itself: PR 13 made each one
#: cheaper and removed none (the same test on its parent measures the
#: same three numbers), so they move only together with the baselines.
#: Puts here create their keys (block, bitmap and bucket-head writes), so
#: they cost more than the benchmark's overwrites.  Event objects per put
#: were 45.01 before PR 13: an Event per NIC transmit-queue hop on top of
#: the one each verb, RPC and CPU charge completes through.
BUDGET = {
    "events_per_put": 54.69,
    "events_per_get": 6.26,
    "verbs_per_put": 8.72,
    "event_objects_per_put": 27.57,
}


class Counts:
    def __init__(self, sim, group, constructed):
        self.sim, self.group, self.constructed = sim, group, constructed
        self.mark()

    def mark(self):
        self.seq = self.sim._seq
        self.verbs = self.group.serving_coordinator().nic.verbs_issued
        self.events = len(self.constructed)

    def per_op_since_mark(self):
        return (
            (self.sim._seq - self.seq) / OPS,
            (self.group.serving_coordinator().nic.verbs_issued - self.verbs) / OPS,
            (len(self.constructed) - self.events) / OPS,
        )


def measure(constructed):
    sim = engine.Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=13))
    kv_config = KvConfig(max_keys=256, wal_entries=128, watermark_interval=32)
    group = SiftGroup(
        fabric,
        kv_config.sift_config(fm=1, fc=1, wal_entries=128),
        name="budget",
        app_factory=kv_app_factory(kv_config),
    )
    group.start()
    clients = [
        KvClient(fabric.add_host(f"client{i}", cores=2), fabric, group)
        for i in range(CLIENTS)
    ]
    serving = sim.spawn(group.wait_until_serving())
    assert sim.run_until_settled(serving, deadline=1 * SEC)

    def run_phase(op):
        def loop(i):
            for n in range(OPS_PER_CLIENT):
                yield from op(clients[i], b"key-%d-%d" % (i, n % 16), n)

        done = engine.all_of(sim, [sim.spawn(loop(i)) for i in range(CLIENTS)])
        assert sim.run_until_settled(done, deadline=sim.now + 30 * SEC) and done.ok

    def put(client, key, n):
        yield from client.put(key, b"value-%d" % n)

    hits = []

    def get(client, key, n):
        hits.append((yield from client.get(key)))

    counts = Counts(sim, group, constructed)
    run_phase(put)
    events_per_put, verbs_per_put, event_objects_per_put = counts.per_op_since_mark()

    sim.run(until=sim.now + 5 * MS)  # let the appliers drain: gets then hit the cache
    store = group.serving_coordinator().app
    misses = store.stats["cache_misses"]
    counts.mark()
    run_phase(get)
    events_per_get, verbs_per_get, _ = counts.per_op_since_mark()

    assert len(hits) == OPS and None not in hits
    assert store.stats["cache_misses"] == misses
    assert verbs_per_get < 0.2  # heartbeats only: a cached get posts no verb
    return {
        "events_per_put": events_per_put,
        "events_per_get": events_per_get,
        "verbs_per_put": verbs_per_put,
        "event_objects_per_put": event_objects_per_put,
    }


def test_put_and_cached_get_stay_inside_their_budget(monkeypatch):
    constructed = []
    event_init = engine.Event.__init__

    def counting_init(self, sim):
        constructed.append(None)
        event_init(self, sim)

    monkeypatch.setattr(engine.Event, "__init__", counting_init)

    measured = measure(constructed)
    for metric, ceiling in BUDGET.items():
        assert measured[metric] <= ceiling, measured
