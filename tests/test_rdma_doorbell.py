"""Doorbell-style verb batching: one PCIe charge, unchanged semantics.

``prepare_write`` + ``post_many`` must behave exactly like N unbatched
``write`` calls — same data landed, same per-target ordering, same
error and timeout behaviour — except that the batch pays
``verb_overhead_us`` once instead of N times.
"""

import pytest

from repro.net import Fabric
from repro.obs import collecting
from repro.rdma import (
    MemoryRegion,
    QueuePair,
    RdmaError,
    RdmaListener,
    RdmaTimeout,
    Rnic,
)
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    return Fabric(sim)


def _make_fanout(fabric, n_targets=3):
    """One requester NIC with a connected QP per target."""
    requester = fabric.add_host("requester", cores=2)
    nic = Rnic(requester, fabric)
    qps, regions = [], []
    for i in range(n_targets):
        target = fabric.add_host(f"target{i}", cores=1)
        listener = RdmaListener(target)
        region = MemoryRegion("data", 4096)
        listener.export(region)
        qps.append(QueuePair(nic, listener))
        regions.append(region)

    def connect():
        for qp in qps:
            yield requester.spawn(qp.connect(["data"]))

    fabric.sim.run_process(connect())
    return requester, nic, qps, regions


class TestPostMany:
    def test_batched_fanout_lands_everywhere(self, sim, fabric):
        _requester, nic, qps, regions = _make_fanout(fabric)
        posts = [qp.prepare_write("data", 0, b"payload") for qp in qps]
        events = nic.post_many(posts)
        sim.run()
        assert all(event.ok for event in events)
        assert all(region.read(0, 7) == b"payload" for region in regions)

    def test_prepare_does_not_touch_the_nic(self, sim, fabric):
        """Staging is free until the doorbell rings."""
        _requester, nic, qps, regions = _make_fanout(fabric)
        issued = nic.verbs_issued
        qps[0].prepare_write("data", 0, b"staged")
        sim.run()
        assert nic.verbs_issued == issued
        assert regions[0].read(0, 6) == bytes(6)

    def test_one_doorbell_charge_for_the_batch(self, fabric):
        """N batched posts settle sooner than N sequential unbatched
        writes: serialisation pays one ``verb_overhead_us``, not N."""
        sim = fabric.sim

        def settle_time(batched):
            sim2 = Simulator()
            fabric2 = Fabric(sim2)
            _req, nic, qps, _regions = _make_fanout(fabric2, n_targets=4)
            if batched:
                nic.post_many([qp.prepare_write("data", 0, b"x" * 64) for qp in qps])
            else:
                for qp in qps:
                    qp.write("data", 0, b"x" * 64)
            return sim2.run()

        unbatched, batched = settle_time(False), settle_time(True)
        # 4 posts share one 0.3us doorbell instead of paying 4.
        assert batched < unbatched
        assert unbatched - batched == pytest.approx(3 * 0.3, rel=0.2)

    def test_per_target_order_preserved(self, sim, fabric):
        """RC ordering: posts to the same target apply in post order,
        batched or not (last write wins on the overlapping slot)."""
        _requester, nic, qps, regions = _make_fanout(fabric, n_targets=1)
        qp, region = qps[0], regions[0]
        nic.post_many([
            qp.prepare_write("data", 0, b"first"),
            qp.prepare_write("data", 0, b"SECOND"),
        ])
        sim.run()
        assert region.read(0, 6) == b"SECOND"

    def test_failed_validation_is_skipped_not_flushed(self, sim, fabric):
        """An unconnected/ungranted prepare carries an already-failed
        done; the flush skips it and delivers the rest."""
        _requester, nic, qps, regions = _make_fanout(fabric)
        bad_region = qps[0].prepare_write("nope", 0, b"x")
        assert bad_region.done.failed
        assert isinstance(bad_region.done.exception, RdmaError)

        fresh_listener = RdmaListener(fabric.add_host("spare", cores=1))
        fresh_listener.export(MemoryRegion("data", 64))
        unconnected = QueuePair(nic, fresh_listener).prepare_write("data", 0, b"x")
        assert unconnected.done.failed

        good = qps[1].prepare_write("data", 0, b"ok")
        issued = nic.verbs_issued
        events = nic.post_many([bad_region, unconnected, good])
        sim.run()
        assert nic.verbs_issued == issued + 1  # only the live post
        assert events[2].ok
        assert regions[1].read(0, 2) == b"ok"

    def test_all_settled_batch_is_a_noop(self, sim, fabric):
        _requester, nic, qps, _regions = _make_fanout(fabric)
        bad = qps[0].prepare_write("nope", 0, b"x")
        issued = nic.verbs_issued
        nic.post_many([bad])
        sim.run()
        assert nic.verbs_issued == issued

    def test_dead_target_times_out_only_its_post(self, sim, fabric):
        """A crashed target fails its own post with RdmaTimeout; the
        other posts in the same doorbell complete normally."""
        _requester, nic, qps, regions = _make_fanout(fabric)
        posts = [qp.prepare_write("data", 0, b"payload") for qp in qps]
        qps[1].listener.host.crash()
        nic.post_many(posts)
        sim.run()
        assert posts[0].done.ok and posts[2].done.ok
        assert posts[1].done.failed
        assert isinstance(posts[1].done.exception, RdmaTimeout)
        assert regions[0].read(0, 7) == b"payload"

    def test_doorbell_counters(self, fabric):
        with collecting() as registry:
            sim = Simulator()
            fabric2 = Fabric(sim)
            _req, nic, qps, _regions = _make_fanout(fabric2)
            nic.post_many([qp.prepare_write("data", 0, b"x" * 32) for qp in qps])
            sim.run()
        assert registry.value("rdma.doorbells") == 1
        assert registry.value("rdma.doorbell_posts") == 3
        assert registry.value("rdma.verbs", type="write") == 3
