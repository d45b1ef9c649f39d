"""Every drop point of the in-flight verb record, on both issue paths.

A :class:`~repro.rdma.nic.PostedVerb` carries one verb from its transmit
queue to its completion.  Each stage can lose the verb (crash, restart,
NIC fault, partition) or turn it into an error completion; the requester
must then see exactly one of: the result, the remote error, or an
``RdmaTimeout`` at ``post_time + budget``.  ``Rnic.post`` (one verb, one
doorbell) and ``Rnic.post_many`` (a staged batch) share the record, so
every case runs through both.
"""

import pytest

from repro.net import Fabric
from repro.rdma import (
    MemoryRegion,
    QueuePair,
    RdmaConnectionRevoked,
    RdmaError,
    RdmaListener,
    RdmaTimeout,
    Rnic,
)
from repro.rdma.nic import DEFAULT_VERB_TIMEOUT_US
from repro.sim import Simulator

PAYLOAD = b"x" * 100
#: 100 B leave the requester's link after 100/1250 + 0.3 = 0.38 us and
#: arrive about 1.5 us later, so 1.0 us after the post is "in flight".
IN_TX_QUEUE_US = 0.2
IN_FLIGHT_US = 1.0


def _post_one(nic, qp):
    return qp.write("data", 0, PAYLOAD)


def _post_batch(nic, qp):
    staged = qp.prepare_write("data", 0, PAYLOAD)
    nic.post_many([staged])
    return staged.done


@pytest.fixture(params=[_post_one, _post_batch], ids=["transfer", "post_many"])
def issue(request):
    return request.param


class Rig:
    """One requester and one target (with its own NIC), connected."""

    def __init__(self, exclusive=False):
        self.sim = Simulator()
        self.fabric = Fabric(self.sim)
        self.target = self.fabric.add_host("target")
        self.requester = self.fabric.add_host("requester", cores=2)
        self.listener = RdmaListener(self.target)
        self.region = MemoryRegion("data", 4096)
        self.listener.export(self.region, exclusive=exclusive)
        self.target_nic = Rnic(self.target, self.fabric)
        self.nic = Rnic(self.requester, self.fabric)
        self.qp = QueuePair(self.nic, self.listener)
        self.sim.run_process(self.qp.connect(["data"]))

        self.posted_at = self.sim.now  # every test posts next
        self.handshake_messages = self.fabric.messages_sent

    def settle(self, done):
        """Run to quiescence; returns how long after the post *done* settled."""
        settled_at = []
        done.add_callback(lambda _ev: settled_at.append(self.sim.now))
        self.sim.run()
        assert done.settled
        return settled_at[0] - self.posted_at

    def applied(self):
        return self.region.read(0, len(PAYLOAD)) == PAYLOAD


class TestVerbRecordDropPoints:
    def test_completed_verb_leaves_no_guard(self, issue):
        rig = Rig()
        done = issue(rig.nic, rig.qp)
        took = rig.settle(done)
        assert done.ok and rig.applied()
        assert took < 10.0
        # The guard was cancelled, not left to fire at the budget: the
        # run ended at the completion and nothing is queued behind it.
        assert rig.sim.now == rig.posted_at + took
        assert rig.sim.next_event_time() is None

    def test_unreachable_target_times_out_at_exactly_the_budget(self, issue):
        rig = Rig()
        rig.fabric.isolate("target")
        done = issue(rig.nic, rig.qp)
        rig.settle(done)
        assert isinstance(done.exception, RdmaTimeout)
        assert rig.sim.now == rig.posted_at + DEFAULT_VERB_TIMEOUT_US
        assert not rig.applied()

    def test_requester_crash_with_the_verb_in_its_tx_queue(self, issue):
        rig = Rig()
        done = issue(rig.nic, rig.qp)
        rig.sim.schedule(IN_TX_QUEUE_US, rig.requester.crash)
        rig.settle(done)
        assert isinstance(done.exception, RdmaTimeout)
        assert not rig.applied()
        assert rig.fabric.messages_sent == rig.handshake_messages

    def test_target_crash_in_flight(self, issue):
        rig = Rig()
        done = issue(rig.nic, rig.qp)
        rig.sim.schedule(IN_FLIGHT_US, rig.target.crash)
        rig.settle(done)
        assert isinstance(done.exception, RdmaTimeout)
        assert rig.sim.now == rig.posted_at + DEFAULT_VERB_TIMEOUT_US
        assert not rig.applied()

    def test_target_restart_before_the_request_leaves_is_an_error_completion(self, issue):
        rig = Rig()
        rig.target.crash()
        rig.target.restart()
        done = issue(rig.nic, rig.qp)
        took = rig.settle(done)
        # The request reaches the new incarnation, whose NIC refuses the
        # stale connection: an error ack, long before the budget.
        assert type(done.exception) is RdmaError
        assert took < 10.0
        assert rig.sim.next_event_time() is None  # error acks cancel the guard too

    def test_target_restart_in_flight_is_silence(self, issue):
        rig = Rig()

        def bounce():
            rig.target.crash()
            rig.target.restart()

        done = issue(rig.nic, rig.qp)
        rig.sim.schedule(IN_FLIGHT_US, bounce)
        rig.settle(done)
        assert isinstance(done.exception, RdmaTimeout)
        assert not rig.applied()

    def test_target_crash_with_the_ack_in_its_tx_queue(self, issue):
        rig = Rig()
        # Park a bulk response in front, so the ack waits in the target's
        # transmit queue when the target dies.
        rig.target_nic._txq.execute(50.0)
        done = issue(rig.nic, rig.qp)
        rig.sim.schedule(10.0, rig.target.crash)
        rig.settle(done)
        assert isinstance(done.exception, RdmaTimeout)
        assert rig.applied()  # the write landed; only its ack was lost

    def test_fail_queues_between_ack_send_and_ack_arrival(self, issue):
        rig = Rig()
        done = issue(rig.nic, rig.qp)
        fault = []

        def fail_once_applied():
            if rig.applied() and not fault:
                fault.append(rig.sim.now)
                rig.nic.fail_queues()
            elif not fault:
                rig.sim.schedule(0.1, fail_once_applied)

        rig.sim.schedule(0.1, fail_once_applied)
        took = rig.settle(done)
        assert fault and fault[0] - rig.posted_at < 10.0 < took
        assert isinstance(done.exception, RdmaTimeout)
        assert rig.applied()

    def test_revoked_connection_is_an_error_completion(self, issue):
        rig = Rig(exclusive=True)
        done = issue(rig.nic, rig.qp)
        rig.qp.revoke("a newer coordinator connected")  # while in flight
        took = rig.settle(done)
        assert isinstance(done.exception, RdmaConnectionRevoked)
        assert took < 10.0
        assert not rig.applied()

    def test_refused_at_staging_never_reaches_the_nic(self, issue):
        rig = Rig()
        rig.qp.close()
        done = issue(rig.nic, rig.qp)
        assert done.failed and type(done.exception) is RdmaError
        assert rig.nic.verbs_issued == 0
        assert rig.sim.next_event_time() is None
