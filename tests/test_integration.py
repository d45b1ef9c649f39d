"""Full-stack integration scenarios crossing several subsystems."""


from repro.core.replicated_memory import NodeState
from repro.kv import KvClient
from repro.sim import MS, SEC
from tests.testing import make_kv_stack as make_stack
from tests.testing import run_scenario as run


class TestCombinedFailures:
    def test_memory_node_then_coordinator_failure(self):
        sim, _f, group, client = make_stack()

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(40):
                yield from client.put(b"k%02d" % index, b"v%02d" % index)
            group.crash_memory_node(0)
            yield from client.put(b"after-mem-crash", b"yes")
            yield sim.timeout(5 * MS)
            group.crash_coordinator()
            value_a = yield from client.get(b"k33")
            value_b = yield from client.get(b"after-mem-crash")
            return value_a, value_b

        assert run(sim, scenario()) == (b"v33", b"yes")

    def test_coordinator_crash_during_memnode_recovery(self):
        """The successor must re-run the node recovery from scratch."""
        sim, _f, group, client = make_stack()

        def scenario():
            coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(30):
                yield from client.put(b"k%02d" % index, b"v")
            group.crash_memory_node(2)
            yield from client.put(b"detect", b"x")
            yield sim.timeout(5 * MS)
            group.restart_memory_node(2)
            # Kill the coordinator while (or right before) it re-copies.
            yield sim.timeout(35 * MS)
            group.crash_coordinator()
            successor = yield from group.wait_until_serving(timeout_us=5 * SEC)
            deadline = sim.now + 60 * SEC
            while successor.repmem.states[2] != NodeState.LIVE and sim.now < deadline:
                yield sim.timeout(20 * MS)
            assert successor.repmem.states[2] == NodeState.LIVE
            return (yield from client.get(b"k07"))

        assert run(sim, scenario(), until=180 * SEC) == b"v"

    def test_ec_stack_with_rolling_memory_failures(self):
        sim, _f, group, client = make_stack(ec=True)

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            for index in range(30):
                yield from client.put(b"k%02d" % index, b"value-%02d" % index)
            for victim in (0, 1):
                group.crash_memory_node(victim)
                yield from client.put(b"probe-%d" % victim, b"x")
                yield sim.timeout(5 * MS)
                group.restart_memory_node(victim)
                coordinator = group.serving_coordinator()
                deadline = sim.now + 60 * SEC
                while (
                    coordinator.repmem.states[victim] != NodeState.LIVE
                    and sim.now < deadline
                ):
                    yield sim.timeout(20 * MS)
                assert coordinator.repmem.states[victim] == NodeState.LIVE
            return (yield from client.get(b"k15"))

        assert run(sim, scenario(), until=240 * SEC) == b"value-15"

    def test_load_during_failover_loses_no_acked_write(self):
        """Writes acknowledged before the crash must all survive it."""
        sim, fabric, group, client = make_stack()
        acked = {}

        def writer(tag):
            my_client = KvClient(fabric.add_host(f"w{tag}", cores=2), fabric, group)
            for round_number in range(30):
                key = b"w%d-%02d" % (tag, round_number)
                try:
                    yield from my_client.put(key, b"ok")
                    acked[key] = True
                except Exception:
                    pass  # unacked: no promise

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            workers = [sim.spawn(writer(tag)) for tag in range(4)]
            yield sim.timeout(20 * MS)
            group.crash_coordinator()
            for worker in workers:
                yield worker
            missing = []
            for key in acked:
                value = yield from client.get(key)
                if value != b"ok":
                    missing.append(key)
            return missing

        missing = run(sim, scenario())
        assert missing == [], f"acked writes lost: {missing}"

    def test_double_memory_failure_with_fm2(self):
        sim, _f, group, client = make_stack(fm=2)

        def scenario():
            yield from group.wait_until_serving(timeout_us=2 * SEC)
            yield from client.put(b"k", b"v")
            group.crash_memory_node(0)
            group.crash_memory_node(3)
            value = yield from client.get(b"k")
            yield from client.put(b"k2", b"v2")
            return value, (yield from client.get(b"k2"))

        assert run(sim, scenario()) == (b"v", b"v2")
