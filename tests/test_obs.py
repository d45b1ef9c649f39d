"""Unit and integration tests for repro.obs tracing and metrics."""

import pytest

from repro.obs import observe
from repro.obs import state as obs_state
from repro.obs.registry import MetricsRegistry, collecting, current_registry
from repro.obs.trace import Tracer, current_tracer, tracing
from tests.testing import make_kv_stack, run_scenario


class TestTracer:
    def test_span_tree(self):
        tracer = Tracer()
        root = tracer.span("op", 10.0, kind="put")
        child = root.child("rdma.write", 12.0)
        child.event("nic.serialised", 13.0)
        child.finish(20.0)
        root.finish(25.0)

        assert root.duration_us == 15.0
        assert child.finished
        assert tracer.roots() == [root]
        assert [s.name for s in tracer.subtree(root)] == [
            "op", "rdma.write", "nic.serialised",
        ]
        assert tracer.named("rdma.write") == [child]

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("s", 1.0)
        span.finish(2.0)
        span.finish(99.0)
        assert span.end_us == 2.0

    def test_instant_has_zero_duration(self):
        tracer = Tracer()
        event = tracer.instant("tick", 5.0, n=1)
        assert event.duration_us == 0.0
        assert event.attrs == {"n": 1}

    def test_to_dicts_and_render(self):
        tracer = Tracer()
        root = tracer.span("op", 0.0)
        root.event("done", 3.0)
        root.finish(3.0)
        dicts = tracer.to_dicts()
        assert dicts[0]["name"] == "op"
        assert dicts[1]["parent_id"] == dicts[0]["span_id"]
        text = tracer.render_tree()
        assert "op [0.00 +3.00us]" in text
        assert "\n  done" in text

    def test_tracing_contextmanager_installs_and_restores(self):
        assert current_tracer() is None
        with tracing() as tracer:
            assert current_tracer() is tracer
            assert obs_state.TRACER is tracer
        assert current_tracer() is None


class TestRegistry:
    def test_counter_get_or_create_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("rdma.verbs", type="read").inc()
        registry.counter("rdma.verbs", type="read").inc(2)
        registry.counter("rdma.verbs", type="write").inc()
        assert registry.value("rdma.verbs", type="read") == 3
        assert registry.value("rdma.verbs", type="write") == 1
        assert registry.sum_counters("rdma.verbs") == 4

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x", a=1, b=2).inc()
        assert registry.value("x", b=2, a=1) == 1

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(1)
        registry.gauge("g").set(7.5)
        assert registry.value("g") == 7.5

    def test_histogram_summary(self):
        registry = MetricsRegistry()
        h = registry.histogram("lat", op="read")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4.0
        assert summary["sum"] == 10.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["p50"] == 2.5

    def test_empty_histogram_summary(self):
        summary = MetricsRegistry().histogram("h").summary()
        assert summary["count"] == 0.0
        assert summary["p99"] == 0.0

    def test_snapshot_is_sorted_and_json_friendly(self):
        import json

        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(1.0)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # must be serialisable

    def test_collecting_contextmanager(self):
        assert current_registry() is None
        with collecting() as registry:
            assert current_registry() is registry
        assert current_registry() is None


class TestInstrumentationIntegration:
    """A real KV run with obs on: spans form the paper's causal chain."""

    def test_kv_put_produces_causal_spans_and_counters(self):
        with observe() as (tracer, registry):
            sim, fabric, group, client = make_kv_stack(seed=3)

            def scenario():
                yield from client.put(b"k1", b"v1")
                return (yield from client.get(b"k1"))

            assert run_scenario(sim, scenario()) == b"v1"

        # Counters: verbs by type, wire traffic, core time all flowed.
        assert registry.sum_counters("rdma.verbs") > 0
        assert registry.sum_counters("rdma.bytes") > 0
        assert registry.sum_counters("net.messages") > 0
        assert registry.sum_counters("net.bytes") > 0
        assert registry.sum_counters("cpu.core_us") > 0
        assert registry.sum_counters("repmem.entries_logged") > 0
        assert registry.sum_counters("rpc.calls") > 0

        # Spans: an RDMA verb span carries the NIC-serialise and
        # remote-apply children, in virtual-time order.
        writes = [s for s in tracer.named("rdma.write") if s.finished]
        assert writes, "no finished rdma.write spans recorded"
        span = writes[0]
        children = {c.name for c in tracer.children_of(span)}
        assert "nic.serialised" in children
        assert "remote.applied" in children
        times = [c.start_us for c in tracer.children_of(span)]
        assert span.start_us <= min(times) and max(times) <= span.end_us
        assert span.duration_us > 0

        # RPC spans settled and annotated.
        rpcs = [s for s in tracer.spans if s.name.startswith("rpc.")]
        assert rpcs and all(s.finished for s in rpcs)
        assert any(s.attrs.get("ok") for s in rpcs)

    def test_chaos_runner_publishes_into_registry(self):
        from repro.chaos import ChaosRunner, FaultSchedule
        from repro.core import SiftGroup
        from repro.kv import KvConfig, kv_app_factory
        from repro.sim.units import MS

        def build_sift(fabric):
            kv_config = KvConfig(max_keys=256, wal_entries=128, watermark_interval=32)
            sift_config = kv_config.sift_config(
                fm=1, fc=1, wal_entries=128, memnode_poll_interval_us=30 * MS
            )
            group = SiftGroup(
                fabric, sift_config, name="s", app_factory=kv_app_factory(kv_config)
            )
            group.start()
            return group

        schedule = FaultSchedule().crash_leader(100 * MS)
        with collecting() as registry:
            result = ChaosRunner(build_sift, schedule, seed=1).run()
        assert registry.value("chaos.ops") == result.ops
        assert registry.value("chaos.injections") == len(result.trace)
        assert registry.value("chaos.max_simultaneous_leaders") == 1
        assert registry.sum_counters("raft.") == 0  # sift run, no raft noise
        assert registry.value("cluster.core_us_total") > 0

    def test_disabled_by_default(self):
        assert obs_state.TRACER is None
        assert obs_state.REGISTRY is None
        sim, fabric, group, client = make_kv_stack(seed=3)

        def scenario():
            yield from client.put(b"k", b"v")
            return (yield from client.get(b"k"))

        assert run_scenario(sim, scenario()) == b"v"
