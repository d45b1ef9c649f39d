"""Flight recorder ring, postmortem dumps, and failure-path wiring.

Covers the always-on bounded ring (eviction, orphan rendering), the
postmortem file format, and the two failure paths that reference their
dump in the raised error: chaos invariant violations
(:meth:`ChaosRunner._fail`) and recovery integrity failures
(:meth:`MemoryNodeRecoveryManager._verify_copy`).  All dumps are
redirected to a tmpdir via ``REPRO_POSTMORTEM_DIR``.
"""

import json
from types import SimpleNamespace

import pytest

from repro.chaos.runner import ChaosError, ChaosRunner
from repro.chaos.schedule import FaultSchedule
from repro.core import SiftConfig
from repro.core.errors import RecoveryIntegrityError
from repro.core.recovery import MemoryNodeRecoveryManager, PartitionProgress
from repro.obs import state
from repro.obs.export import load_spans
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    POSTMORTEM_KIND,
    FlightRecorder,
    maybe_postmortem,
    postmortem_doc,
    write_postmortem,
)
from repro.obs.trace import tracing


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRing:
    def test_default_capacity_and_validation(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ring_evicts_oldest_first(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.instant(f"tick.{i}", float(i))
        assert len(recorder) == 4
        assert [s.name for s in recorder.spans] == [
            "tick.6", "tick.7", "tick.8", "tick.9",
        ]

    def test_evicted_parent_leaves_renderable_orphan(self):
        recorder = FlightRecorder(capacity=2)
        parent = recorder.span("op.parent", 0.0)
        child = parent.child("op.child", 1.0)
        child.finish(2.0)
        recorder.instant("tick", 3.0)  # evicts op.parent from the ring
        assert parent not in recorder.spans
        roots = recorder.roots()
        assert child in roots  # orphan promoted to top level
        rendered = recorder.render_tree()
        assert "op.child" in rendered
        assert "tick" in rendered

    def test_recording_beyond_capacity_is_cheap_and_bounded(self):
        recorder = FlightRecorder(capacity=8)
        with tracing(recorder):
            for i in range(1000):
                recorder.instant("spin", float(i))
        assert len(recorder) == 8


class TestPostmortem:
    def test_doc_shape(self):
        recorder = FlightRecorder(capacity=16)
        recorder.instant("boom", 1.0)
        doc = postmortem_doc("it broke", tracer=recorder, extra={"node": 3})
        assert doc["kind"] == POSTMORTEM_KIND
        assert doc["reason"] == "it broke"
        assert doc["ring_capacity"] == 16
        assert doc["extra"] == {"node": 3}
        assert [s["name"] for s in doc["spans"]] == ["boom"]
        assert doc["registry"] is None

    def test_write_slugs_reason_and_never_overwrites(self, tmp_path):
        recorder = FlightRecorder()
        recorder.instant("x", 0.0)
        first = write_postmortem(
            "Leader crashed: quorum lost!", tracer=recorder, out_dir=str(tmp_path)
        )
        second = write_postmortem(
            "Leader crashed: quorum lost!", tracer=recorder, out_dir=str(tmp_path)
        )
        assert first.endswith("POSTMORTEM_leader-crashed-quorum-lost.json")
        assert second.endswith("POSTMORTEM_leader-crashed-quorum-lost-1.json")
        assert first != second
        assert _read(first)["reason"] == "Leader crashed: quorum lost!"

    def test_postmortem_feeds_the_exporter(self, tmp_path):
        recorder = FlightRecorder()
        recorder.instant("final.moment", 5.0, host="n0")
        path = write_postmortem("exported", tracer=recorder, out_dir=str(tmp_path))
        assert load_spans(path) == recorder.to_dicts()

    def test_maybe_postmortem_without_tracer_is_a_noop(self, postmortem_dir):
        assert state.TRACER is None
        assert maybe_postmortem("nothing installed") is None
        assert list(postmortem_dir.iterdir()) == []

    def test_maybe_postmortem_uses_installed_tracer_and_env_dir(
        self, postmortem_dir
    ):
        with tracing(FlightRecorder()) as recorder:
            recorder.instant("last.span", 9.0)
            path = maybe_postmortem("env dir", extra={"k": "v"})
        assert path is not None
        assert path.startswith(str(postmortem_dir))
        doc = _read(path)
        assert doc["extra"] == {"k": "v"}
        assert [s["name"] for s in doc["spans"]] == ["last.span"]


    def test_dump_survives_spans_recorded_while_it_runs(self, postmortem_dir):
        """A collector pass can finalise an earlier run's dead processes
        mid-dump, and they record ``proc.crash`` into the installed
        tracer: the dump walks a snapshot of the ring."""

        with tracing(FlightRecorder(capacity=4)) as recorder:
            for i in range(4):
                recorder.instant(f"tick.{i}", float(i))
            victim = recorder.spans[1]
            plain = type(victim).to_dict

            class Appending(type(victim)):
                __slots__ = ()

                def to_dict(self):
                    recorder.instant("proc.crash", 9.0)  # evicts from the full ring
                    return plain(self)

            recorder.spans[1] = Appending(
                recorder, victim.span_id, victim.parent_id, victim.name,
                victim.start_us, victim.attrs,
            )
            path = maybe_postmortem("mutated mid-dump")
        assert [s["name"] for s in _read(path)["spans"]] == [
            "tick.0", "tick.1", "tick.2", "tick.3",
        ]

    def test_maybe_postmortem_never_raises(self, postmortem_dir):
        class Broken(FlightRecorder):
            def to_dicts(self):
                raise RuntimeError("deque mutated during iteration")

        with tracing(Broken()):
            assert maybe_postmortem("the caller's error matters more") is None


class TestChaosFailurePath:
    def test_fail_references_postmortem_when_traced(self, postmortem_dir):
        runner = ChaosRunner(lambda fabric: None, FaultSchedule(), seed=7)
        with tracing(FlightRecorder()) as recorder:
            recorder.instant("pre.failure", 1.0)
            with pytest.raises(ChaosError) as excinfo:
                runner.trace = [(0.0, "crash leader")]
                runner._fail("invariant broken")
        message = str(excinfo.value)
        assert "postmortem:" in message
        path = message.split("postmortem:", 1)[1].splitlines()[0].strip()
        doc = _read(path)
        assert doc["extra"]["seed"] == 7
        assert doc["extra"]["trace"] == [[0.0, "crash leader"]]
        assert "chaos invariant broken" in doc["reason"]

    def test_fail_untraced_raises_plain_error(self, postmortem_dir):
        runner = ChaosRunner(lambda fabric: None, FaultSchedule(), seed=7)
        with pytest.raises(ChaosError) as excinfo:
            runner._fail("invariant broken")
        assert "postmortem" not in str(excinfo.value)
        assert list(postmortem_dir.iterdir()) == []

    def test_run_installs_and_removes_its_own_recorder(self, postmortem_dir):
        seen = {}

        def build(_fabric):
            seen["tracer"] = state.TRACER
            raise RuntimeError("stop after the tracer check")

        runner = ChaosRunner(build, FaultSchedule(), seed=3)
        assert state.TRACER is None
        with pytest.raises(RuntimeError):
            runner.run()
        assert isinstance(seen["tracer"], FlightRecorder)
        assert state.TRACER is None


class TestRecoveryFailurePath:
    def _manager(self, data_bytes=1024):
        repmem = SimpleNamespace(config=SiftConfig(data_bytes=data_bytes))
        return MemoryNodeRecoveryManager(repmem)

    def _gap_parts(self):
        progress = PartitionProgress(0, None, 0, 1024, 0.0)
        progress.done.append((0, 512))  # [512, 1024) never copied
        progress.bytes_done = 1024  # lie so the tiling check trips, not the size one
        return [progress]

    def test_integrity_error_references_postmortem_when_traced(
        self, postmortem_dir
    ):
        manager = self._manager()
        with tracing(FlightRecorder()) as recorder:
            recorder.instant("copy.fragment", 2.0)
            with pytest.raises(RecoveryIntegrityError) as excinfo:
                manager._verify_copy(2, self._gap_parts())
        message = str(excinfo.value)
        assert "[postmortem: " in message
        path = message.split("[postmortem: ", 1)[1].rstrip("]")
        doc = _read(path)
        assert doc["extra"]["node"] == 2
        assert doc["extra"]["sim_now_us"] is None  # stubbed repmem has no sim
        assert [s["name"] for s in doc["spans"]] == ["copy.fragment"]

    def test_integrity_error_untraced_stays_plain(self, postmortem_dir):
        manager = self._manager()
        with pytest.raises(RecoveryIntegrityError) as excinfo:
            manager._verify_copy(2, self._gap_parts())
        assert "postmortem" not in str(excinfo.value)
        assert list(postmortem_dir.iterdir()) == []
