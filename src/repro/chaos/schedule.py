"""Declarative fault schedules.

A :class:`FaultSchedule` is an ordered list of :class:`FaultAction`
records — *what* to break and *when*, with no reference to a live
cluster.  Schedules are plain data: they can be built fluently, printed,
compared, generated from a seed (:mod:`repro.chaos.explorer`), shrunk,
and replayed.  Applying one to a running cluster is the job of
:class:`repro.chaos.controller.ChaosController`.

Targets may be symbolic: ``"leader"`` and ``"follower"`` resolve against
the cluster *at injection time*, so a schedule written before the first
election still crashes whoever actually won it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["FaultAction", "FaultSchedule", "LEADER", "FOLLOWER"]

LEADER = "leader"
"""Symbolic target: resolved to the current leader at injection time."""

FOLLOWER = "follower"
"""Symbolic target: the first live non-leader node at injection time."""


class FaultAction(NamedTuple):
    """One injection: at virtual time *at_us*, do *kind* with *args*.

    ``args`` is a tuple of plain values (ints, floats, strings, tuples)
    so actions hash, compare, and ``repr`` deterministically — the
    properties the explorer's shrinking and the runner's replay traces
    rely on.
    """

    at_us: float
    kind: str
    args: Tuple = ()

    @property
    def label(self) -> str:
        if self.kind == "probe":
            return str(self.args[0])
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.kind}({inner})"

    def identity(self) -> Tuple:
        """A hashable, address-free stand-in (probe callables -> label)."""
        if self.kind == "probe":
            return (self.at_us, self.kind, (self.args[0],))
        return (self.at_us, self.kind, self.args)


class FaultSchedule:
    """An immutable-ish, time-ordered fault plan with a fluent builder.

    Builder methods return ``self`` so schedules read as a sentence::

        FaultSchedule().crash_leader(200 * MS).heal(700 * MS)

    Actions keep their insertion order among equal timestamps (the sort
    is stable), matching :func:`repro.bench.runner.run_timeline`'s
    same-time semantics.
    """

    def __init__(self, actions: Iterable[FaultAction] = ()):
        self.actions: List[FaultAction] = list(actions)

    # -- introspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[FaultAction]:
        return iter(self.sorted_actions())

    def __len__(self) -> int:
        return len(self.actions)

    def __repr__(self) -> str:
        inner = "; ".join(f"{a.at_us:.0f}us {a.label}" for a in self.sorted_actions())
        return f"<FaultSchedule [{inner}]>"

    def sorted_actions(self) -> List[FaultAction]:
        """Actions in injection order (stable under equal timestamps)."""
        return sorted(self.actions, key=lambda a: a.at_us)

    @property
    def duration_us(self) -> float:
        """Time of the last action (0 for an empty schedule)."""
        return max((a.at_us for a in self.actions), default=0.0)

    def signature(self) -> Tuple:
        """A hashable identity used by replay traces and shrinking."""
        return tuple(a.identity() for a in self.sorted_actions())

    def without(self, index: int) -> "FaultSchedule":
        """A copy minus the *index*-th sorted action (for shrinking)."""
        kept = self.sorted_actions()
        del kept[index]
        return FaultSchedule(kept)

    # -- builder: process faults ----------------------------------------------

    def add(self, at_us: float, kind: str, *args) -> "FaultSchedule":
        self.actions.append(FaultAction(float(at_us), kind, tuple(args)))
        return self

    def crash_leader(self, at_us: float) -> "FaultSchedule":
        """Kill whoever leads at *at_us* (coordinator / Raft leader)."""
        return self.add(at_us, "crash_node", LEADER)

    def crash_follower(self, at_us: float) -> "FaultSchedule":
        """Kill the first live non-leader consensus node."""
        return self.add(at_us, "crash_node", FOLLOWER)

    def crash_node(self, at_us: float, index: int) -> "FaultSchedule":
        """Kill consensus node *index* (CPU node / replica)."""
        return self.add(at_us, "crash_node", int(index))

    def crash_coordinator(
        self,
        at_us: float,
        shard: Optional[str] = None,
        ring_version: Optional[int] = None,
    ) -> "FaultSchedule":
        """Kill the coordinator of *shard*'s key range (sharded service).

        Ring-version-aware: *shard* may name a shard under any installed
        ring version (pass *ring_version* to pin which one the name was
        written against); at injection time the fault lands on whichever
        group owns that key range under the *then-current* ring, so a
        schedule written before a split/merge still hits the intended
        range deterministically.  ``shard=None`` targets the first
        shard.  On non-sharded systems this degrades to crashing the
        leader.
        """
        return self.add(at_us, "crash_coordinator", shard, ring_version)

    def restart_node(self, at_us: float, index: int) -> "FaultSchedule":
        """Restart consensus node *index* with fresh soft state."""
        return self.add(at_us, "restart_node", int(index))

    def restart_crashed(self, at_us: float) -> "FaultSchedule":
        """Restart every consensus node that is currently down."""
        return self.add(at_us, "restart_crashed")

    def crash_memory_node(self, at_us: float, index: int) -> "FaultSchedule":
        """Kill memory node *index* (Sift only)."""
        return self.add(at_us, "crash_memory_node", int(index))

    def restart_memory_node(self, at_us: float, index: int) -> "FaultSchedule":
        """Restart memory node *index*; the coordinator re-copies it."""
        return self.add(at_us, "restart_memory_node", int(index))

    # -- builder: network faults ----------------------------------------------

    def partition(self, at_us: float, side_a, side_b=None) -> "FaultSchedule":
        """Symmetric split.  Sides are host names, node indices, or the
        symbolic ``LEADER``; *side_b* defaults to "everyone else"."""
        a = tuple(side_a) if isinstance(side_a, (tuple, list)) else (side_a,)
        b = (
            tuple(side_b)
            if isinstance(side_b, (tuple, list))
            else ((side_b,) if side_b is not None else ())
        )
        return self.add(at_us, "partition", a, b)

    def partition_oneway(self, at_us: float, src, dsts=None) -> "FaultSchedule":
        """Asymmetric partition: traffic *from* src is cut, replies flow."""
        d = (
            tuple(dsts)
            if isinstance(dsts, (tuple, list))
            else ((dsts,) if dsts is not None else ())
        )
        return self.add(at_us, "partition_oneway", src, d)

    def isolate(self, at_us: float, target) -> "FaultSchedule":
        """Cut one host (or symbolic target) off from everyone."""
        return self.add(at_us, "isolate", target)

    def heal(self, at_us: float) -> "FaultSchedule":
        """Remove every partition created so far."""
        return self.add(at_us, "heal")

    # -- builder: message faults ----------------------------------------------

    def drop_messages(
        self, at_us: float, fraction: float, streams: Optional[Tuple[str, ...]] = None
    ) -> "FaultSchedule":
        """Drop a seeded random *fraction* of matching messages."""
        return self.add(at_us, "drop_messages", float(fraction), streams)

    def delay_messages(
        self,
        at_us: float,
        extra_us: float,
        fraction: float = 1.0,
        streams: Optional[Tuple[str, ...]] = None,
    ) -> "FaultSchedule":
        """Add *extra_us* of latency to a fraction of matching messages.

        Note RC queue pairs never reorder (:meth:`Rnic.ordered_deliver`
        clamps arrivals); delaying the ``"rdma"`` stream would break that
        model invariant, so pass explicit *streams* that exclude it —
        the default targets RPC traffic only.
        """
        chosen = streams if streams is not None else ("net", "rpc")
        return self.add(at_us, "delay_messages", float(extra_us), float(fraction), chosen)

    def duplicate_messages(
        self, at_us: float, fraction: float, streams: Optional[Tuple[str, ...]] = None
    ) -> "FaultSchedule":
        """Deliver an extra copy of a fraction of matching messages.

        Duplicating the ``"rdma"`` stream is safe: WRITEs/READs are
        idempotent and a re-applied CAS fails its compare — exactly how
        a retransmitted one-sided verb behaves on real hardware.
        """
        return self.add(at_us, "duplicate_messages", float(fraction), streams)

    def clear_message_faults(self, at_us: float) -> "FaultSchedule":
        """Stop dropping/delaying/duplicating from *at_us* on."""
        return self.add(at_us, "clear_message_faults")

    # -- builder: device faults -----------------------------------------------

    def fail_nic(self, at_us: float, target) -> "FaultSchedule":
        """Push the target host's NIC queue pairs into the error state."""
        return self.add(at_us, "fail_nic", target)

    def restore_nic(self, at_us: float, target) -> "FaultSchedule":
        """Recover a previously failed NIC."""
        return self.add(at_us, "restore_nic", target)

    def stall_cpu(
        self, at_us: float, target, duration_us: float, cores: int = 1
    ) -> "FaultSchedule":
        """Steal *cores* of the target host's CPU for *duration_us*
        (models a noisy neighbour / GC pause, not a failure)."""
        return self.add(at_us, "stall_cpu", target, float(duration_us), int(cores))

    # -- builder: probes --------------------------------------------------------

    def probe(self, at_us: float, fn: Callable, label: str = "probe") -> "FaultSchedule":
        """Run ``fn(cluster)`` at *at_us* — measurement hooks, not faults.

        The callable makes the schedule unhashable for exact comparison;
        :meth:`signature` represents it by *label*, so name probes
        distinctly when traces must distinguish them.
        """
        self.actions.append(FaultAction(float(at_us), "probe", (label, fn)))
        return self

    # -- interop ----------------------------------------------------------------

    def to_timeline_events(self):
        """Render as ``(at_us, label, fn)`` triples for
        :func:`repro.bench.runner.run_timeline`.  A single controller is
        created lazily against whatever cluster the runner passes in, so
        benchmarks keep their driver unchanged."""
        from repro.chaos.controller import ChaosController

        controllers = {}

        def apply(action: FaultAction):
            def fn(cluster):
                controller = controllers.get(id(cluster))
                if controller is None:
                    controller = controllers[id(cluster)] = ChaosController(cluster)
                controller.apply(action)

            return fn

        return [(a.at_us, a.label, apply(a)) for a in self.sorted_actions()]
