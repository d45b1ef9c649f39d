"""Critical-path latency attribution over traced operation trees.

Walks a committed operation's span tree (a finished ``rpc.kv.*`` root
recorded by :class:`repro.obs.Tracer`) and splits its end-to-end
virtual-time latency into **exclusive, exhaustive** per-stage segments:

``rpc_in``
    client → leader RPC: request on the wire plus server receive
    queueing, up to the ``rpc.recv`` milestone.
``wal_write``
    leader-side admission, sequencing, and WAL record encoding, up to
    the ``repmem.fanout`` milestone (the moment replication begins).
``fanout``
    replication fan-out — per-replica posts or the coalesced doorbell
    flush wait — up to the last ``nic.serialised`` event before the
    quorum milestone.
``quorum``
    waiting for ``Fm + 1`` replica acks (``repmem.quorum``).
``apply``
    post-quorum leader work until the reply leaves the server
    (``rpc.reply``).
``serve``
    replaces ``wal_write``/``fanout``/``quorum``/``apply`` for
    operations with no replication milestones in their tree (cache-hit
    reads, baseline systems whose replication happens behind their own
    nested RPCs): everything between ``rpc.recv`` and ``rpc.reply``.
``ack``
    reply on the wire back to the client, closing the root span.

The segments telescope: their left-to-right sum equals the root span's
``duration_us`` **exactly** (bit-for-bit, enforced with a remainder
fix-up), so a stacked plot of the stages reconstructs the end-to-end
latency with zero residue.  Everything derives from virtual time, so
breakdowns are deterministic in the experiment seed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import percentile
from repro.obs.trace import Span, Tracer, span_sort_key

__all__ = [
    "STAGES",
    "attribute",
    "attribute_all",
    "aggregate",
    "critical_path_section",
]

#: Canonical stage order (stacked-bar order in the fig6path figure).
STAGES = ("rpc_in", "wal_write", "fanout", "quorum", "apply", "serve", "ack")

#: Root spans this module understands: client-observed KV operations.
_OP_PREFIX = "rpc.kv."


def _children_index(tracer: Tracer) -> Dict[int, List[Span]]:
    """parent_id -> children, built once so tree walks stay linear."""
    index: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.parent_id is not None:
            index.setdefault(span.parent_id, []).append(span)
    for kids in index.values():
        kids.sort(key=span_sort_key)
    return index


def _iter_subtree(root: Span, index: Dict[int, List[Span]]):
    stack = [root]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(index.get(span.span_id, ()))


def _milestones(root: Span, index: Dict[int, List[Span]]) -> Dict[str, float]:
    """Extract boundary timestamps from *root*'s subtree.

    Nested RPCs (baseline replication traffic) carry their own
    ``rpc.recv``/``rpc.reply`` instants, so those two are filtered to
    the root's own method before taking min/max.
    """
    method = root.name[len("rpc.") :]
    recv: Optional[float] = None
    reply: Optional[float] = None
    fanout: Optional[float] = None
    quorum_t: Optional[float] = None
    serialised: List[float] = []
    for span in _iter_subtree(root, index):
        name = span.name
        if name == "rpc.recv" and span.attrs.get("method") == method:
            if recv is None or span.start_us < recv:
                recv = span.start_us
        elif name == "rpc.reply" and span.attrs.get("method") == method:
            if reply is None or span.start_us > reply:
                reply = span.start_us
        elif name == "repmem.fanout":
            if fanout is None or span.start_us < fanout:
                fanout = span.start_us
        elif name == "repmem.quorum":
            if quorum_t is None or span.start_us < quorum_t:
                quorum_t = span.start_us
        elif name == "nic.serialised":
            serialised.append(span.start_us)
    out: Dict[str, float] = {}
    if recv is not None:
        out["recv"] = recv
    if fanout is not None:
        out["fanout"] = fanout
    if quorum_t is not None:
        out["quorum"] = quorum_t
        flushed = [t for t in serialised if t <= quorum_t]
        if flushed:
            out["serialised"] = max(flushed)
    if reply is not None:
        out["reply"] = reply
    return out


def attribute(
    tracer: Tracer, root: Span, _index: Optional[Dict[int, List[Span]]] = None
) -> Dict[str, Any]:
    """Per-operation breakdown for a finished ``rpc.kv.*`` root span.

    Returns ``{"op", "start_us", "duration_us", "segments"}`` where
    ``segments`` is an ordered list of ``[stage, microseconds]`` pairs
    whose left-to-right sum equals ``duration_us`` exactly.
    """
    if root.end_us is None:
        raise ValueError(f"span {root!r} is not finished")
    start, end = root.start_us, root.end_us
    duration = root.duration_us
    marks = _milestones(root, _index if _index is not None else _children_index(tracer))

    replicated = "fanout" in marks or "quorum" in marks
    boundary_plan: List[Tuple[str, Optional[float]]] = [
        ("rpc_in", marks.get("recv")),
        ("wal_write", marks.get("fanout")),
        ("fanout", marks.get("serialised")),
        ("quorum", marks.get("quorum")),
        ("apply" if replicated else "serve", marks.get("reply")),
    ]
    boundaries: List[Tuple[str, float]] = []
    floor = start
    for stage, at in boundary_plan:
        if at is None:
            continue
        at = min(max(at, floor), end)  # clamp monotonic within the root
        boundaries.append((stage, at))
        floor = at

    segments: List[List[Any]] = []
    prev = start
    for stage, at in boundaries:
        segments.append([stage, at - prev])
        prev = at
    segments.append(["ack", end - prev])

    # Enforce the exact-sum invariant: nudge the final segment until the
    # left-to-right float sum telescopes to the root duration bit for bit.
    for _ in range(4):
        total = 0.0
        for _stage, us in segments:
            total += us
        if total == duration:
            break
        segments[-1][1] += duration - total

    return {
        "op": root.name,
        "start_us": start,
        "duration_us": duration,
        "segments": segments,
    }


def attribute_all(tracer: Tracer, prefix: str = _OP_PREFIX) -> List[Dict[str, Any]]:
    """Breakdowns for every finished, successful *prefix* root span.

    Roots still open when the tracer was removed (operations in flight
    at the measurement boundary) and failed operations are skipped.
    """
    index = _children_index(tracer)
    out = []
    for root in tracer.roots():
        if not root.name.startswith(prefix):
            continue
        if root.end_us is None or root.attrs.get("ok") is False:
            continue
        out.append(attribute(tracer, root, _index=index))
    return out


def aggregate(breakdowns: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic per-stage statistics over many breakdowns.

    ``share`` is each stage's fraction of total attributed time, so the
    shares of the stages present always sum to ~1.0 and a stacked-mean
    bar of ``mean_us`` reconstructs the mean end-to-end latency.
    """
    durations: List[float] = []
    stage_samples: Dict[str, List[float]] = {}
    for breakdown in breakdowns:
        durations.append(breakdown["duration_us"])
        for stage, us in breakdown["segments"]:
            stage_samples.setdefault(stage, []).append(us)
    total_all = 0.0
    for duration in durations:
        total_all += duration
    stages: Dict[str, Any] = {}
    for stage in STAGES:
        samples = stage_samples.get(stage)
        if not samples:
            continue
        stage_sum = 0.0
        for sample in samples:
            stage_sum += sample
        stages[stage] = {
            "count": len(samples),
            "mean_us": stage_sum / len(samples),
            "p99_us": percentile(samples, 99.0),
            "share": (stage_sum / total_all) if total_all else 0.0,
        }
    duration_sum = 0.0
    for duration in durations:
        duration_sum += duration
    return {
        "count": len(durations),
        "duration_us": {
            "mean": (duration_sum / len(durations)) if durations else 0.0,
            "p50": percentile(durations, 50.0),
            "p99": percentile(durations, 99.0),
        },
        "stages": stages,
    }


def critical_path_section(
    tracer: Tracer, sample_ops: int = 8, prefix: str = _OP_PREFIX
) -> Dict[str, Any]:
    """The figure-ready digest of one traced run.

    Aggregates every finished operation and embeds the first
    *sample_ops* raw breakdowns so the committed artifact itself
    witnesses the exact-sum invariant.
    """
    by_op: Dict[str, List[Dict[str, Any]]] = {}
    for breakdown in attribute_all(tracer, prefix):
        by_op.setdefault(breakdown["op"], []).append(breakdown)
    return {
        op: {
            "aggregate": aggregate(breakdowns),
            "sampled_ops": breakdowns[:sample_ops],
        }
        for op, breakdowns in sorted(by_op.items())
    }
