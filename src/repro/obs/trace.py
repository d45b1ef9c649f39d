"""Span/event tracing keyed to the simulator's virtual clock.

A :class:`Span` is a named interval of virtual time with attributes and
a parent, so one client operation can be reconstructed as a causal tree
(queue-pair post -> NIC serialisation -> fabric delivery -> remote
apply -> ack).  An *instant* is a zero-duration span (a point event).

Timestamps are whatever clock the instrumentation site passes in —
always ``sim.now`` in this codebase — so traces are deterministic:
same seed, same trace, byte for byte.

Tracing is **off by default**.  Install a tracer for a region of code
with::

    with tracing() as tracer:
        ...run the experiment...
    print(tracer.render_tree())

Instrumented modules consult :data:`repro.obs.state.TRACER` and do
nothing (one ``is not None`` check) when it is unset.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.obs import state

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "span_sort_key",
    "tracing",
]


def span_sort_key(span: "Span") -> tuple:
    """Deterministic ordering: start time, then recording id.

    The id tie-break keeps instants stamped at the same virtual
    timestamp in a stable order across renders and exports.
    """
    return (span.start_us, span.span_id)


class Span:
    """A named interval of virtual time in a causal tree."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "start_us", "end_us", "attrs")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_us: float,
        attrs: Dict[str, Any],
    ):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_us = start_us
        self.end_us: Optional[float] = None
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has stamped an end time."""
        return self.end_us is not None

    @property
    def duration_us(self) -> Optional[float]:
        """Span length in virtual microseconds (None while open)."""
        if self.end_us is None:
            return None
        return self.end_us - self.start_us

    def annotate(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self

    def finish(self, now: float) -> "Span":
        """Close the span at virtual time *now* (idempotent)."""
        if self.end_us is None:
            self.end_us = now
        return self

    def child(self, name: str, now: float, **attrs: Any) -> "Span":
        """Open a child span under this one."""
        return self.tracer.span(name, now, parent=self, **attrs)

    def event(self, name: str, now: float, **attrs: Any) -> "Span":
        """Record a zero-duration child (a point event)."""
        return self.tracer.instant(name, now, parent=self, **attrs)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly rendering of the span."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dur = "open" if self.end_us is None else f"{self.duration_us:.2f}us"
        return f"<Span #{self.span_id} {self.name} @{self.start_us:.2f} {dur}>"


class Tracer:
    """Collects spans and instants; reconstructs causal trees.

    The tracer performs no I/O and consults no clock of its own: every
    record costs one object append, and all timestamps come from the
    caller, so enabling it never perturbs the simulated schedule.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        #: The ambient span context.  The simulator engine saves/restores
        #: this around each process step so spans opened by a resumed
        #: process parent under the operation that spawned it; recording
        #: sites may also read it directly for implicit parenting.
        self.current: Optional[Span] = None

    # -- recording -------------------------------------------------------

    def span(
        self, name: str, now: float, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Open a span starting at virtual time *now*.

        With no explicit *parent* the span attaches to the ambient
        context (:attr:`current`), falling back to a root span.  A
        parent recorded by a *different* tracer is ignored — the span
        becomes a root here rather than pointing at a foreign id.
        """
        if parent is None:
            parent = self.current
        if parent is not None and parent.tracer is not self:
            parent = None
        span = Span(
            self,
            next(self._ids),
            parent.span_id if parent is not None else None,
            name,
            now,
            attrs,
        )
        self.spans.append(span)
        return span

    def instant(
        self, name: str, now: float, parent: Optional[Span] = None, **attrs: Any
    ) -> Span:
        """Record a point event (a span with zero duration)."""
        return self.span(name, now, parent=parent, **attrs).finish(now)

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def named(self, name: str) -> List[Span]:
        """All spans with exactly this name."""
        return [s for s in self.spans if s.name == name]

    def roots(self) -> List[Span]:
        """Top-level spans, in recording order.

        Includes true roots (no parent) and *orphans*: spans whose
        parent id is not present in this tracer — e.g. the parent was
        recorded before a flight-recorder ring evicted it, or closed
        before the tracer was installed.  Orphans used to vanish from
        :meth:`render_tree`; they now render as top-level trees.
        """
        known = {s.span_id for s in self.spans}
        return [
            s
            for s in self.spans
            if s.parent_id is None or s.parent_id not in known
        ]

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of *span*, ordered by (start time, span id).

        The span-id tie-break gives instants recorded at the same
        virtual timestamp a stable, deterministic order.
        """
        kids = [s for s in self.spans if s.parent_id == span.span_id]
        kids.sort(key=span_sort_key)
        return kids

    def subtree(self, span: Span) -> List[Span]:
        """*span* plus every descendant, depth-first."""
        out = [span]
        for child in self.children_of(span):
            out.extend(self.subtree(child))
        return out

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Every span as a JSON-friendly dict, in recording order (of a
        snapshot: a collector pass finalising an earlier run's dead
        processes may record ``proc.crash`` here mid-walk)."""
        return [s.to_dict() for s in tuple(self.spans)]

    def render_tree(self, root: Optional[Span] = None, indent: str = "") -> str:
        """ASCII rendering of the causal tree (for humans and tests)."""
        lines: List[str] = []
        tops = [root] if root is not None else self.roots()
        for top in tops:
            self._render(top, indent, lines)
        return "\n".join(lines)

    def _render(self, span: Span, indent: str, lines: List[str]) -> None:
        dur = "…" if span.end_us is None else f"{span.duration_us:.2f}us"
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        lines.append(
            f"{indent}{span.name} [{span.start_us:.2f} +{dur}]"
            + (f" {attrs}" if attrs else "")
        )
        for child in self.children_of(span):
            self._render(child, indent + "  ", lines)


# -- installation ---------------------------------------------------------


def current_tracer() -> Optional[Tracer]:
    """The globally installed tracer, or None when tracing is off."""
    return state.TRACER


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Install (or, with None, remove) the global tracer; returns the old one."""
    previous = state.TRACER
    state.TRACER = tracer
    return previous


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Enable tracing for a ``with`` block; restores the previous tracer."""
    active = tracer if tracer is not None else Tracer()
    previous = set_tracer(active)
    try:
        yield active
    finally:
        set_tracer(previous)
