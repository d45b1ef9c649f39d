"""Flight recorder: a bounded ring of recent spans, dumped on failure.

A :class:`FlightRecorder` is a :class:`~repro.obs.trace.Tracer` whose
span store is a fixed-capacity ring — recording stays O(1) and memory
stays bounded no matter how long the run, so chaos schedules keep it
installed for the whole experiment at negligible cost (tracing remains
zero-perturbation: no RNG, no scheduling, caller-provided timestamps).

When something trips — a chaos invariant violation, a
:class:`~repro.core.recovery.RecoveryIntegrityError` — call
:func:`maybe_postmortem` from the failure path: it snapshots the ring
plus the active metrics registry into a ``POSTMORTEM_*.json`` file and
returns the path (or None when no tracer is installed), so the raised
error can point at the evidence.  Postmortem files feed straight into
``python -m repro.obs.export`` for a Perfetto view of the final
moments before the failure.

The dump directory defaults to ``postmortems/`` under the working
directory; set ``REPRO_POSTMORTEM_DIR`` to redirect it (tests point it
at a tmpdir, CI uploads it on failure).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Dict, Optional

from repro.obs import state
from repro.obs.trace import Tracer

__all__ = [
    "POSTMORTEM_KIND",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "postmortem_doc",
    "write_postmortem",
    "maybe_postmortem",
]

POSTMORTEM_KIND = "repro.obs.postmortem"
_POSTMORTEM_SCHEMA_VERSION = 1

#: Default ring capacity: recent-history window, not a full trace.
DEFAULT_CAPACITY = 4096

_ENV_DIR = "REPRO_POSTMORTEM_DIR"
_DEFAULT_DIR = "postmortems"


class FlightRecorder(Tracer):
    """A tracer whose span store is a bounded ring (oldest evicted first).

    Spans evicted from the ring simply disappear; children whose parent
    was evicted render as top-level trees (see ``Tracer.roots``).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        # deque(maxlen=...) turns every append into append+evict once
        # full; all Tracer queries only iterate, so the swap is safe.
        self.spans = deque(maxlen=capacity)  # type: ignore[assignment]


def postmortem_doc(
    reason: str,
    tracer: Optional[Tracer] = None,
    registry: Optional[Any] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the postmortem document (not yet written)."""
    return {
        "kind": POSTMORTEM_KIND,
        "schema_version": _POSTMORTEM_SCHEMA_VERSION,
        "reason": reason,
        "spans": tracer.to_dicts() if tracer is not None else [],
        "ring_capacity": getattr(tracer, "capacity", None),
        "registry": registry.snapshot() if registry is not None else None,
        "extra": dict(extra or {}),
        "created_unix": time.time(),
    }


def _slug(reason: str, limit: int = 48) -> str:
    out = []
    for ch in reason.lower():
        if ch.isalnum():
            out.append(ch)
        elif out and out[-1] != "-":
            out.append("-")
    return "".join(out).strip("-")[:limit] or "failure"


def write_postmortem(
    reason: str,
    tracer: Optional[Tracer] = None,
    registry: Optional[Any] = None,
    out_dir: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Write a postmortem JSON file and return its path.

    Filenames are ``POSTMORTEM_<slug>.json`` with a numeric suffix when
    the name is already taken, so repeated failures never overwrite
    each other's evidence.
    """
    doc = postmortem_doc(reason, tracer=tracer, registry=registry, extra=extra)
    directory = out_dir or os.environ.get(_ENV_DIR) or _DEFAULT_DIR
    os.makedirs(directory, exist_ok=True)
    base = _slug(reason)
    path = os.path.join(directory, f"POSTMORTEM_{base}.json")
    suffix = 1
    while os.path.exists(path) and suffix < 1000:
        path = os.path.join(directory, f"POSTMORTEM_{base}-{suffix}.json")
        suffix += 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def maybe_postmortem(
    reason: str,
    registry: Optional[Any] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Dump a postmortem from the *installed* tracer, if there is one.

    The error-raising call sites use this: it never raises (a failed
    dump must not mask the original failure) and returns None when no
    tracer is active, so un-instrumented runs lose nothing.
    """
    tracer = state.TRACER
    if tracer is None:
        return None
    if registry is None:
        registry = state.REGISTRY
    try:
        return write_postmortem(reason, tracer=tracer, registry=registry, extra=extra)
    except Exception:  # whatever the dump died of, the caller's error matters more
        return None
