"""repro.obs — structured observability for the whole stack.

Three pieces, all off by default and ~free when disabled:

* **Tracing** (:mod:`repro.obs.trace`): spans and point events keyed to
  the simulator's virtual clock, reconstructing one client operation as
  a causal tree (queue-pair post -> NIC service -> fabric delivery ->
  remote apply -> ack).
* **Metrics** (:mod:`repro.obs.registry`): labelled counters, gauges
  and histograms — verbs by type, wire bytes, core-microseconds per
  node, RPC vs one-sided ratio, cache hit rate — published by the
  bench harness and the chaos runner.
* **Artifacts** (:mod:`repro.obs.artifact`, :mod:`repro.obs.compare`):
  every figure driver writes a versioned ``BENCH_<figure>.json``
  (simulated series + registry snapshot + seeds + git SHA + wall
  clock); the compare CLI diffs two artifacts with zero tolerance on
  the seed-deterministic sections.

Enable everything for one experiment::

    from repro import obs

    with obs.observe() as (tracer, registry):
        result = run_throughput(spec, mix)
    print(tracer.render_tree())
    print(registry.snapshot())

Instrumentation sites gate on :data:`repro.obs.state.TRACER` /
:data:`repro.obs.state.REGISTRY` being non-None, so disabled runs keep
the exact seed schedule (pinned by ``tests/test_obs_determinism.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from repro.obs import state
from repro.obs.artifact import (
    ARTIFACT_KIND,
    ARTIFACT_SCHEMA_VERSION,
    ArtifactError,
    artifact_filename,
    load_artifact,
    make_artifact,
    validate_artifact,
    write_artifact,
)
from repro.obs.flight import FlightRecorder, maybe_postmortem, write_postmortem
from repro.obs.publish import publish_run
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SloHistogram,
    collecting,
    current_registry,
    set_registry,
)
from repro.obs.stats import StatsSnapshot
from repro.obs.trace import (
    Span,
    Tracer,
    current_tracer,
    set_tracer,
    span_sort_key,
    tracing,
)

__all__ = [
    "ARTIFACT_KIND",
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactError",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SloHistogram",
    "Span",
    "StatsSnapshot",
    "Tracer",
    "artifact_filename",
    "collecting",
    "compare_artifacts",
    "current_registry",
    "current_tracer",
    "enabled",
    "load_artifact",
    "make_artifact",
    "maybe_postmortem",
    "observe",
    "publish_run",
    "set_registry",
    "set_tracer",
    "span_sort_key",
    "state",
    "tracing",
    "validate_artifact",
    "write_artifact",
    "write_postmortem",
]

enabled = state.enabled


def __getattr__(name):
    # Lazy so `python -m repro.obs.compare` does not re-import the
    # module it is about to execute (runpy would warn).
    if name == "compare_artifacts":
        from repro.obs.compare import compare_artifacts

        return compare_artifacts
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@contextmanager
def observe(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[Tuple[Tracer, MetricsRegistry]]:
    """Enable tracing *and* metric collection for a ``with`` block."""
    with tracing(tracer) as active_tracer:
        with collecting(registry) as active_registry:
            yield active_tracer, active_registry
