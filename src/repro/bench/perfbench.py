"""Wall-clock performance harness for the simulator itself.

Everything else in :mod:`repro.bench` measures *simulated* time, which
is deterministic and host-independent.  This module measures the other
axis — how fast the host chews through simulated work:

* **RDMA loopback** drives read/write verbs through a queue pair
  between two hosts and reports verbs/sec.
* **Coalesced fig5 driver** times one write-only Figure 5 point at
  ``--smoke`` scale on the plain stack and on the batching stack
  (doorbell verb flushes + WAL-append coalescing) and reports the
  simulated and the driven speedup.
* **Open-loop generator** times vectorized arrival generation against
  the scalar per-client loop drawing the identical columns.
* **Parallel sweep scaling** times a two-point sweep at ``--jobs 1``
  and ``--jobs 2``; the ratio only exceeds ~1.0 on multi-core hosts,
  which is why the artifact records ``host.cpu_count``.

End-to-end host time per workload and per layer is the job of
``benchmarks/e2e``; this harness keeps the ratios that gate.

Results go to ``PERF_perfbench.json`` (:func:`repro.obs.artifact.
write_perf_artifact`).  Absolute rates are host properties and never
strictly compared, but the *ratios* are host independent enough to gate
on: ``--gate`` loads the committed floors
(``benchmarks/perf/perf_floors.json``), checks every floored metric,
and exits non-zero if any ratio regressed below its floor.  Floors are
set well under the measured ratios to absorb CI-host noise; a genuine
regression (e.g. losing append coalescing or the vectorized generator)
undershoots them by a wide margin.

Example::

    PYTHONPATH=src python -m repro.bench.perfbench --out-dir bench_artifacts
    PYTHONPATH=src python -m repro.bench.perfbench --quick --gate  # CI lane
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.bench.calibration import SMOKE_SCALE
from repro.bench.parallel import Point, run_points
from repro.bench.points import throughput_point
from repro.bench.report import kv_table
from repro.bench.runner import run_throughput
from repro.bench.systems import sift_spec
from repro.net.fabric import Fabric
from repro.obs.artifact import write_perf_artifact
from repro.rdma.listener import RdmaListener
from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import Rnic
from repro.rdma.qp import QueuePair
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.workloads import WORKLOADS

__all__ = ["main", "run_perfbench", "load_floors", "check_floors"]


def _timed(fn: Callable[[], int], repeat: int) -> Dict[str, float]:
    """Best-of-*repeat* wall time for *fn*; returns work count and rates."""
    best = float("inf")
    count = 0
    for _ in range(repeat):
        gc.collect()
        started = time.perf_counter()
        count = fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return {"count": count, "wall_s": best, "per_s": count / best}


# -- RDMA loopback -----------------------------------------------------------


def _rdma_loopback(n: int) -> int:
    """n write+read verb pairs across a queue pair; returns verb count."""
    sim = Simulator()
    fabric = Fabric(sim, rng=RngStreams(seed=1))
    target = fabric.add_host("target", cores=1)
    requester = fabric.add_host("requester", cores=2)
    listener = RdmaListener(target)
    region = MemoryRegion("data", 4096)
    listener.export(region)
    qp = QueuePair(Rnic(requester, fabric), listener)
    payload = b"x" * 64

    def proc():
        yield requester.spawn(qp.connect(["data"]))
        for _ in range(n):
            yield qp.write("data", 0, payload)
            yield qp.read("data", 0, 64)

    done = sim.spawn(proc(), name="rdma-loopback")
    sim.run()
    assert done.ok, done.exception
    return 2 * n


# -- coalesced fig5 driver (the doorbell/coalescing payoff) ------------------

COALESCED_WORKLOAD = "write-only"
COALESCED_CLIENTS = 24


def _coalesced_point(coalesced: bool):
    """One write-only Figure 5 point; *coalesced* turns on the batching
    stack (doorbell verb flushes + WAL-append coalescing)."""
    spec = sift_spec(
        cores=12,
        scale=SMOKE_SCALE,
        kv_overrides={"coalesce_appends": True} if coalesced else None,
        sift_overrides={"doorbell_batching": True} if coalesced else None,
    )
    return run_throughput(
        spec,
        WORKLOADS[COALESCED_WORKLOAD],
        n_clients=COALESCED_CLIENTS,
        scale=SMOKE_SCALE,
        seed=1,
    )


def _coalesced_fig5_section(repeat: int, log) -> Dict[str, object]:
    """Plain stack vs batching stack on the same workload.

    The simulated numbers legitimately differ — that is the modelled
    amortization (``simulated_speedup``, deterministic).
    ``driven_speedup`` is the host side of it: wall time of the plain
    stack (per-record appends, per-verb doorbells) over wall time of
    the batching stack driving the same workload.
    """
    stacks = {"plain": False, "coalesced": True}
    results: Dict[str, object] = {}
    walls = {name: float("inf") for name in stacks}
    for _ in range(repeat):  # stacks interleaved per repetition
        for name, coalesced in stacks.items():
            gc.collect()
            started = time.perf_counter()
            results[name] = _coalesced_point(coalesced)
            walls[name] = min(walls[name], time.perf_counter() - started)
    plain, coal = results["plain"], results["coalesced"]
    section = {
        "system": "sift",
        "workload": COALESCED_WORKLOAD,
        "clients": COALESCED_CLIENTS,
        "plain_ops_per_sec": plain.ops_per_sec,
        "coalesced_ops_per_sec": coal.ops_per_sec,
        "simulated_speedup": coal.ops_per_sec / plain.ops_per_sec,
        "plain_wall_s": walls["plain"],
        "coalesced_wall_s": walls["coalesced"],
        "driven_speedup": walls["plain"] / walls["coalesced"],
    }
    log(
        f"coalesced-fig5: {section['coalesced_ops_per_sec']:,.0f} ops/s simulated "
        f"({section['simulated_speedup']:.2f}x vs plain), driven "
        f"{section['driven_speedup']:.2f}x vs plain stack"
    )
    return section


# -- open-loop arrival generation vs per-client scalar loop ------------------

OPENLOOP_SHARDS = 2
OPENLOOP_WINDOW = 4_096
OPENLOOP_POPULATION = 1_000_000


def _openloop_generators():
    """Two :class:`ArrivalGenerator` instances on identical seeds.

    Both draw from the same named RNG streams, so the vectorized batch
    path and the scalar per-op path (what a closed-loop client pool
    performs per operation: one Zipf CDF inversion, one coin flip, one
    client draw, one key render + SHA-1 ring walk) must produce
    identical columns — "equal simulated results".
    """
    from repro.shard.hashing import HashRing
    from repro.workloads.generator import StripedZipfSampler
    from repro.workloads.openloop import ArrivalGenerator

    def build():
        sim = Simulator()
        fabric = Fabric(sim, rng=RngStreams(seed=1))
        ring = HashRing([f"shard{i}" for i in range(OPENLOOP_SHARDS)])
        sampler = StripedZipfSampler(SMOKE_SCALE.keys, ring)
        generator = ArrivalGenerator(
            fabric,
            WORKLOADS["read-heavy"],
            sampler,
            n_clients=OPENLOOP_POPULATION,
            n_shards=OPENLOOP_SHARDS,
        )
        return generator, ring

    return build


def _openloop_generator_section(arrivals: int, repeat: int, log) -> Dict[str, object]:
    """Arrival-generation throughput: vectorized batches vs scalar loop.

    The scalar side charges exactly the per-op work of today's
    closed-loop pool inner loop (``ZipfSampler.sample`` + coin + ring
    walk); the vectorized side is the open-loop engine's per-window
    batch.  Column equality is asserted outside the timed region, so
    the ratio compares equal work, not approximately-similar work.
    """
    import numpy as np

    build = _openloop_generators()
    windows = max(1, arrivals // OPENLOOP_WINDOW)
    count = windows * OPENLOOP_WINDOW

    # Equality check (untimed): the two paths draw identical columns.
    vector_gen, _ = build()
    scalar_gen, ring = build()
    probe = min(OPENLOOP_WINDOW, count)
    vector_batch = vector_gen.batch(probe)
    scalar_batch = scalar_gen.scalar_batch(probe, ring=ring)
    identical = all(
        np.array_equal(a, b) for a, b in zip(vector_batch, scalar_batch)
    )
    if not identical:
        raise AssertionError(
            "vectorized and scalar arrival columns disagree on equal seeds"
        )

    # Timed region: generation only.  The generators are built once —
    # consuming further along the same streams costs the same per draw,
    # and sampler construction is figure *setup*, not arrival throughput.
    def vector_run() -> int:
        for _ in range(windows):
            vector_gen.batch(OPENLOOP_WINDOW)
        return count

    def scalar_run() -> int:
        for _ in range(windows):
            scalar_gen.scalar_batch(OPENLOOP_WINDOW, ring=ring)
        return count

    vector = _timed(vector_run, repeat)
    scalar = _timed(scalar_run, repeat)
    section = {
        "arrivals": count,
        "window": OPENLOOP_WINDOW,
        "shards": OPENLOOP_SHARDS,
        "clients_population": OPENLOOP_POPULATION,
        "vector_wall_s": vector["wall_s"],
        "scalar_wall_s": scalar["wall_s"],
        "vector_arrivals_per_s": vector["per_s"],
        "scalar_arrivals_per_s": scalar["per_s"],
        "generation_speedup": scalar["wall_s"] / vector["wall_s"],
        "columns_identical": identical,
    }
    log(
        f"openloop generator: {vector['per_s']:,.0f} arrivals/s vectorized "
        f"({section['generation_speedup']:.1f}x the scalar per-client loop)"
    )
    return section


# -- parallel sweep scaling --------------------------------------------------


def _sweep_points():
    return [
        Point(
            key=f"{system}/read-heavy",
            fn=throughput_point,
            kwargs={
                "system": system,
                "workload": "read-heavy",
                "clients": SMOKE_SCALE.clients,
                "cores": 12,
                "scale": SMOKE_SCALE,
                "seed": 1,
            },
        )
        for system in ("sift", "raft-r")
    ]


def _parallel_section(log) -> Dict[str, float]:
    walls = {}
    values = {}
    for jobs in (1, 2):
        gc.collect()
        started = time.perf_counter()
        values[jobs] = run_points(_sweep_points(), jobs=jobs)
        walls[jobs] = time.perf_counter() - started
    if values[1] != values[2]:
        raise AssertionError(
            f"job counts disagree: jobs1={values[1]} jobs2={values[2]}"
        )
    section = {
        "points": 2,
        "jobs1_wall_s": walls[1],
        "jobs2_wall_s": walls[2],
        "scaling": walls[1] / walls[2],
        "results_identical": True,
    }
    log(f"parallel sweep: jobs=2 is {section['scaling']:.2f}x jobs=1 "
        "(expect ~1.0 on a single-core host)")
    return section


# -- perf-regression gate ----------------------------------------------------

FLOORS_PATH = Path(__file__).resolve().parents[3] / "benchmarks" / "perf" / "perf_floors.json"


def load_floors(path: Optional[Path] = None) -> Dict[str, float]:
    """Load the committed ratio floors (``{"floors": {dotted.path: min}}``)."""
    with open(path or FLOORS_PATH) as fh:
        data = json.load(fh)
    return {str(key): float(value) for key, value in data["floors"].items()}


def check_floors(
    results: Dict[str, object], floors: Dict[str, float]
) -> List[str]:
    """Check every floored metric; returns human-readable violations.

    Keys are dotted paths into the results dict
    (``coalesced_fig5.driven_speedup``).  A missing path is itself a
    violation — a renamed or dropped scenario must not silently pass.
    """
    violations: List[str] = []
    for dotted, floor in sorted(floors.items()):
        node: object = results
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                violations.append(f"{dotted}: metric missing from results")
                node = None
                break
            node = node[part]
        if node is None:
            continue
        value = float(node)  # type: ignore[arg-type]
        if value < floor:
            violations.append(f"{dotted}: {value:.2f} < floor {floor:.2f}")
    return violations


# -- harness -----------------------------------------------------------------


def run_perfbench(
    rdma_verbs: int = 5_000,
    repeat: int = 3,
    arrivals: int = 100_000,
    log: Callable[[str], None] = lambda line: print(line, file=sys.stderr),
) -> Dict[str, object]:
    """Run every section; returns the artifact's results dict."""
    results: Dict[str, object] = {}
    timing = _timed(lambda: _rdma_loopback(rdma_verbs), repeat)
    results["rdma_loopback"] = {
        "verbs": timing["count"],
        "wall_s": timing["wall_s"],
        "verbs_per_s": timing["per_s"],
    }
    log(f"rdma loopback: {timing['per_s']:,.0f} verbs/s")
    results["coalesced_fig5"] = _coalesced_fig5_section(repeat, log)
    results["openloop_generator"] = _openloop_generator_section(
        arrivals, repeat, log
    )
    results["parallel_sweep"] = _parallel_section(log)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perfbench",
        description="Measure host verbs/sec, arrivals/sec and stack speedups.",
    )
    parser.add_argument("--out-dir", default="bench_artifacts",
                        help="directory for the PERF_perfbench.json artifact")
    parser.add_argument("--rdma-verbs", type=int, default=5_000,
                        help="verb pairs for the RDMA loopback benchmark")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best-of)")
    parser.add_argument("--arrivals", type=int, default=100_000,
                        help="arrivals for the open-loop generator benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="CI sizing: fewer verbs and arrivals, single "
                             "repetition")
    parser.add_argument("--gate", action="store_true",
                        help="check the gated ratios against the committed "
                             "floors and exit non-zero on any miss")
    parser.add_argument("--floors", default=None,
                        help="override the floors file "
                             f"(default: {FLOORS_PATH})")
    args = parser.parse_args(argv)
    if args.quick:
        args.rdma_verbs = min(args.rdma_verbs, 2_000)
        args.arrivals = min(args.arrivals, 32_768)
        args.repeat = 1
    if args.gate:
        # Ratios from a single repetition are too noisy to gate on
        # (best-of-1 conflates stack speed with scheduler jitter).
        args.repeat = max(args.repeat, 2)
        floors = load_floors(Path(args.floors) if args.floors else None)

    results = run_perfbench(
        rdma_verbs=args.rdma_verbs, repeat=args.repeat, arrivals=args.arrivals,
    )
    coalesced = results["coalesced_fig5"]
    openloop = results["openloop_generator"]
    sweep = results["parallel_sweep"]
    print(kv_table(
        "perfbench: wall-clock rates",
        [
            ("rdma loopback",
             f"{results['rdma_loopback']['verbs_per_s']:,.0f} verbs/s"),
            ("coalesced fig5 point",
             f"{coalesced['simulated_speedup']:.2f}x simulated, "
             f"{coalesced['driven_speedup']:.2f}x driven"),
            ("openloop generator",
             f"{openloop['vector_arrivals_per_s']:,.0f} arrivals/s, "
             f"{openloop['generation_speedup']:.1f}x scalar loop"),
            ("sweep jobs=2 vs jobs=1", f"{sweep['scaling']:.2f}x"),
        ],
    ))
    path = write_perf_artifact(
        args.out_dir,
        "perfbench",
        results,
        params={
            "rdma_verbs": args.rdma_verbs,
            "repeat": args.repeat,
            "arrivals": args.arrivals,
            "scale": "smoke",
        },
    )
    print(f"  wrote {path}", file=sys.stderr)
    if args.gate:
        violations = check_floors(results, floors)
        if violations:
            for violation in violations:
                print(f"PERF-GATE FAIL {violation}", file=sys.stderr)
            return 1
        print(f"PERF-GATE OK ({len(floors)} floors held)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
