#!/usr/bin/env python3
"""The end-to-end benchmark: four workloads on both clocks.

    python3 benchmarks/e2e/run.py --seed 1 --out bench_artifacts/e2e

runs every workload (K timed rounds round-robin, then a counted and a
profiled pass each, every workload in its own child interpreter, one at
a time), prints every metric by name with its unit, checks the outputs,
and exits non-zero when one is wrong.  The harness form,

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process for about S seconds and prints one
JSON object as its last line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  README.md defines every
workload and metric.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
# The harness names no file outside this directory on its command line,
# so the package under test is put on the path here.
for _path in (os.path.join(ROOT, "src"), HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
from scenarios import SCENARIOS, CorrectnessError, Run, Scenario, run_scenario  # noqa: E402

from repro.obs import MetricsRegistry  # noqa: E402

#: (name, unit, better, bound): *bound* is the share of the parent's
#: median by which the metric may worsen before a change is a
#: regression, for medians over runs of the harness form with different
#: seeds; each sits at three times or more the widest seed-to-seed
#: spread measured on any workload (README.md has the numbers).  With
#: the *same* seed every ``sim_*`` metric repeats exactly, which
#: ``check_repeat.py`` holds the full command to.
END_TO_END = (
    ("sim_ops_per_s", "ops/s", "higher", 0.03),
    ("sim_p50_us", "us", "lower", 0.03),
    ("sim_p99_us", "us", "lower", 0.03),
    ("host_ops_per_s", "ops/cpu-s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)
#: Rounds per workload for the full command; the timed floor otherwise.
DEFAULT_ROUNDS = 5
MIN_TIMED_ROUNDS = 3


def slice_minimum(rounds: List[List[float]]) -> float:
    """Sum over slices of the least time any round spent in that slice.

    Slice *i* does identical work in every round, so its least time is
    the best estimate of that work's cost; a disturbance has to cover
    slice *i* of every round to move the sum.
    """
    if len({len(r) for r in rounds}) != 1:
        raise ValueError("rounds disagree on the number of slices")
    return sum(min(column) for column in zip(*rounds))


class Worker:
    """Every pass of one workload, and the metrics they add up to."""

    def __init__(self, scenario: Scenario, seed: int, window_scale: float, out_dir: str):
        self.scenario = scenario
        self.seed = seed
        self.window_scale = window_scale
        self.out_dir = out_dir
        self.rounds: List[Run] = []
        self.counted_run: Optional[Run] = None
        self.counted_layers: Dict[str, float] = {}
        self.profiled_run: Optional[Run] = None
        self.profiled_layers: Dict[str, float] = {}

    # -- passes ------------------------------------------------------------

    def _agree(self, run: Run, label: str) -> None:
        """Same seed, same simulated numbers, observed or not."""
        if not self.rounds:
            return
        first = self.rounds[0]
        pairs = [(k, first.sim[k], run.sim[k]) for k in sorted(first.sim) if k in run.sim]
        pairs += [
            (k, getattr(first, k), getattr(run, k))
            for k in ("attempted", "failed", "completed")
        ]
        for key, expected, got in pairs:
            if expected != got:
                raise CorrectnessError(
                    f"{self.scenario.name}: {label} disagrees with round 1 on "
                    f"{key}: {got!r} != {expected!r}"
                )

    def round(self) -> None:
        run = run_scenario(self.scenario, self.seed, self.window_scale)
        self._agree(run, f"round {len(self.rounds) + 1}")
        self.rounds.append(run)

    def counted(self) -> None:
        registry = MetricsRegistry()
        run = run_scenario(self.scenario, self.seed, self.window_scale, registry=registry)
        self._agree(run, "the counted pass")
        self.counted_layers = layers.counted_metrics(registry, run)
        self.counted_run = run

    def profiled(self) -> None:
        profiler = cProfile.Profile()
        run = run_scenario(self.scenario, self.seed, self.window_scale, profiler=profiler)
        self._agree(run, "the profiled pass")
        self.profiled_layers = layers.profiled_metrics(profiler, run.completed)
        self.profiled_run = run
        os.makedirs(self.out_dir, exist_ok=True)
        stem = os.path.join(self.out_dir, self.scenario.name)
        profiler.dump_stats(stem + ".pstats")
        with open(stem + ".layers.json", "w") as handle:
            json.dump(layers.layer_table(profiler), handle, indent=1, sort_keys=True)

    # -- metrics -----------------------------------------------------------

    def results(self) -> dict:
        """Every metric the passes run so far support."""
        first = self.rounds[0]
        measure_s = slice_minimum([r.slice_s for r in self.rounds])
        totals = [sum(r.slice_s) for r in self.rounds]
        sim = dict(first.sim)
        if self.counted_run is not None:
            sim.update(self.counted_run.sim)  # open-loop latency lives there

        def least(part: str) -> float:
            return min(getattr(r, part) for r in self.rounds)

        setups = [r.build_s + r.preload_s + r.loadgen_build_s for r in self.rounds]
        end_to_end = {
            "sim_ops_per_s": sim["sim_ops_per_s"],
            "sim_p50_us": sim.get("sim_p50_us"),
            "sim_p99_us": sim.get("sim_p99_us"),
            "host_ops_per_s": first.completed / measure_s,
            "setup_s": min(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_layer = dict(self.counted_layers)
        per_layer.update(self.profiled_layers)
        per_layer.update(
            {
                "bench.build_s": least("build_s"),
                "bench.preload_s": least("preload_s"),
                "bench.loadgen_build_s": least("loadgen_build_s"),
                "bench.warmup_s": least("warmup_s"),
                "bench.measure_s": measure_s,
                "bench.host_noise_ratio": statistics.median(totals) / measure_s,
            }
        )
        if self.counted_run is not None:
            per_layer["obs.registry_overhead_ratio"] = (
                sum(self.counted_run.slice_s) / measure_s
            )
        if self.profiled_run is not None:
            per_layer["obs.profile_overhead_ratio"] = (
                sum(self.profiled_run.slice_s) / measure_s
            )
            per_layer["sim.host_events_per_s"] = (
                per_layer["sim.events_per_op"] * first.completed / measure_s
            )
        return {
            "workload": self.scenario.name,
            "seed": self.seed,
            "rounds": len(self.rounds),
            "attempted": first.attempted,
            "failed": first.failed,
            "completed": first.completed,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "injected_delays": (
                self.counted_run.injected_delays if self.counted_run is not None else {}
            ),
            "host_timing": {
                "slice_minimum_s": measure_s,
                "best_round_s": min(totals),
                "median_round_s": statistics.median(totals),
                "round_s": totals,
                "setup_round_s": setups,
            },
        }


# -- one workload in this process -----------------------------------------------


def run_one(
    worker: Worker, trace: Optional[int], rounds: int, seconds: Optional[float]
) -> dict:
    """Rounds interleaved with the passes *trace* asks for.

    Without *seconds*: exactly *rounds* rounds.  With it: rounds fill
    that much wall time (at least ``MIN_TIMED_ROUNDS``), so they span
    the tens of seconds a host disturbance lasts.
    """
    extras = [worker.counted, worker.profiled]
    if trace == 0:
        # The end-to-end latency of an open loop needs the registry.
        extras = [worker.counted] if worker.scenario.open_loop else []
    deadline = None if seconds is None else time.monotonic() + seconds
    floor = rounds if deadline is None else MIN_TIMED_ROUNDS
    while True:
        started = time.monotonic()
        worker.round()
        round_wall = time.monotonic() - started
        if extras:
            extras.pop(0)()
        if len(worker.rounds) < floor or extras:
            continue
        if deadline is None or time.monotonic() + round_wall > deadline:
            return worker.results()


def serve(worker: Worker) -> int:
    """Child side of the full command: one pass per line on stdin."""
    passes = {"round": worker.round, "counted": worker.counted, "profiled": worker.profiled}
    print("ready", flush=True)  # imports done: the parent may start timing others
    for line in sys.stdin:
        command = line.strip()
        if command == "report":
            print(json.dumps(worker.results()), flush=True)
            return 0
        passes[command]()
        print("done", flush=True)
    return 1


# -- every workload, one child each ---------------------------------------------


def run_all(args) -> Dict[str, dict]:
    """Round *r* of every workload before round *r + 1* of any.

    A workload's rounds are then spread over the whole command, not
    back to back, which is what the slice minimum needs.  Each workload
    lives in a fresh child interpreter (so ``peak_rss_mb`` is its own);
    the children take turns, never running concurrently.
    """
    children: Dict[str, subprocess.Popen] = {}

    def reply(name: str, command: str) -> str:
        line = children[name].stdout.readline()
        if not line:
            raise CorrectnessError(f"{name}: the {command} pass failed (see above)")
        return line

    def tell(name: str, command: str) -> str:
        child = children[name]
        child.stdin.write(command + "\n")
        child.stdin.flush()
        return reply(name, command)

    try:
        for name in SCENARIOS:
            children[name] = subprocess.Popen(
                [
                    sys.executable, os.path.abspath(__file__), "--serve",
                    "--workload", name, "--seed", str(args.seed),
                    "--window-scale", repr(args.window_scale), "--out", args.out,
                ],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        for name in SCENARIOS:
            reply(name, "start-up")
        for command in ["round"] * args.rounds + ["counted", "profiled"]:
            for name in SCENARIOS:
                tell(name, command)
        return {name: json.loads(tell(name, "report")) for name in SCENARIOS}
    finally:
        for child in children.values():
            child.stdin.close()
        for child in children.values():
            try:
                child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()


# -- output ----------------------------------------------------------------------


def host_facts() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha or "unknown",
    }


def print_results(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['rounds']} rounds)")
    print(
        f"  ops_attempted {result['attempted']}  ops_failed {result['failed']}  "
        f"ops_completed {result['completed']}"
    )
    for name, unit, _better, _bound in END_TO_END:
        value = result["end_to_end"][name]
        if value is not None:
            print(f"  {name:32s} {value:16.4f} {unit}")
    timing = result["host_timing"]
    print(
        "  measured window, host CPU-s: slice minimum "
        f"{timing['slice_minimum_s']:.4f}, best round {timing['best_round_s']:.4f}, "
        f"median round {timing['median_round_s']:.4f}"
    )
    for name, unit, _better in layers.PER_LAYER:
        if name in result["per_layer"]:
            print(f"  {name:32s} {result['per_layer'][name]:16.4f} {unit}")


def harness_line(result: dict, trace: Optional[int]) -> str:
    """The one JSON object the harness reads from the last line."""
    metrics = {}
    if trace != 1:
        for name, unit, _better, _bound in END_TO_END:
            metrics[name] = {"value": result["end_to_end"][name], "unit": unit}
    if trace != 0:
        for name, unit, _better in layers.PER_LAYER:
            metrics[name] = {"value": result["per_layer"][name], "unit": unit}
    return json.dumps(
        {
            "correct": True,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def write_json(out_dir: str, filename: str, results: Dict[str, dict], args) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w") as handle:
        json.dump(
            {
                "benchmark": "e2e",
                "seed": args.seed,
                "window_scale": args.window_scale,
                "host": host_facts(),
                "uncovered_packages": list(layers.UNCOVERED),
                "workloads": results,
            },
            handle, indent=1, sort_keys=True,
        )
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SCENARIOS), help="run this one alone")
    parser.add_argument("--seed", type=int, default=1, help="seeds the generated inputs only")
    parser.add_argument(
        "--rounds", type=int, default=DEFAULT_ROUNDS, help="timed rounds per workload"
    )
    parser.add_argument(
        "--seconds", type=float, help="with --workload: rounds fill this much wall time"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="with --workload: 0 = end-to-end metrics only, 1 = per-layer only",
    )
    parser.add_argument(
        "--window-scale", type=float, default=1.0, help="shrink every measured window (tests)"
    )
    parser.add_argument("--out", default=os.path.join(ROOT, "bench_artifacts", "e2e"))
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.window_scale <= 0:
        parser.error("--rounds and --window-scale must be positive")
    alone = args.seconds is not None or args.trace is not None or args.serve
    if args.workload is None and alone:
        parser.error("--seconds and --trace need --workload")

    try:
        if args.workload is None:
            results = run_all(args)
            for result in results.values():
                print_results(result)
            print("uncovered packages:", ", ".join(layers.UNCOVERED))
            print("wrote", write_json(args.out, "e2e.json", results, args))
            return 0
        worker = Worker(SCENARIOS[args.workload], args.seed, args.window_scale, args.out)
        if args.serve:
            return serve(worker)
        result = run_one(worker, args.trace, args.rounds, args.seconds)
        print_results(result)
        write_json(args.out, f"e2e_{args.workload}.json", {args.workload: result}, args)
        print(harness_line(result, args.trace))
        return 0
    except CorrectnessError as error:
        print(f"FAILED: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
