#!/usr/bin/env python
"""Append one end-to-end benchmark run to the host-time trajectory.

``benchmarks/e2e/run.py --seed 1 --out bench_artifacts/e2e`` overwrites
one snapshot (``e2e.json``); this keeps what a PR needs of each snapshot
as one line of ``benchmarks/perf/history.jsonl``: the git sha, and per
workload the six end-to-end metrics, the three parts of ``setup_s``,
``attempted`` / ``failed``, and every package's ``self_share`` and
``calls_per_op``.  Run from the repo root after the benchmark::

    python tools/e2e_history.py bench_artifacts/e2e/e2e.json --label "PR 13"

It only reads the benchmark's output.  After appending, it prints the
new line against the one before it: per workload, the six end-to-end
metrics and each package's ``calls_per_op``.  Host times compare
between lines taken on the same host (``nproc``/``python`` are
recorded); the ``calls_per_op`` columns are deterministic and compare
anywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_HISTORY = os.path.join(REPO_ROOT, "benchmarks", "perf", "history.jsonl")
#: The parts ``setup_s`` sums, filed beside it to show which one moved.
SETUP_PARTS = ("bench.build_s", "bench.preload_s", "bench.loadgen_build_s")


def _by_package(per_layer: Dict[str, float], suffix: str) -> Dict[str, float]:
    """``{"sim": v, ...}`` from the ``<package>.<suffix>`` layer metrics."""
    return {
        name[: -len(suffix) - 1]: round(value, 4)
        for name, value in sorted(per_layer.items())
        if name.endswith("." + suffix)
    }


def history_line(artifact: dict, label: str = "") -> dict:
    """The trajectory record for one ``e2e.json`` artifact."""
    host = artifact["host"]
    workloads = {}
    for name, result in artifact["workloads"].items():
        per_layer = result["per_layer"]
        workloads[name] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": result["end_to_end"],
            "setup": {name: per_layer[name] for name in SETUP_PARTS if name in per_layer},
            "self_share": _by_package(per_layer, "self_share"),
            "calls_per_op": _by_package(per_layer, "calls_per_op"),
        }
    return {
        "git_sha": host["git_sha"],
        "label": label,
        "seed": artifact["seed"],
        "host": {"nproc": host["nproc"], "python": host["python"]},
        "workloads": workloads,
    }


def _change(old: Optional[float], new: Optional[float]) -> str:
    if old is None or new is None:
        return f"{old} -> {new}"
    pct = f" ({(new - old) / old:+.1%})" if old else ""
    return f"{old:.6g} -> {new:.6g}{pct}"


def diff_lines(previous: dict, line: dict) -> List[str]:
    """The report of *line* against *previous*: per workload of *line*,
    each end-to-end metric and each package's ``calls_per_op``."""
    out = [f"vs {previous['git_sha'][:7]} {previous['label']!r}:"]
    for name, now in sorted(line["workloads"].items()):
        before = previous["workloads"].get(name, {})
        out.append(f"  {name}")
        for section in ("end_to_end", "calls_per_op"):
            old, new = before.get(section, {}), now[section]
            for key in sorted(set(old) | set(new)):
                out.append(f"    {section}.{key}: {_change(old.get(key), new.get(key))}")
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("artifact", help="an e2e.json written by benchmarks/e2e/run.py --out")
    parser.add_argument(
        "--label", default="", help="names the line: a PR's own sha is not known before it commits"
    )
    parser.add_argument("--history", default=DEFAULT_HISTORY, help="the .jsonl to append to")
    args = parser.parse_args(argv)
    with open(args.artifact) as handle:
        artifact = json.load(handle)
    if artifact.get("benchmark") != "e2e" or not artifact.get("workloads"):
        print(f"{args.artifact}: not an e2e benchmark artifact", file=sys.stderr)
        return 1
    line = history_line(artifact, args.label)
    previous = None
    if os.path.exists(args.history):
        with open(args.history) as handle:
            lines = handle.read().splitlines()
        previous = json.loads(lines[-1]) if lines else None
    with open(args.history, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"appended {line['git_sha'][:7]} {args.label!r} to {args.history}")
    if previous is not None:
        print("\n".join(diff_lines(previous, line)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
