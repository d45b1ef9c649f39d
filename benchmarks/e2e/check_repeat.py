#!/usr/bin/env python3
"""Run the whole benchmark twice and hold the two runs to its own bounds.

    python3 benchmarks/e2e/check_repeat.py --seed 1

Same code, same seed: every ``sim_*`` metric, ``ops_attempted`` and
``ops_failed`` must be identical, and each host metric may differ by at
most its bound in ``run.END_TO_END``.  Prints one row per workload and metric; exits
non-zero on any breach.  Extra arguments (``--seed``, ``--rounds``) are
passed through to ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from run import END_TO_END, ROOT  # noqa: E402


def run_once(out_dir: str, passthrough: List[str]) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--out", out_dir, *passthrough]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    with open(os.path.join(out_dir, "e2e.json")) as handle:
        return json.load(handle)["workloads"]


def compare(first: dict, second: dict) -> int:
    """Print every comparison; return the number of breaches."""
    breaches = 0

    def row(workload: str, name: str, x, y, limit: Optional[float]) -> None:
        """One line; *limit* None means the two must be identical."""
        nonlocal breaches
        if limit is None:
            ok, apart, bound = x == y, "", "exact"
        else:
            # Either run may be the worse one: the two are the same code.
            ratio = abs(y - x) / min(x, y)
            ok, apart, bound = ratio <= limit, f"{ratio:.4f}", f"{limit:.2f}"
        breaches += not ok
        print(
            f"{workload:18s} {name:16s} {x:16.4f} {y:16.4f} {apart:>9s} {bound:>6s}"
            + ("" if ok else "  BREACH")
        )

    print(
        f"{'workload':18s} {'metric':16s} {'first':>16s} {'second':>16s} "
        f"{'apart by':>9s} {'bound':>6s}"
    )
    for workload in first:
        a, b = first[workload], second[workload]
        for key in ("attempted", "failed", "completed"):
            row(workload, f"ops_{key}", a[key], b[key], None)
        for name, _unit, _better, bound in END_TO_END:
            row(workload, name, a["end_to_end"][name], b["end_to_end"][name],
                None if name.startswith("sim_") else bound)
        for name in ("sim_downtime_ms", "sim_recovery_ms"):
            row(workload, name, a["per_layer"][name], b["per_layer"][name], None)
    return breaches


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "bench_artifacts", "e2e_repeat"))
    args, passthrough = parser.parse_known_args(argv)
    first = run_once(os.path.join(args.out, "first"), passthrough)
    second = run_once(os.path.join(args.out, "second"), passthrough)
    breaches = compare(first, second)
    print("PASS" if not breaches else f"FAIL: {breaches} breaches")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
