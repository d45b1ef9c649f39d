"""Source budget: the physical line total of ``src/**/*.py`` as a ceiling.

ROADMAP's design-quality aim says lines under ``src/`` trend down over
the round; this makes that a number.  The contract is the one the
hot-path ceilings (``tests/test_hot_path_budget.py``) and the committed
baselines already follow: landing below the ceiling is free (lower it
in the same PR), raising it needs the cause stated in CHANGES.md.  The
count is what ``find src -name '*.py' | xargs cat | wc -l`` prints.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: 22.2k at the round's re-anchor, 21,048 after PR 13, 20,434 after
#: PR 19, 20,312 after PR 20 (one system protocol, one chaos adapter),
#: 20,932 after PR 21 (the paper's §6 claims became gates here; the
#: 1,056 uncollected lines that used to assert them under benchmarks/,
#: outside this count, are gone), 20,876 after PR 22 (a figure is
#: declared once; the sixteen ``cmd_*`` drivers went), 20,773 after
#: PR 23 (the chaos adapter, the runner's private harness and the
#: failure-trace round trip went; four robustness fixes came),
#: 20,610 once a component's own counters became its one stats surface
#: (four unread ``snapshot()`` methods, the open-loop result tuple and
#: two of three percentile functions went), and 20,574 once each safety
#: rule became one pure function in ``repro.core.rules`` (the two log
#: merges, CAS rounds, heartbeat-read rounds and WAL scans became one each),
#: 20,484 once the suite's fixtures moved to ``tests/testing.py`` and the
#: log scan and multi-page region read lost their per-slot and per-page loops,
#: 20,483 once preload stored block runs through one path (the per-key
#: store and the per-block range loop went), and 20,482 once the engine
#: gained its one rule for dead simulations (never resume a process inside
#: a generator's close), paid for by shorter teardown comments.
SRC_LINE_CEILING = 20_482


def test_src_line_total_is_within_budget():
    total = sum(path.read_bytes().count(b"\n") for path in SRC.rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ is {total} lines, ceiling {SRC_LINE_CEILING}: delete what the "
        "change made unnecessary, or raise the ceiling and state the cause "
        "in CHANGES.md"
    )
