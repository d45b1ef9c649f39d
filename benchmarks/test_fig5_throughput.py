"""Figure 5: throughput by workload type, F=1, same hardware.

"Performance comparison with Sift's key-value store and an RDMA-based
Raft implementation" — EPaxos, Sift EC, Sift and Raft-R across the
write-only / mixed / read-heavy / read-only mixes (Zipf 0.99).

All systems run on identical hardware here (12-core nodes, the
evaluation machines' 2x E5-2620v2), exactly as in §6.3; the grid is
:func:`repro.bench.points.fig5_points`, the one the CLI's ``fig5``
runs.  Shape targets from the paper:

* EPaxos is workload-independent, lowest for reads, best for write-only;
* Raft-R beats Sift on writes (Sift pays for background applies);
* Sift matches Raft-R on read-heavy/read-only thanks to its cache;
* Sift EC sits slightly below Sift on writes (encoding cost).
"""

import pytest

from repro.bench.calibration import BenchScale
from repro.bench.parallel import run_points
from repro.bench.points import FIG5_SYSTEMS, fig5_points
from repro.bench.report import bar_table
from repro.workloads import WORKLOADS

MIXES = list(WORKLOADS)


@pytest.fixture(scope="module")
def results():
    """``{"<system>/<mix>": {"ops_per_sec", "completed", "errors"}}``."""
    return run_points(fig5_points(BenchScale(), seed=1))


def test_fig5(results, once):
    table = {
        name: [results[f"{name}/{mix}"]["ops_per_sec"] for mix in MIXES]
        for name in FIG5_SYSTEMS
    }
    print()
    print(once(lambda: bar_table("Figure 5: throughput by workload (F=1)", MIXES, table)))

    def tput(name, mix):
        return results[f"{name}/{mix}"]["ops_per_sec"]

    # No failed operations anywhere.
    for key, cell in results.items():
        assert cell["errors"] == 0, key

    # EPaxos: workload-independent (reads cost the same as writes).
    epaxos = [tput("epaxos", mix) for mix in MIXES]
    assert max(epaxos) / min(epaxos) < 1.25

    # Write-only: "EPaxos performs better than the leader and RDMA-based
    # systems"; Raft-R > Sift > Sift EC.
    assert tput("epaxos", "write-only") > tput("raft-r", "write-only")
    assert tput("raft-r", "write-only") > tput("sift", "write-only")
    assert tput("sift", "write-only") > tput("sift-ec", "write-only")

    # Read-heavy / read-only: the RDMA leader-local systems dominate
    # EPaxos ("far higher than a state-of-the-art, non-RDMA consensus
    # protocol for read operations"; the paper's read-only gap is ~2.3x,
    # we assert a conservative 1.5x).
    for mix in ("read-heavy", "read-only"):
        assert tput("sift", mix) > 1.5 * tput("epaxos", mix)
        assert tput("raft-r", mix) > 1.5 * tput("epaxos", mix)
        # Sift's cache keeps it within ~20% of Raft-R.
        ratio = tput("sift", mix) / tput("raft-r", mix)
        assert 0.8 < ratio < 1.25

    # Every system speeds up as the workload gets more read-heavy,
    # except EPaxos (flat).
    for name in ("sift", "sift-ec", "raft-r"):
        assert tput(name, "read-only") > tput(name, "write-only")
