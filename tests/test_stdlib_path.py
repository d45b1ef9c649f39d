"""A closed-loop Sift group without erasure coding runs on the standard library.

numpy is imported only where it does vector work: the GF(256) codec,
the open-loop arrival batches and the ring's batch placement.  A
closed-loop, non-EC run therefore loads neither numpy nor OpenSSL's
``_hashlib``, which is most of its peak RSS, and a sharded one does not
load ``_hashlib`` either: the ring hashes with the builtin ``_sha1``, to
the very digests ``hashlib`` gives.  Fresh interpreters check that, and
the vector paths still work next to it.  The scalar code that replaced
numpy must pick exactly what numpy picked, so the Zipf CDF and its
inversion are checked draw for draw against numpy as the reference.
"""

import bisect
import hashlib
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.api import Cluster
from repro.bench.calibration import SMOKE_SCALE
from repro.shard.hashing import HashRing, key_point
from repro.sim import MS
from repro.workloads import WORKLOADS, AdmissionControl, OpenLoopEngine, ZipfSampler

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

CLOSED_LOOP = """
import sys

from repro.api import Cluster
from repro.bench.calibration import SMOKE_SCALE
from repro.bench.metrics import Metrics
from repro.sim import MS
from repro.workloads import WORKLOADS, ClientPool, ZipfSampler

cluster = Cluster.build("sift", seed=0, scale=SMOKE_SCALE)
cluster.wait_ready()
sampler = ZipfSampler(SMOKE_SCALE.keys, SMOKE_SCALE.zipf_theta)
cluster.preload((sampler.key(i), b"v" * 64) for i in range(SMOKE_SCALE.keys))
metrics = Metrics()
pool = ClientPool(
    cluster.fabric, cluster.inner, 4, WORKLOADS["mixed"], sampler, metrics, value_bytes=64
)
pool.start()
metrics.begin(cluster.sim.now)
while metrics.completed < 300:
    cluster.run(until=cluster.sim.now + 1 * MS)
pool.stop()
print(metrics.completed, metrics.errors, sorted({"numpy", "_hashlib"} & set(sys.modules)))
"""


SHARDED_CLOSED_LOOP = """
import sys

from repro.api import Cluster
from repro.bench.metrics import Metrics
from repro.shard.router import ShardRouter
from repro.sim import MS
from repro.workloads import WORKLOADS, ClientPool, UniformSampler

cluster = Cluster.build("sharded", seed=0, shards=2)
cluster.wait_ready()
sampler = UniformSampler(256)
cluster.preload((sampler.key(i), b"v" * 64) for i in range(256))
metrics = Metrics()
pool = ClientPool(
    cluster.fabric, cluster.inner, 4, WORKLOADS["mixed"], sampler, metrics,
    value_bytes=64, client_factory=ShardRouter,
)
pool.start()
metrics.begin(cluster.sim.now)
while metrics.completed < 300:
    cluster.run(until=cluster.sim.now + 1 * MS)
pool.stop()
print(metrics.completed, metrics.errors, sorted({"_hashlib"} & set(sys.modules)))
"""


def run_fresh(script):
    """*script*'s ``completed errors loaded-modules`` line, run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    completed, errors, loaded = result.stdout.split(maxsplit=2)
    assert int(completed) >= 300 and int(errors) == 0
    return loaded.strip()


def test_a_closed_loop_run_imports_neither_numpy_nor_openssl():
    assert run_fresh(CLOSED_LOOP) == "[]"


def test_a_sharded_closed_loop_run_does_not_load_openssl():
    assert run_fresh(SHARDED_CLOSED_LOOP) == "[]"


def sha1_point(token):
    return int.from_bytes(hashlib.sha1(token).digest()[:8], "big")


@pytest.mark.parametrize("size", [0, 27, 5 * 1024])
def test_the_ring_hashes_as_hashlib_does(size):
    """Key points and ring placement, rebuilt from ``hashlib.sha1`` alone."""
    names = [f"shard-{i}" for i in range(5)]
    ring = HashRing(names, virtual_nodes=64)
    points = sorted((sha1_point(f"{n}#{v}".encode()), n) for n in names for v in range(64))
    rng = random.Random(size)
    for key in [rng.randbytes(size) for _ in range(64 if size else 1)]:
        assert key_point(key) == sha1_point(key)
        index = bisect.bisect_left([point for point, _ in points], sha1_point(key))
        assert ring.shard_for(key) == points[index % len(points)][1]


def test_an_erasure_coded_group_still_round_trips():
    cluster = Cluster.build("sift-ec", seed=0)
    client = cluster.client()

    def scenario():
        yield from cluster.ready()
        yield from client.put(b"ec-key", b"x" * 700)
        return (yield from client.get(b"ec-key"))

    assert cluster.run(scenario()) == b"x" * 700
    assert cluster.inner.serving_coordinator().repmem.rs is not None


def test_an_open_loop_run_still_completes():
    cluster = Cluster.build("sift", seed=0, scale=SMOKE_SCALE)
    cluster.wait_ready()
    sampler = ZipfSampler(SMOKE_SCALE.keys)
    cluster.preload((sampler.key(i), b"v" * 64) for i in range(SMOKE_SCALE.keys))
    engine = OpenLoopEngine(
        cluster.fabric, cluster.inner, WORKLOADS["mixed"], sampler,
        offered_ops_per_sec=20_000.0, n_clients=1_000,
        admission=AdmissionControl(max_inflight=4, queue_limit=64), value_bytes=64,
    )
    engine.start()
    engine.begin_measurement()
    cluster.run(until=cluster.sim.now + 20 * MS)
    engine.end_measurement()
    engine.stop()
    assert engine.counts["completed"] > 0 and engine.counts["errors"] == 0


def numpy_cdf(n_keys, theta):
    """The CDF as numpy built it: vector powers, ``cumsum``, one division."""
    cdf = np.cumsum(1.0 / np.power(np.arange(1, n_keys + 1, dtype=np.float64), theta))
    cdf /= cdf[-1]
    return cdf


@pytest.mark.parametrize("theta", [0.5, 0.99, 1.2])
@pytest.mark.parametrize("n_keys", [1, 16, 4096, 32768])
def test_the_zipf_cdf_is_numpys_float_for_float(n_keys, theta):
    assert ZipfSampler(n_keys, theta)._cdf.tolist() == numpy_cdf(n_keys, theta).tolist()


@pytest.mark.parametrize("theta", [0.5, 0.99, 1.2])
def test_scalar_draws_invert_the_cdf_as_searchsorted_did(theta):
    sampler, reference = ZipfSampler(4096, theta), numpy_cdf(4096, theta)
    ours, theirs = random.Random(11), random.Random(11)
    drawn = [sampler.sample(ours) for _ in range(10_000)]
    expected = [
        int(np.searchsorted(reference, theirs.random(), side="right")) for _ in range(10_000)
    ]
    assert drawn == expected
    assert sampler.sample_batch(random.Random(11), 10_000).tolist() == expected
