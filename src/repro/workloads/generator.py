"""Key samplers and operation mixes.

The evaluation "utilize[s] a Zipfian distribution with a parameter of
0.99 to generate a skewed workload unless otherwise noted" (§6.2); the
four mixes are defined in the same section.

A closed-loop client draws one key at a time in pure Python; numpy is
imported (by :func:`load_numpy`) only for the batch draws of the
open-loop engine, so a closed-loop run never loads it.
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "WorkloadMix",
    "WORKLOADS",
    "KeySampler",
    "ZipfSampler",
    "StripedZipfSampler",
    "HotspotZipfSampler",
    "UniformSampler",
    "uniform_batch",
    "flip_batch",
]

#: genrand_res53 constants (CPython ``random.random``): a 53-bit double
#: from two consecutive 32-bit Mersenne Twister words.
_RES53_HI = 67108864.0  # 2**26
_RES53_SCALE = 1.0 / 9007199254740992.0  # 2**-53

_numpy = None


def load_numpy():
    """numpy, imported on the first call: only batch draws need it."""
    global _numpy
    if _numpy is None:
        import numpy as _numpy
    return _numpy


def uniform_batch(rng: random.Random, n: int) -> np.ndarray:
    """*n* uniforms from *rng*, bit-identical to ``rng.random()`` calls.

    CPython's ``random()`` is ``genrand_res53``: it folds two
    consecutive 32-bit Mersenne Twister words into one double.
    ``getrandbits(32 * m)`` emits those same words packed little-endian
    into one int, so one bulk draw plus a vectorized fold reproduces the
    scalar stream exactly — ``uniform_batch(rng, n)`` consumes the same
    generator state and returns the same values as ``[rng.random() for
    _ in range(n)]``, at a tiny fraction of the cost.  Interleaving
    batch and scalar draws on one stream therefore stays aligned.
    """
    np = load_numpy()
    if n <= 0:
        return np.empty(0, dtype=np.float64)
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    words = np.frombuffer(raw, dtype="<u4")
    a = words[0::2] >> np.uint32(5)
    b = words[1::2] >> np.uint32(6)
    return (a * _RES53_HI + b) * _RES53_SCALE


def flip_batch(rng: random.Random, n: int, fraction: float) -> np.ndarray:
    """*n* coin flips, equivalent to ``rng.random() < fraction`` calls."""
    return uniform_batch(rng, n) < fraction


class WorkloadMix(NamedTuple):
    """An operation mix: what fraction of operations are writes."""

    name: str
    write_fraction: float


WORKLOADS = {
    "write-only": WorkloadMix("write-only", 1.0),
    "mixed": WorkloadMix("mixed", 0.5),  # "50% reads and writes"
    "read-heavy": WorkloadMix("read-heavy", 0.1),  # "90% reads and 10% writes"
    "read-only": WorkloadMix("read-only", 0.0),
}


class KeySampler:
    """Base class: draws key indices in ``[0, n_keys)``."""

    def __init__(self, n_keys: int):
        if n_keys < 1:
            raise ValueError(f"need at least one key, got {n_keys}")
        self.n_keys = n_keys

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def sample_batch(self, rng: random.Random, n: int) -> np.ndarray:
        """*n* key indices as an int64 array.

        Contract (pinned by ``tests/test_openloop.py``): drawing a batch
        consumes *rng* exactly as *n* :meth:`sample` calls would and
        returns the same indices — the open-loop engine and the scalar
        closed-loop pool see identical key streams from identical seeds.
        Subclasses with a vectorizable inverse override this; the base
        implementation just loops.
        """
        np = load_numpy()
        return np.fromiter(
            (self.sample(rng) for _ in range(n)), dtype=np.int64, count=n
        )

    def key(self, index: int) -> bytes:
        """Render a key index as the wire key."""
        return b"key%024d" % index  # 27 bytes, within the 32-byte limit


class UniformSampler(KeySampler):
    """Every key equally popular."""

    def sample(self, rng: random.Random) -> int:
        return rng.randrange(self.n_keys)


class ZipfSampler(KeySampler):
    """Zipfian popularity with parameter theta (0.99 in the paper).

    Sampling inverts the precomputed CDF with a binary search; rank *r*
    (0-based) has weight ``1 / (r + 1)^theta``.  The CDF is one array of
    doubles, summed left to right as numpy's ``cumsum`` sums; batch draws
    search a numpy view of it, so both pick the same rank for a uniform.
    Ranks map directly to key indices, so key 0 is the hottest —
    experiments that care about *where* hot keys live in memory (Fig. 11)
    rely on this.
    """

    def __init__(self, n_keys: int, theta: float = 0.99):
        super().__init__(n_keys)
        self.theta = theta
        weights = (1.0 / float(r) ** theta for r in range(1, n_keys + 1))
        sums = array("d", itertools.accumulate(weights))
        total = sums[-1]
        self._cdf = array("d", (s / total for s in sums))

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_right(self._cdf, rng.random())

    def sample_batch(self, rng: random.Random, n: int) -> np.ndarray:
        """*n* ranks through one CDF inversion (see :class:`KeySampler`).

        :func:`uniform_batch` reproduces the exact ``rng.random()``
        stream, and one ``np.searchsorted`` over the whole batch replaces
        the per-op scalar call — the hot loop of the open-loop engine.
        """
        cdf = load_numpy().frombuffer(self._cdf)  # a view: no copy
        return cdf.searchsorted(uniform_batch(rng, n), side="right")

    def hot_fraction(self, top: int) -> float:
        """Probability mass of the *top* most popular keys."""
        if top <= 0:
            return 0.0
        return self._cdf[min(top, self.n_keys) - 1]


class StripedZipfSampler(ZipfSampler):
    """Zipfian popularity striped evenly across the shards of a ring.

    Consistent hashing balances the *number* of keys per shard but not
    their *popularity*: under theta=0.99 the few hottest keys carry most
    of the load, and nothing stops ranks 0..2 all hashing to one shard.
    This sampler renders rank ``r`` as a key that provably lives on
    shard ``r % G`` — for each rank it walks nonce-suffixed candidates
    until the ring places one on the target shard — so every shard owns
    an equal slice of each popularity band.  Construction is
    deterministic (no RNG): same ring + n_keys -> same keys.
    """

    def __init__(self, n_keys: int, ring, theta: float = 0.99):
        super().__init__(n_keys, theta=theta)
        self.ring = ring
        shards = ring.shards
        n_shards = len(shards)
        # Batched nonce walk: instead of hashing one candidate at a time
        # per rank (a python-level ring.shard_for call each), resolve
        # every still-unplaced rank's nonce-k candidate in one vectorized
        # ring lookup per nonce level.  Each rank still settles on the
        # lowest nonce whose candidate lands on its target shard, so the
        # key table is byte-identical to the scalar walk's.
        keys: list = [None] * n_keys
        # The rank half of every candidate is fixed; render it once per
        # rank and per nonce level append the (shared) nonce suffix —
        # the concatenation equals ``b"key%018d.%04d" % (rank, nonce)``
        # byte for byte, so the table matches the old scalar walk's.
        prefixes = [b"key%018d." % rank for rank in range(n_keys)]
        pending = list(range(n_keys))
        nonce = 0
        while pending:
            suffix = b"%04d" % nonce
            candidates = [prefixes[rank] + suffix for rank in pending]
            owners = ring.shard_index_batch(candidates).tolist()
            unresolved = []
            for rank, candidate, owner in zip(pending, candidates, owners):
                if owner == rank % n_shards:
                    keys[rank] = candidate
                else:
                    unresolved.append(rank)
            pending = unresolved
            nonce += 1
        self._keys = keys

    def key(self, index: int) -> bytes:
        return self._keys[index]

    def all_keys(self) -> list:
        """Every rendered key, indexed by key index (elastic-lane hook)."""
        return self._keys

    def key_index_batch(self, ranks: np.ndarray) -> np.ndarray:
        """Key index per rank (identity here; hotspot samplers remap)."""
        return ranks

    @property
    def n_shards(self) -> int:
        return len(self.ring.shards)

    def shard_index_batch(self, ranks: np.ndarray) -> np.ndarray:
        """Owning-shard index per rank, without touching the ring.

        Rank *r*'s key provably lives on shard ``r % G`` (the striping
        invariant above), so shard assignment over a whole arrival batch
        is one vectorized modulo instead of a SHA-1 + ring walk per key.
        """
        return ranks % self.n_shards

    def shard_name(self, index: int) -> str:
        return self.ring.shards[index]


class HotspotZipfSampler(StripedZipfSampler):
    """A striped Zipf sampler whose hot set can be re-aimed mid-run.

    Popularity ranks are drawn exactly as in the parent (the arrival
    RNG streams are untouched), but a rank-to-key-index permutation sits
    between rank and rendered key.  :meth:`retarget` rewires the top
    *hot_span* ranks onto key indices owned by one shard (under the
    striping invariant ``index % G``), concentrating the popularity
    mass there — the mid-run load shift behind ``figHotspot``.
    Retargeting consumes no RNG and changes no already-drawn rank, so
    two runs differing only in *when* (or whether) they retarget see
    byte-identical arrival streams.
    """

    def __init__(self, n_keys: int, ring, theta: float = 0.99):
        super().__init__(n_keys, ring, theta=theta)
        self._map = load_numpy().arange(n_keys, dtype="int64")
        self.hot_shard: int = -1
        self.hot_span: int = 0

    def key(self, index: int) -> bytes:
        return self._keys[int(self._map[index])]

    def key_index_batch(self, ranks: np.ndarray) -> np.ndarray:
        return self._map[ranks]

    def shard_index_batch(self, ranks: np.ndarray) -> np.ndarray:
        """Owner per rank under the *striping* ring (``index % G``)."""
        return self._map[ranks] % self.n_shards

    def retarget(self, shard_index: int, hot_span: int) -> None:
        """Swap the top *hot_span* ranks onto keys striped to one shard.

        The permutation is built by pairwise swaps, so it stays a
        bijection: every key index is still rendered by exactly one
        rank, and cold ranks inherit the keys the hot ranks vacated.
        """
        n_shards = self.n_shards
        if not 0 <= shard_index < n_shards:
            raise ValueError(f"shard index {shard_index} out of range")
        if not 0 <= hot_span <= self.n_keys // n_shards:
            raise ValueError(f"hot span {hot_span} exceeds the shard's keys")
        mapping = self._map
        np = load_numpy()
        inverse = np.empty_like(mapping)
        inverse[mapping] = np.arange(len(mapping), dtype=np.int64)
        for rank in range(hot_span):
            target = shard_index + n_shards * rank  # striped to shard_index
            holder = inverse[target]
            vacated = mapping[rank]
            mapping[rank], mapping[holder] = target, vacated
            inverse[target], inverse[vacated] = rank, holder
        self.hot_shard = shard_index
        self.hot_span = hot_span
