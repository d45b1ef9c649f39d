"""Consistent hashing for key-to-shard routing.

The ring must be stable across processes and across service restarts:
two routers built from the same shard names place every key
identically, and adding a shard moves only ``~1/G`` of the key space.
Hashing therefore uses SHA-1 (Python's builtin ``hash`` is salted per
process) and each shard contributes *virtual_nodes* points so the arc
lengths even out.  The interpreter's builtin ``_sha1`` gives hashlib's
digests without loading OpenSSL (hashlib is only its fallback), and
numpy loads with the first batch placement: scalar lookups need neither.

Rings are immutable but *versioned*: :meth:`HashRing.split` and
:meth:`HashRing.merge` return a new ring (version + 1) plus the exact
hash arcs whose ownership changed, which is everything the control
plane needs to migrate data and everything routers need to invalidate
their per-shard client caches.  Keys outside the returned arcs keep
their owner — the monotonicity property pinned by
``tests/test_control.py``.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = ["HashRing", "key_point", "ranges_contain"]


try:
    from _sha1 import sha1 as _sha1
except ImportError:  # pragma: no cover - an interpreter built without the builtin
    from hashlib import sha1 as _sha1


def _digest(token: bytes) -> bytes:
    """The SHA-1 digest of *token*."""
    return _sha1(token).digest()


def _point(token: bytes) -> int:
    """A stable 64-bit ring position for *token*."""
    return int.from_bytes(_digest(token)[:8], "big")


def key_point(key: bytes) -> int:
    """The 64-bit ring position of a KV key (for range membership)."""
    return _point(bytes(key))


def ranges_contain(ranges: Sequence[Tuple[int, int]], point: int) -> bool:
    """Whether *point* falls in any wrap-aware arc ``(lo, hi]``.

    An arc with ``lo < hi`` covers ``lo < p <= hi``; an arc with
    ``lo >= hi`` wraps past zero and covers ``p > lo or p <= hi``.
    """
    for lo, hi in ranges:
        if lo < hi:
            if lo < point <= hi:
                return True
        elif point > lo or point <= hi:
            return True
    return False


class HashRing:
    """A consistent-hash ring over named shards."""

    def __init__(self, shards: Sequence[str], virtual_nodes: int = 64):
        if not shards:
            raise ValueError("a ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError(f"duplicate shard names: {list(shards)}")
        self.shards: Tuple[str, ...] = tuple(shards)
        self.virtual_nodes = virtual_nodes
        self.version = 0
        points: List[Tuple[int, str]] = []
        for name in self.shards:
            for replica in range(virtual_nodes):
                points.append((_point(f"{name}#{replica}".encode()), name))
        points.sort()
        self._finalize([p for p, _ in points], [owner for _, owner in points])

    def _finalize(self, points: List[int], owners: List[str]) -> None:
        self._points = points
        self._owners = owners

    @classmethod
    def _from_points(
        cls,
        shards: Tuple[str, ...],
        points: List[int],
        owners: List[str],
        virtual_nodes: int,
        version: int,
    ) -> "HashRing":
        ring = cls.__new__(cls)
        ring.shards = shards
        ring.virtual_nodes = virtual_nodes
        ring.version = version
        ring._finalize(points, owners)
        return ring

    # ------------------------------------------------------------------
    # Versioned mutation (split / merge)
    # ------------------------------------------------------------------

    def _arc_of(self, position: int) -> Tuple[int, int]:
        """The wrap-aware hash arc ``(prev_point, point]`` at *position*."""
        prev = self._points[position - 1] if position else self._points[-1]
        return (prev, self._points[position])

    def arcs_of(self, shard: str) -> List[Tuple[int, int]]:
        """Every hash arc *shard* currently owns (wrap-aware)."""
        if shard not in self.shards:
            raise ValueError(f"unknown shard {shard!r}")
        return [
            self._arc_of(i) for i, owner in enumerate(self._owners) if owner == shard
        ]

    def split(self, shard: str, new_shard: str) -> Tuple["HashRing", List[Tuple[int, int]]]:
        """A new ring (version + 1) splitting *shard*'s range in two.

        Every other of *shard*'s sorted vnode points is deterministically
        reassigned to *new_shard* (appended to :attr:`shards`, so
        existing shard indexes are stable).  Returns ``(new_ring,
        moved)`` where *moved* is the list of hash arcs now owned by
        *new_shard* — keys outside them keep their owner.
        """
        if shard not in self.shards:
            raise ValueError(f"unknown shard {shard!r}")
        if new_shard in self.shards:
            raise ValueError(f"shard {new_shard!r} already on the ring")
        positions = [i for i, owner in enumerate(self._owners) if owner == shard]
        moved_positions = positions[::2]  # ceil(n/2) points, deterministic
        owners = list(self._owners)
        for i in moved_positions:
            owners[i] = new_shard
        ring = HashRing._from_points(
            self.shards + (new_shard,),
            list(self._points),
            owners,
            self.virtual_nodes,
            self.version + 1,
        )
        return ring, [self._arc_of(i) for i in moved_positions]

    def merge(self, shard: str, into: str) -> Tuple["HashRing", List[Tuple[int, int]]]:
        """A new ring (version + 1) folding *shard*'s range into *into*.

        All of *shard*'s vnode points are reassigned to *into* and
        *shard* leaves :attr:`shards`.  Returns ``(new_ring, moved)``
        with the arcs that changed owner.
        """
        if shard not in self.shards or into not in self.shards:
            raise ValueError(f"both {shard!r} and {into!r} must be on the ring")
        if shard == into:
            raise ValueError("cannot merge a shard into itself")
        positions = [i for i, owner in enumerate(self._owners) if owner == shard]
        owners = list(self._owners)
        for i in positions:
            owners[i] = into
        ring = HashRing._from_points(
            tuple(name for name in self.shards if name != shard),
            list(self._points),
            owners,
            self.virtual_nodes,
            self.version + 1,
        )
        return ring, [self._arc_of(i) for i in positions]

    def shard_for(self, key: bytes) -> str:
        """The shard owning *key*: first ring point at or after its hash."""
        return self.owner_of_point(_point(bytes(key)))

    def owner_of_point(self, point: int) -> str:
        """The shard owning ring position *point* (wrap-aware)."""
        index = bisect.bisect_left(self._points, point)
        if index == len(self._points):
            index = 0  # wrap around
        return self._owners[index]

    def shard_index_batch(self, keys: Sequence[bytes]) -> np.ndarray:
        """Vectorized :meth:`shard_for` over many keys at once.

        Returns each key's owner as an index into :attr:`shards`.  The
        SHA-1 per key is irreducible (there is no batch API), but the
        digests are folded into one buffer and the ring walk — the
        ``bisect`` plus two list lookups that dominate the scalar call —
        becomes a single ``np.searchsorted``.  Placement is identical to
        :meth:`shard_for` key for key (pinned by ``tests/test_shard.py``).
        """
        import numpy as np

        if not len(keys):
            return np.empty(0, dtype=np.int64)
        # The sorted ring, with one extra trailing owner slot so the
        # wrap-around maps to owner 0's point.
        shard_index = {name: i for i, name in enumerate(self.shards)}
        owners = [shard_index[owner] for owner in self._owners]
        owner_ids = np.array(owners + owners[:1], dtype=np.int64)
        raw = b"".join([_digest(key) for key in keys])
        hashes = (
            np.frombuffer(raw, dtype=np.uint8)
            .reshape(-1, 20)[:, :8]
            .copy()
            .view(">u8")
            .ravel()
        )
        # bisect_left == searchsorted side="left"; the appended owner
        # slot makes index == len(points) resolve to the wrap-around.
        indexes = np.searchsorted(np.array(self._points, dtype=np.uint64), hashes, side="left")
        return owner_ids[indexes]

    def spread(self, keys: Sequence[bytes]) -> Dict[str, int]:
        """How many of *keys* each shard owns (diagnostics / tests)."""
        counts = {name: 0 for name in self.shards}
        for key in keys:
            counts[self.shard_for(key)] += 1
        return counts

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        return f"<HashRing {len(self.shards)} shards x {self.virtual_nodes} vnodes>"
