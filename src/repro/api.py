"""One front door for every system the reproduction can build.

Constructing an experiment by hand takes four layers — simulator,
fabric, config, cluster — and each system (Sift, Sift EC, Raft-R,
EPaxos, the sharded service) spells them slightly differently.  This
façade folds all of that behind three calls::

    from repro.api import Cluster

    cluster = Cluster.build("sift", seed=7)
    client = cluster.client()

    def scenario():
        yield from cluster.ready()
        yield from client.put(b"user:42", b"Ada Lovelace")
        return (yield from client.get(b"user:42"))

    value = cluster.run(scenario())

``build`` accepts any name from :data:`SYSTEMS` and delegates to the
exact same :class:`~repro.bench.systems.SystemSpec` factories the
benchmark harness uses — same host names, same construction order, same
RNG streams — so a façade-built cluster is indistinguishable from a
harness-built one (the figure baselines depend on that).
"""

from __future__ import annotations

from itertools import count
from typing import Optional

from repro.errors import ReproError
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.units import SEC

__all__ = ["Cluster", "ScenarioFailed", "SYSTEMS", "system_spec"]

#: Re-exported so ``from repro.api import Topology`` works alongside
#: ``Cluster.topology()`` (the type lives with the control plane).
from repro.control.topology import Topology  # noqa: E402

__all__.append("Topology")

#: Every system ``Cluster.build`` understands.
SYSTEMS = ("sift", "sift-ec", "raft-r", "epaxos", "sharded")


class ScenarioFailed(ReproError):
    """A process handed to :meth:`Cluster.run` failed or never settled."""


def system_spec(system: str, scale=None, cores: Optional[int] = None, **options):
    """The :class:`~repro.bench.systems.SystemSpec` for a system name.

    *options* are forwarded to the spec factory (``shards=...``,
    ``backups=...`` for ``sharded``; ``kv_overrides=...`` for Sift).
    """
    from repro.bench.calibration import DEFAULT_SCALE
    from repro.bench.systems import epaxos_spec, raft_spec, sharded_spec, sift_spec

    scale = scale or DEFAULT_SCALE
    if system == "sift":
        return sift_spec(cores=cores, scale=scale, **options)
    if system == "sift-ec":
        return sift_spec(erasure_coding=True, cores=cores, scale=scale, **options)
    if system == "raft-r":
        return raft_spec(cores=cores or 8, scale=scale, **options)
    if system == "epaxos":
        return epaxos_spec(cores=cores or 8, scale=scale, **options)
    if system == "sharded":
        return sharded_spec(scale=scale, cores=cores, **options)
    raise ValueError(f"unknown system {system!r}; pick one of {SYSTEMS}")


class Cluster:
    """A built system plus the simulator loop that drives it."""

    def __init__(self, spec, fabric: Fabric, inner):
        self.spec = spec
        self.fabric = fabric
        self.sim: Simulator = fabric.sim
        self.inner = inner
        self._client_ids = count()

    @classmethod
    def build(
        cls,
        system="sift",
        seed: int = 0,
        fabric: Optional[Fabric] = None,
        scale=None,
        cores: Optional[int] = None,
        **options,
    ) -> "Cluster":
        """Build and start *system* on a fresh seeded fabric.

        *system* is a name from :data:`SYSTEMS` or a ready
        :class:`~repro.bench.systems.SystemSpec` (the figure drivers and
        the chaos runner hand theirs over; *scale*, *cores* and
        *options* then do not apply).  Pass an existing *fabric* to
        co-locate several systems on one simulation (then *seed* is
        ignored — the fabric owns the RNG).
        """
        spec = system
        if isinstance(system, str):
            spec = system_spec(system, scale=scale, cores=cores, **options)
        if fabric is None:
            fabric = Fabric(Simulator(), rng=RngStreams(seed=seed))
        return cls(spec, fabric, spec.build(fabric))

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------

    def client(self, name: Optional[str] = None, cores: int = 4, **kwargs):
        """A KV client on host *name* (created with *cores* when new).

        Returns the spec's client when it names one, else a
        :class:`~repro.shard.router.ShardRouter` for a cluster with a
        ring and a :class:`~repro.kv.client.KvClient` otherwise (Raft-R
        and EPaxos expose the same endpoint surface); *kwargs* reach the
        client constructor (timeouts, retry policy).
        """
        from repro.kv.client import KvClient
        from repro.shard.router import ShardRouter

        if name is None:
            # Several Clusters may share one fabric; skip taken names.
            name = f"client-{next(self._client_ids)}"
            while name in self.fabric.hosts:
                name = f"client-{next(self._client_ids)}"
        host = self.fabric.hosts.get(name) or self.fabric.add_host(name, cores=cores)
        factory = self.spec.client_factory or (
            KvClient if self.inner.ring is None else ShardRouter
        )
        return factory(host, self.fabric, self.inner, **kwargs)

    # ------------------------------------------------------------------
    # Topology: the one public window into the control plane
    # ------------------------------------------------------------------

    def topology(self) -> Topology:
        """An immutable snapshot of shards, groups, placement and pool.

        This (plus :meth:`scale` and :meth:`migrate`) is the public
        surface; service internals are not.
        """
        return Topology.of(self.inner, at_us=self.sim.now)

    def _sharded(self):
        if self.inner.ring is None:
            raise ReproError(
                f"{self.spec.name!r} is not sharded; topology mutation needs "
                "Cluster.build('sharded', ...)"
            )
        return self.inner

    def scale(self, shards: Optional[int] = None, backups: Optional[int] = None,
              auto: bool = False, config=None):
        """Change the cluster's shape, or hand it to the reconciler.

        ``shards=N`` live-splits (largest key-span first) or
        live-merges (smallest into largest, then retires the emptied
        group) until the ring has N shards, driving the simulator until
        each migration completes — no acked write is dropped.
        ``backups=N`` resizes the shared pool immediately.
        ``auto=True`` starts a
        :class:`~repro.control.reconciler.Reconciler` with *config*
        (a :class:`~repro.control.reconciler.ReconcilerConfig`) that
        does both continuously; returns it (stop with ``.stop()``).
        Returns the resulting :class:`Topology` otherwise.
        """
        from repro.control.migrate import MigrationManager
        from repro.control.reconciler import Reconciler

        service = self._sharded()
        if auto:
            reconciler = Reconciler(self.fabric, service, config=config)
            reconciler.start()
            return reconciler
        if backups is not None:
            service.pool.resize(backups)
        if shards is not None:
            if shards < 1:
                raise ValueError(f"need at least one shard, got {shards}")
            while len(service.ring.shards) < shards:
                widest = max(
                    sorted(service.ring.shards), key=self._shard_span
                )
                manager = MigrationManager.split(self.fabric, service, widest)
                self.run(manager.run())
            while len(service.ring.shards) > shards:
                spans = sorted(service.ring.shards, key=self._shard_span)
                manager = MigrationManager.merge(
                    self.fabric, service, spans[0], spans[-1]
                )
                self.run(manager.run())
                # The forwarding window has closed: decommission the group.
                service.retire_group(spans[0])
        return self.topology()

    def _shard_span(self, shard: str) -> int:
        """Total key-space span a shard owns (deterministic split pick)."""
        return sum((hi - lo) % (1 << 64) for lo, hi in self.inner.ring.arcs_of(shard))

    def migrate(self, shard: str, to: Optional[str] = None,
                new_shard: Optional[str] = None, **kwargs):
        """Run one live key-range migration to completion.

        Without *to*: split *shard*, provisioning a fresh group (named
        *new_shard* if given) and moving half the range to it.  With
        *to*: merge *shard*'s whole range into the running group *to*.
        Drives the simulator until the forwarding window closes and
        returns the :class:`~repro.control.migrate.MigrationManager`
        (``.stats``, ``.cutover_at``, ``.moved_arcs``, ``.done``).
        """
        from repro.control.migrate import MigrationManager

        service = self._sharded()
        if to is None:
            manager = MigrationManager.split(
                self.fabric, service, shard, new_shard=new_shard, **kwargs
            )
        else:
            if new_shard is not None:
                raise ValueError("new_shard only applies to splits (to=None)")
            manager = MigrationManager.merge(
                self.fabric, service, shard, to, **kwargs
            )
        self.run(manager.run())
        return manager

    # ------------------------------------------------------------------
    # Driving the simulation
    # ------------------------------------------------------------------

    def ready(self):
        """Process: returns (the leader) once the cluster serves, within
        the spec's readiness budget (compose into scenarios)."""
        return self.inner.wait_until_serving(timeout_us=self.spec.ready_timeout_us)

    def wait_ready(self, deadline_us: float = 30 * SEC):
        """Run the simulator until the cluster serves; returns the leader."""
        return self.run(self.ready(), deadline_us=deadline_us)

    def preload(self, items) -> None:
        """Synchronous §6.2 pre-population of ``(key, value)`` pairs."""
        self.inner.preload(items)

    def run(self, process=None, until: Optional[float] = None, deadline_us: float = 120 * SEC):
        """Drive the simulation.

        With a generator *process*: spawn it, run until it settles (at
        most *deadline_us* more simulated time), re-raise its failure,
        and return its value.  Without one: advance simulated time to
        *until* (or drain the event queue).
        """
        if process is None:
            self.sim.run(until=until)
            return None
        spawned = self.sim.spawn(process, name="api-scenario")
        spawned.add_callback(lambda _ev: None)  # outcome re-raised below
        self.sim.run_until_settled(spawned, deadline=self.sim.now + deadline_us)
        if not spawned.settled:
            raise ScenarioFailed(f"scenario still running after {deadline_us}us")
        if spawned.failed:
            raise spawned.exception
        return spawned.value

    def __repr__(self) -> str:
        return f"<Cluster {self.spec.name} inner={self.inner!r}>"
