#!/usr/bin/env python3
"""Persistence beyond the memory nodes (§3.5).

Attaches the RocksDB-substitute persistence sink to the KV store: every
applied update is written to an on-disk store by a background thread.
After the whole simulated cluster is gone, the data is still on disk —
and a snapshot can seed a brand-new deployment (the paper's
snapshot-based memory-node recovery alternative).

Run:  python examples/persistent_store.py
"""

import shutil
import tempfile

from repro.core import SiftGroup
from repro.kv import KvClient, KvConfig, kv_app_factory
from repro.net import Fabric
from repro.persist import PersistenceSink, RocksLite
from repro.sim import SEC, Simulator


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="sift-persist-")
    print(f"persistent store directory: {workdir}")
    try:
        run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workdir: str) -> None:
    sim = Simulator()
    fabric = Fabric(sim)
    kv_config = KvConfig(max_keys=2_048, wal_entries=512)
    stores = {}

    def persistence_factory(cpu_node):
        # Each CPU node keeps its own store directory, like a local disk.
        store = RocksLite(f"{workdir}/{cpu_node.name}")
        stores[cpu_node.name] = store
        return PersistenceSink(cpu_node.host, store)

    sift_config = kv_config.sift_config(fm=1, fc=1, wal_entries=512)
    group = SiftGroup(
        fabric,
        sift_config,
        name="durable",
        app_factory=kv_app_factory(kv_config, persistence_factory=persistence_factory),
    )
    group.start()
    client = KvClient(fabric.add_host("client", cores=2), fabric, group)

    def scenario():
        coordinator = yield from group.wait_until_serving(timeout_us=2 * SEC)
        for index in range(500):
            yield from client.put(b"event:%04d" % index, b"payload-%d" % index)
        # Let the background persistence thread drain.
        while coordinator.app.persistence.backlog:
            yield sim.timeout(10_000)
        return coordinator

    process = sim.spawn(scenario(), name="scenario")
    sim.run(until=30 * SEC)
    if not process.ok:
        raise SystemExit(f"scenario failed: {process.exception}")

    coordinator = process.value
    store = stores[coordinator.name]
    print(f"persisted records: {coordinator.app.persistence.persisted}")
    snapshot = store.checkpoint()
    store.close()
    print(f"checkpoint written: {snapshot}")

    # The cluster is gone; re-open the on-disk store cold.
    reopened = RocksLite(f"{workdir}/{coordinator.name}")
    value = reopened.get(b"event:0042")
    print(f"cold read from disk: event:0042 -> {value!r}")
    assert value == b"payload-42"
    print(f"store holds {len(reopened)} records after recovery from disk.")
    reopened.close()


if __name__ == "__main__":
    main()
