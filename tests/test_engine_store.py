"""Crash-safe persistent result store (ISSUE 8).

Contract: publishes are atomic (readers see a whole entry or none, a
SIGKILLed writer leaves a reopenable store), every read is checksummed
and corruption is quarantined — never served, never fatal — the store
is multi-process safe under concurrent read/write/evict load, bounded
by LRU-ish eviction, and degrades to cache-off on IO errors while runs
keep producing bit-identical records through the kernel path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import struct
import sys
import time

import numpy as np
import pytest

from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.engine import faults
from repro.engine.pipeline import ForestCache
from repro.engine.store import (
    SCHEMA_VERSION,
    ResultStore,
    default_store_path,
    namespace_tag,
    open_store,
)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no fault plan."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.clear()
    yield
    faults.clear()


def make_key(tag: str, m: int = 256, k: int = 16) -> tuple:
    digest = hashlib.blake2b(tag.encode(), digest_size=16).digest()
    return (m, k, digest)


def make_record(seed: int) -> tuple:
    return tuple(seed * 1000 + i for i in range(len(TILE_RECORD_FIELDS)))


def sync_store(path, **kwargs) -> ResultStore:
    kwargs.setdefault("async_writes", False)
    return ResultStore(path, **kwargs)


class TestBasics:
    def test_round_trip(self, tmp_path):
        with sync_store(tmp_path) as store:
            key, record = make_key("a"), make_record(1)
            assert store.get(key) is None  # miss
            store.put(key, record)
            assert store.get(key) == record
            counters = store.counters()
            assert counters["store_hits"] == 1
            assert counters["store_misses"] == 1

    def test_persists_across_reopen(self, tmp_path):
        key, record = make_key("persist"), make_record(2)
        with sync_store(tmp_path) as store:
            store.put(key, record)
        with sync_store(tmp_path) as store:
            assert store.get(key) == record

    def test_distinct_shapes_never_alias(self, tmp_path):
        digest = hashlib.blake2b(b"same-content", digest_size=16).digest()
        with sync_store(tmp_path) as store:
            store.put((256, 16, digest), make_record(1))
            assert store.get((128, 16, digest)) is None

    def test_namespace_binds_schema(self, tmp_path):
        tag = namespace_tag()
        assert tag.startswith(f"v{SCHEMA_VERSION}-")
        with sync_store(tmp_path) as store:
            store.put(make_key("ns"), make_record(3))
            assert store.directory == tmp_path / tag
        # A different record schema would hash to a sibling directory:
        blob = repr((SCHEMA_VERSION, TILE_RECORD_FIELDS + ("extra",))).encode()
        other = hashlib.blake2b(blob, digest_size=6).hexdigest()
        assert tag != f"v{SCHEMA_VERSION}-{other}"

    def test_default_path_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "elsewhere"))
        assert default_store_path() == str(tmp_path / "elsewhere")

    def test_rejects_bad_construction(self, tmp_path):
        with pytest.raises(ValueError, match="verify policy"):
            ResultStore(tmp_path, verify="paranoid")
        with pytest.raises(ValueError, match="max_bytes"):
            ResultStore(tmp_path, max_bytes=-1)

    def test_clear_and_stats(self, tmp_path):
        with sync_store(tmp_path) as store:
            for i in range(5):
                store.put(make_key(f"c{i}"), make_record(i))
            stats = store.stats()
            assert stats.entries == 5
            assert stats.total_bytes > 0
            assert store.clear() == 5
            assert store.stats().entries == 0
            assert store.get(make_key("c0")) is None  # miss, not error

    def test_async_writer_flush(self, tmp_path):
        with ResultStore(tmp_path, async_writes=True) as store:
            keys = [make_key(f"a{i}") for i in range(32)]
            for i, key in enumerate(keys):
                store.put(key, make_record(i))
            store.flush()
            for i, key in enumerate(keys):
                assert store.get(key) == make_record(i)


class TestCorruption:
    def _entry_file(self, store):
        files = [path for path, _, _ in store._scan_entries()]
        assert files
        return files[0]

    def test_bit_flip_is_quarantined_not_served(self, tmp_path):
        key, record = make_key("corrupt"), make_record(7)
        with sync_store(tmp_path) as store:
            store.put(key, record)
            path = self._entry_file(store)
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0xFF
            path.write_bytes(bytes(blob))
            assert store.get(key) is None  # never bad bytes
            assert not path.exists()  # moved aside
            assert store.counters()["store_corrupt"] == 1
            assert store.stats().quarantined == 1
            # Rebuilt entry serves again:
            store.put(key, record)
            assert store.get(key) == record

    def test_truncated_entry_is_corrupt(self, tmp_path):
        key = make_key("torn")
        with sync_store(tmp_path) as store:
            store.put(key, make_record(1))
            path = self._entry_file(store)
            path.write_bytes(path.read_bytes()[:10])
            assert store.get(key) is None
            assert store.counters()["store_corrupt"] == 1

    def test_verify_off_still_validates_structure(self, tmp_path):
        key = make_key("loose")
        with sync_store(tmp_path, verify="off") as store:
            store.put(key, make_record(1))
            assert store.get(key) == make_record(1)
            path = self._entry_file(store)
            path.write_bytes(b"garbage")
            assert store.get(key) is None  # header check catches it

    def test_verify_all_quarantines(self, tmp_path):
        with sync_store(tmp_path) as store:
            for i in range(4):
                store.put(make_key(f"v{i}"), make_record(i))
            path = self._entry_file(store)
            blob = bytearray(path.read_bytes())
            blob[-1] ^= 0xFF
            path.write_bytes(bytes(blob))
            checked, corrupt = store.verify_all()
            assert checked == 4
            assert corrupt == 1
            assert store.stats().quarantined == 1
            assert store.verify_all() == (3, 0)  # quarantined stays gone


class TestEviction:
    def test_lru_eviction_bounds_bytes(self, tmp_path):
        entry_size = len(
            struct.pack("<4sqqq", b"PRS1", 0, 0, 0)
        ) + 8 * len(TILE_RECORD_FIELDS) + 16
        budget = entry_size * 6
        with sync_store(tmp_path, max_bytes=budget) as store:
            for i in range(12):
                store.put(make_key(f"e{i}"), make_record(i))
                time.sleep(0.01)  # distinct mtimes for LRU order
            stats = store.stats()
            assert stats.total_bytes <= budget
            assert store.counters()["store_evictions"] > 0
            # The newest entry survives; the oldest went first.
            assert store.get(make_key("e11")) == make_record(11)
            assert store.get(make_key("e0")) is None

    def test_unbounded_when_zero(self, tmp_path):
        with sync_store(tmp_path, max_bytes=0) as store:
            for i in range(20):
                store.put(make_key(f"u{i}"), make_record(i))
            assert store.counters()["store_evictions"] == 0
            assert store.stats().entries == 20


class TestDegradation:
    def test_unwritable_root_disables_not_crashes(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root ignores directory permissions")
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        blocked.chmod(0o400)
        try:
            store = sync_store(blocked / "store")
            assert store.enabled is False
            assert "open failed" in store.disabled_reason
            store.put(make_key("x"), make_record(1))  # no-ops, no raise
            assert store.get(make_key("x")) is None
        finally:
            blocked.chmod(0o700)

    def test_injected_io_error_on_get_degrades(self, tmp_path):
        key = make_key("io")
        with sync_store(tmp_path) as store:
            store.put(key, make_record(1))
            with faults.injected("store_io_error:match=get"):
                assert store.get(key) is None
            assert store.enabled is False
            assert store.counters()["store_errors"] == 1
            # Degraded store keeps no-opping silently:
            store.put(make_key("y"), make_record(2))
            assert store.get(key) is None

    def test_injected_io_error_on_put_degrades(self, tmp_path):
        with sync_store(tmp_path) as store:
            with faults.injected("store_io_error:match=put"):
                store.put(make_key("p"), make_record(1))
            assert store.enabled is False
            assert not list(store._scan_entries())

    def test_injected_corruption_flips_real_bytes(self, tmp_path):
        key, record = make_key("drill"), make_record(9)
        with sync_store(tmp_path) as store:
            store.put(key, record)
            with faults.injected("store_corrupt:times=1"):
                assert store.get(key) is None  # detected, not served
            assert store.counters()["store_corrupt"] == 1
            assert store.stats().quarantined == 1
            quarantined = list(store.quarantine_dir.iterdir())
            assert len(quarantined) == 1
            # The quarantined file carries genuinely flipped bytes:
            good = store._encode(key, record)
            assert quarantined[0].read_bytes() != good
            # Burned-out fault: the rebuilt entry reads clean.
            store.put(key, record)
            assert store.get(key) == record

    def test_corrupt_spec_skips_non_read_sites(self, tmp_path):
        """Without ``match``, store_corrupt must not burn triggers at
        open/put sites where its verdict would be ignored."""
        with faults.injected("store_corrupt:times=1") as plan:
            with sync_store(tmp_path) as store:
                store.put(make_key("s"), make_record(1))
            assert plan.get("store_corrupt").fired == 0


class TestTmpReclaim:
    def test_dead_writer_tmp_is_reclaimed(self, tmp_path):
        with sync_store(tmp_path) as store:
            store.put(make_key("t"), make_record(1))
            shard = next(iter(store._scan_entries()))[0].parent
        # A pid from a long-dead writer (pid 2^22 is out of range on
        # default Linux pid_max) and one from this very process:
        dead = shard / ".tmp-4194304-1-x.rec"
        ours = shard / f".tmp-{os.getpid()}-9-y.rec"
        dead.write_bytes(b"torn")
        ours.write_bytes(b"torn")
        with sync_store(tmp_path):
            assert not dead.exists()
            assert not ours.exists()

    def test_live_writer_tmp_survives(self, tmp_path):
        with sync_store(tmp_path) as store:
            store.put(make_key("t"), make_record(1))
            shard = next(iter(store._scan_entries()))[0].parent
        live = shard / ".tmp-1-1-z.rec"  # pid 1 is always alive
        live.write_bytes(b"in-flight")
        with sync_store(tmp_path):
            assert live.exists()

    def test_in_flight_tmp_is_not_an_entry(self, tmp_path):
        # A publish in progress after open: the temp file carries the
        # final entry name (so it ends in .rec) and is still truncated.
        entry_size = len(
            struct.pack("<4sqqq", b"PRS1", 0, 0, 0)
        ) + 8 * len(TILE_RECORD_FIELDS) + 16
        with sync_store(tmp_path, max_bytes=entry_size * 4) as store:
            for i in range(2):
                store.put(make_key(f"f{i}"), make_record(i))
            real = store._entry_path(make_key("f2"))
            real.parent.mkdir(exist_ok=True)
            tmp = real.parent / f".tmp-{os.getpid()}-99-{real.name}"
            tmp.write_bytes(b"\0" * (entry_size * 8))
            assert store.verify_all() == (2, 0)
            stats = store.stats()
            assert (stats.entries, stats.quarantined) == (2, 0)
            assert stats.total_bytes == 2 * entry_size
            store._evict()  # over budget only if the temp were counted
            assert store.counters()["store_evictions"] == 0
            assert store._bytes == 2 * entry_size
            assert store.clear() == 2
            assert tmp.exists()
            assert tmp.stat().st_size == entry_size * 8


class TestTieredForestCache:
    def test_store_hit_backfills_memory(self, tmp_path):
        key, record = make_key("tier"), make_record(4)
        with sync_store(tmp_path) as store:
            store.put(key, record)
            cache = ForestCache(8, store=store)
            assert cache.get_record_by_key(key) == record
            assert cache.misses == 1  # memory missed...
            assert store.counters()["store_hits"] == 1  # ...store served
            assert cache.get_record_by_key(key) == record
            assert cache.hits == 1  # backfilled: now in-memory
            assert store.counters()["store_hits"] == 1  # store untouched

    def test_put_writes_through(self, tmp_path):
        key, record = make_key("through"), make_record(5)
        with sync_store(tmp_path) as store:
            cache = ForestCache(8, store=store)
            cache.put_record_by_key(key, record)
            fresh = ForestCache(8, store=store)
            assert fresh.get_record_by_key(key) == record

    @staticmethod
    def _tiered(path):
        """A store holding s0-s3 and a full 4-entry cache over it holding
        m0-m3 (written through, so the store holds those too)."""
        store = sync_store(path)
        for i in range(4):
            store.put(make_key(f"s{i}"), make_record(10 + i))
        cache = ForestCache(4, store=store)
        for i in range(4):
            cache.put_record_by_key(make_key(f"m{i}"), make_record(20 + i))
        return store, cache

    def test_bucket_calls_match_per_key_calls(self, tmp_path):
        """One get_many/put_many per bucket leaves records, counters, LRU
        order and store traffic exactly as the per-key calls do, including
        memory entries (m0, m3) evicted by earlier keys' backfills before
        their own lookups."""
        names = ["s0", "m1", "new0", "s1", "m0", "new1", "m3", "s2"]
        bucket = [make_key(name) for name in names]
        fresh = [key for key, name in zip(bucket, names) if name.startswith("new")]
        computed = [make_record(30), make_record(31)]
        outcomes = []
        for mode in ("per_key", "bucket"):
            store, cache = self._tiered(tmp_path / mode)
            with store:
                if mode == "per_key":
                    found = [cache.get_record_by_key(key) for key in bucket]
                    for key, record in zip(fresh, computed):
                        cache.put_record_by_key(key, record)
                else:
                    found = cache.get_many(bucket)
                    cache.put_many(fresh, computed)
                reread = ForestCache(8, store=store).get_many(bucket)
                outcomes.append((
                    found,
                    (cache.hits, cache.misses),
                    list(cache._entries),
                    store.counters(),
                    store.stats().entries,
                    reread,
                ))
        assert outcomes[0] == outcomes[1]
        found, counts, lru = outcomes[1][:3]
        assert found[names.index("new0")] is None
        assert found[names.index("m3")] == make_record(23)  # via the store
        assert counts == (1, 7)  # only m1 is still in memory at its lookup
        assert lru == [make_key(name) for name in ("m3", "s2", "new0", "new1")]

    def test_put_many_async_round_trip(self, tmp_path):
        keys = [make_key(f"async{i}") for i in range(5)]
        records = [make_record(40 + i) for i in range(5)]
        with ResultStore(tmp_path) as store:
            store.put_many(keys, records)
            store.flush()
            assert store.get_many(keys + [make_key("absent")]) == records + [None]
            assert (store.counters()["store_hits"], store.counters()["store_misses"]) == (5, 1)

    def test_no_store_behaves_as_before(self):
        cache = ForestCache(8)
        key = make_key("plain")
        assert cache.get_record_by_key(key) is None
        cache.put_record_by_key(key, make_record(1))
        assert cache.get_record_by_key(key) == make_record(1)


class TestOpenStore:
    def test_disabled_config_returns_none(self):
        class Cfg:
            enabled = False

        assert open_store(Cfg()) is None

    def test_enabled_config_builds_store(self, tmp_path):
        class Cfg:
            enabled = True
            path = str(tmp_path / "s")
            max_bytes = 1024
            verify = "checksum"

        store = open_store(Cfg())
        try:
            assert store is not None
            assert store.max_bytes == 1024
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Multi-process safety
# ---------------------------------------------------------------------------

HAMMER_KEYS = 24
HAMMER_OPS = 150


def _hammer_worker(path: str, worker: int, failures) -> None:
    """Mixed read/write/evict load; any wrong byte is a failure."""
    store = ResultStore(path, max_bytes=0, async_writes=False)
    rng = np.random.default_rng(worker)
    try:
        for op in range(HAMMER_OPS):
            index = int(rng.integers(HAMMER_KEYS))
            key = make_key(f"h{index}")
            expected = make_record(index)
            if rng.random() < 0.5:
                store.put(key, expected)
            else:
                got = store.get(key)
                if got is not None and got != expected:
                    failures.put(f"worker {worker} op {op}: torn read {got}")
                    return
        checked, corrupt = store.verify_all()
        if corrupt:
            failures.put(f"worker {worker}: {corrupt}/{checked} corrupt")
    finally:
        store.close()


class TestMultiProcess:
    def test_concurrent_hammer_no_torn_reads(self, tmp_path):
        """N processes hammering one store directory: every successful
        read returns the exact record for its key, and a full verify
        afterwards finds zero corruption."""
        ctx = multiprocessing.get_context("spawn")
        failures = ctx.Queue()
        workers = [
            ctx.Process(
                target=_hammer_worker, args=(str(tmp_path), rank, failures)
            )
            for rank in range(4)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        assert failures.empty(), failures.get()
        with sync_store(tmp_path) as store:
            checked, corrupt = store.verify_all()
            assert corrupt == 0
            for index in range(HAMMER_KEYS):
                got = store.get(make_key(f"h{index}"))
                assert got is None or got == make_record(index)

    def test_concurrent_hammer_with_eviction(self, tmp_path):
        """Same hammer under a byte budget: evictions race reads, which
        must surface as plain misses — never torn records."""
        entry_size = struct.calcsize("<4sqqq") + 8 * len(TILE_RECORD_FIELDS) + 16

        def bounded_worker(path, worker, failures):
            store = ResultStore(
                path,
                max_bytes=entry_size * (HAMMER_KEYS // 2),
                async_writes=False,
            )
            rng = np.random.default_rng(100 + worker)
            try:
                for op in range(HAMMER_OPS):
                    index = int(rng.integers(HAMMER_KEYS))
                    key = make_key(f"h{index}")
                    expected = make_record(index)
                    if rng.random() < 0.6:
                        store.put(key, expected)
                    else:
                        got = store.get(key)
                        if got is not None and got != expected:
                            failures.append(f"torn read at op {op}")
                            return
            finally:
                store.close()

        # Threads exercise the same interleavings in-process (spawn
        # can't pickle a closure); the spawn-based hammer above covers
        # the cross-process rename/eviction races.
        import threading

        failures: list[str] = []
        threads = [
            threading.Thread(target=bounded_worker, args=(tmp_path, i, failures))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not failures, failures
        with sync_store(tmp_path) as store:
            assert store.verify_all()[1] == 0


def _crash_writer(path: str, ready) -> None:
    """Publish entries forever (sync writes) until SIGKILLed."""
    store = ResultStore(path, async_writes=False)
    serial = 0
    while True:
        store.put(make_key(f"crash{serial % 64}"), make_record(serial % 64))
        serial += 1
        if serial == 8:
            ready.set()  # parent may kill us any time from here on


class TestCrashRecovery:
    def test_sigkill_mid_write_reopens_clean(self, tmp_path):
        """A writer killed mid-publish must leave a store that reopens,
        verifies clean, and still serves every published entry."""
        ctx = multiprocessing.get_context("spawn")
        ready = ctx.Event()
        writer = ctx.Process(target=_crash_writer, args=(str(tmp_path), ready))
        writer.start()
        assert ready.wait(timeout=60), "writer never got going"
        os.kill(writer.pid, signal.SIGKILL)
        writer.join(timeout=30)
        assert writer.exitcode == -signal.SIGKILL

        with sync_store(tmp_path) as store:
            assert store.enabled
            checked, corrupt = store.verify_all()
            assert corrupt == 0, "SIGKILL produced a torn published entry"
            assert checked >= 8  # at least the pre-ready publishes landed
            # Published entries serve hits with the exact bytes written:
            hits = 0
            for index in range(64):
                got = store.get(make_key(f"crash{index}"))
                if got is not None:
                    assert got == make_record(index)
                    hits += 1
            assert hits == checked
            # No temp litter survives reopen (the dead pid is reclaimed):
            litter = [
                leftover
                for path, _, _ in store._scan_entries()
                for leftover in path.parent.glob(".tmp-*")
            ]
            assert litter == []


def _late_publisher(path: str) -> None:
    """Publish entries into a store another process already has open."""
    store = ResultStore(path, async_writes=False)
    try:
        store.put(make_key("late-a"), make_record(70))
        store.put(make_key("late-b"), make_record(71))
    finally:
        store.close()


class TestCrossProcessWarmShare:
    """A second opener warm-shares entries published *after* its open:
    the first miss triggers one on-disk index rescan (ISSUE 9)."""

    def test_second_opener_sees_late_publishes(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        with sync_store(tmp_path) as reader:
            # The reader opened against an empty directory; only now
            # does a sibling process publish.
            publisher = ctx.Process(target=_late_publisher, args=(str(tmp_path),))
            publisher.start()
            publisher.join(timeout=60)
            assert publisher.exitcode == 0
            # First miss rescans the on-disk index: both late entries
            # warm-share into this process as hits.
            assert reader.get(make_key("late-a")) == make_record(70)
            assert reader.get(make_key("late-b")) == make_record(71)
            counters = reader.counters()
            assert counters["store_hits"] == 2
            assert counters["store_misses"] == 0

    def test_rescan_happens_once_per_open(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        with sync_store(tmp_path) as reader:
            # Consume the one rescan on a genuinely absent key.
            assert reader.get(make_key("never")) is None
            publisher = ctx.Process(target=_late_publisher, args=(str(tmp_path),))
            publisher.start()
            publisher.join(timeout=60)
            assert publisher.exitcode == 0
            # Publishes after the rescan stay invisible to this open...
            assert reader.get(make_key("late-a")) is None
        # ...and surface on the next open, without needing a miss first.
        with sync_store(tmp_path) as reopened:
            assert reopened.get(make_key("late-a")) == make_record(70)

    def test_rescan_does_not_mask_own_misses(self, tmp_path):
        with sync_store(tmp_path) as store:
            assert store.get(make_key("absent")) is None
            assert store.counters()["store_misses"] == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
