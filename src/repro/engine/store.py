"""Crash-safe persistent content-addressed result store.

The in-memory :class:`~repro.engine.pipeline.ForestCache` and the
planner's per-bucket dedup die with the process, yet the scheduler
measures ~8.4x cross-request content dedup — at serving scale most tile
contents have been transformed before.  :class:`ResultStore` is the
durable tier underneath them: an on-disk map from a tile's content
digest to its packed transform record, shared by every process that
points at the same directory.

Robustness contract (the whole point of this module):

* **Atomic publish.** Entries are written to a same-directory temp file,
  fsynced, then :func:`os.replace`'d into place — readers only ever see
  a complete entry or no entry.  A writer killed mid-publish leaves a
  temp file that the next open reclaims; it can never leave a torn
  entry under the final name.  The async writer amortizes the fsync:
  batches of published entries are fsynced together at flush/close (or
  every ``_FSYNC_BATCH`` publishes), keeping durability off the kernel
  hot path while rename atomicity alone guarantees no torn entries.
* **Checksums on read.** Every entry carries a BLAKE2 checksum over its
  payload, verified on each read (``verify="checksum"``, the default).
  A corrupt entry is *quarantined* — moved into ``quarantine/`` with its
  counters bumped — and the caller recomputes through the kernel path.
  The store never crashes a run and never serves bad bytes.
* **Multi-process safe.** Entry names are pure functions of the content
  key, so racing writers publish identical bytes and rename atomicity
  makes the last one win harmlessly.  Readers racing eviction see a
  plain miss.  No locks are shared across processes.  Misses resolve on
  an in-memory name index (snapshot at open plus our own publishes), so
  the cold path costs no syscalls; the first miss after open triggers
  one index rescan, so entries published by *other* processes after our
  open still warm-share into this one (later publishes surface on the
  next open).
* **Bounded.** ``max_bytes`` caps the namespace; publishes past the
  budget evict least-recently-used entries (file mtime, refreshed on
  hit — batched onto the writer thread so hits stay syscall-free) down
  to the low-water mark.
* **Fail-safe degradation.** Any unexpected ``OSError`` (unwritable
  directory, injected ``store_io_error``, disk gone) disables the store
  for the process — runs keep working through the kernel path, and the
  reason is visible in :meth:`ResultStore.stats`.

Entries are versioned by the record schema: the namespace directory
name hashes ``SCHEMA_VERSION`` plus ``TILE_RECORD_FIELDS``, so a store
written by an older/newer record layout can never alias into this one —
stale entries simply live in a different namespace.

Fault injection (:mod:`repro.engine.faults`) hooks the IO sites:
``store_corrupt`` flips payload bytes of a real on-disk entry just
before the read so the checksum/quarantine path is exercised end to
end, ``store_io_error`` raises ``OSError`` at a site so degradation is
deterministic in tests and CI drills.
"""

from __future__ import annotations

import hashlib
import os
import queue
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.core.prosparsity import TILE_RECORD_FIELDS
from repro.engine import faults

__all__ = [
    "SCHEMA_VERSION",
    "VERIFY_POLICIES",
    "ResultStore",
    "StoreStats",
    "default_store_path",
    "namespace_tag",
    "open_store",
]

#: Bump on any change to the entry layout below.
SCHEMA_VERSION = 1

#: ``verify`` policies: ``checksum`` validates every read, ``off``
#: trusts published bytes (structure is still validated).
VERIFY_POLICIES = ("checksum", "off")

#: Entry layout: magic, m, k, field count, int64 record values, checksum.
_MAGIC = b"PRS1"
_HEADER = struct.Struct("<4sqqq")
_CHECKSUM_BYTES = 16

#: Environment override for the default store location.
_PATH_ENV = "REPRO_STORE_DIR"

#: Eviction drains to this fraction of ``max_bytes`` so every publish
#: near the cap does not trigger a directory scan.
_LOW_WATER = 0.8


def namespace_tag() -> str:
    """Directory name binding entries to the record schema.

    Hashing the schema version together with the record field tuple
    means a store produced by any other record layout lands in a
    sibling directory — stale entries can never alias current reads.
    """
    blob = repr((SCHEMA_VERSION, TILE_RECORD_FIELDS)).encode()
    return f"v{SCHEMA_VERSION}-{hashlib.blake2b(blob, digest_size=6).hexdigest()}"


def default_store_path() -> str:
    """Store root when ``[cache] path`` is left empty."""
    override = os.environ.get(_PATH_ENV)
    if override:
        return override
    return str(Path.home() / ".cache" / "prosperity-repro" / "store")


@dataclass
class StoreStats:
    """Point-in-time store description (``repro cache stats``)."""

    path: str
    enabled: bool
    entries: int
    total_bytes: int
    max_bytes: int
    quarantined: int
    hits: int
    misses: int
    corrupt: int
    evictions: int
    errors: int
    disabled_reason: str


class ResultStore:
    """Durable digest -> tile-record map with quarantine and eviction.

    Keys are the :meth:`ForestCache.key` tuples ``(m, k, digest)`` —
    one BLAKE2 digest per distinct tile content, hashed once by the
    caller.  Values are the packed transform records
    (``len(TILE_RECORD_FIELDS)`` int64s).

    Publishes are asynchronous by default: :meth:`put` enqueues and a
    daemon writer thread performs the fsynced atomic publish off the
    kernel hot path (``flush()``/``close()`` drain it).  Pass
    ``async_writes=False`` to publish inline — tests and the CLI
    ``cache`` subcommand do.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        max_bytes: int = 256 * 1024 * 1024,
        verify: str = "checksum",
        async_writes: bool = True,
    ):
        if verify not in VERIFY_POLICIES:
            raise ValueError(
                f"unknown verify policy {verify!r}; choose from "
                + ", ".join(VERIFY_POLICIES)
            )
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(path)
        self.directory = self.root / namespace_tag()
        self.quarantine_dir = self.directory / "quarantine"
        self.max_bytes = int(max_bytes)
        self.verify = verify
        self.enabled = True
        self.disabled_reason = ""
        # Counter / byte-accounting guard; never held across file IO on
        # the read path, and publishes serialize through the writer.
        self._mutex = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._corrupt = 0
        self._evictions = 0
        self._errors = 0
        self._bytes = 0
        self._tmp_serial = 0
        # Name index: basenames of entries present at open plus our own
        # publishes, minus evictions/quarantines.  Misses resolve on it
        # without a syscall (the common cold-run case); the first miss
        # after open rescans the directory once so entries published by
        # another process after our open warm-share into this one.
        # Mutated only under the GIL (set add/discard/contains).
        self._index: set[str] = set()
        self._rescanned = False
        self._shards_made: set[str] = set()
        self._buffer: list[tuple] = []
        self._touched: list[str] = []  # hit paths pending LRU mtime refresh
        self._queue: queue.SimpleQueue | None = None
        self._writer: threading.Thread | None = None
        self._open()
        if async_writes and self.enabled:
            self._queue = queue.SimpleQueue()
            self._writer = threading.Thread(
                target=self._drain_writes, name="repro-store-writer", daemon=True
            )
            self._writer.start()

    # -- lifecycle ------------------------------------------------------
    def _open(self) -> None:
        try:
            if faults.store_fault("store.open") == "io_error":
                raise OSError("injected store io error at open")
            self.directory.mkdir(parents=True, exist_ok=True)
            self.quarantine_dir.mkdir(exist_ok=True)
            note = self.directory / "FORMAT"
            if not note.exists():
                note.write_text(
                    f"prosperity-repro result store, schema {SCHEMA_VERSION}\n"
                    f"record fields: {', '.join(TILE_RECORD_FIELDS)}\n"
                )
            self._reclaim_tmp()
            total = 0
            for path, _, size in self._scan_entries():
                total += size
                self._index.add(path.name)
            self._bytes = total
        except OSError as error:
            self._disable(f"open failed: {error}")

    def _disable(self, reason: str) -> None:
        """Fail safe: one unexpected IO error turns the store off for
        this process (runs continue through the kernel path)."""
        with self._mutex:
            self.enabled = False
            if not self.disabled_reason:
                self.disabled_reason = reason
            self._errors += 1

    def flush(self) -> None:
        """Block until every queued publish has landed on disk."""
        writer_queue = self._queue
        if writer_queue is None:
            return
        self._hand_off_buffer(writer_queue)
        done = threading.Event()
        writer_queue.put(done)
        done.wait(timeout=30.0)

    def close(self) -> None:
        """Drain pending publishes and stop the writer.  Idempotent."""
        writer_queue, writer = self._queue, self._writer
        self._queue = None
        self._writer = None
        if writer_queue is not None and writer is not None and writer.is_alive():
            self._hand_off_buffer(writer_queue)
            writer_queue.put(None)
            writer.join(timeout=30.0)

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- paths and layout -----------------------------------------------
    @staticmethod
    def _entry_name(key: tuple) -> str:
        # Runs once per lookup on the cold-miss path: plain formatting
        # (integer-like ``m``/``k`` and any bytes-like digest) only.
        m, k, digest = key
        return f"{digest.hex()}-{m}x{k}.rec"

    def _entry_path(self, key: tuple) -> Path:
        name = self._entry_name(key)
        return self.directory / name[:2] / name

    def _scan_entries(self):
        """Yield ``(path, mtime, size)`` for every published entry.

        In-flight ``.tmp-*`` files also end in ``.rec`` but belong to a
        live writer until its ``os.replace``; they are never entries.
        """
        try:
            shards = list(self.directory.iterdir())
        except OSError:
            return
        for shard in shards:
            if not shard.is_dir() or shard.name == "quarantine":
                continue
            for entry in shard.iterdir():
                if entry.suffix != ".rec" or entry.name.startswith(".tmp-"):
                    continue
                try:
                    info = entry.stat()
                except OSError:
                    continue  # lost a race with eviction/clear
                yield entry, info.st_mtime, info.st_size

    def _reclaim_tmp(self) -> None:
        """Remove temp files left by writers that died mid-publish.

        Temp names embed the writer pid; only files whose writer is
        verifiably gone (or is this very process, pre-restart) are
        removed, so a live concurrent publisher is never raced.
        """
        for shard in self.directory.iterdir():
            if not shard.is_dir() or shard.name == "quarantine":
                continue
            for leftover in shard.glob(".tmp-*"):
                try:
                    pid = int(leftover.name.split("-")[1])
                except (IndexError, ValueError):
                    pid = -1
                if pid > 0 and pid != os.getpid() and _pid_alive(pid):
                    continue
                try:
                    leftover.unlink()
                except OSError:
                    pass

    # -- serialization --------------------------------------------------
    @staticmethod
    def _encode(key: tuple, record: tuple) -> bytes:
        m, k, _ = key
        values = tuple(int(value) for value in record)
        payload = _HEADER.pack(_MAGIC, int(m), int(k), len(values)) + struct.pack(
            f"<{len(values)}q", *values
        )
        checksum = hashlib.blake2b(payload, digest_size=_CHECKSUM_BYTES).digest()
        return payload + checksum

    def _decode(self, key: tuple, blob: bytes) -> tuple | None:
        """Parse an entry; ``None`` means corrupt (caller quarantines)."""
        if len(blob) <= _HEADER.size + _CHECKSUM_BYTES:
            return None
        payload, checksum = blob[:-_CHECKSUM_BYTES], blob[-_CHECKSUM_BYTES:]
        if self.verify == "checksum":
            expected = hashlib.blake2b(payload, digest_size=_CHECKSUM_BYTES).digest()
            if checksum != expected:
                return None
        magic, m, k, count = _HEADER.unpack_from(payload)
        if (
            magic != _MAGIC
            or m != int(key[0])
            or k != int(key[1])
            or count <= 0
            or len(payload) != _HEADER.size + 8 * count
        ):
            return None
        return struct.unpack_from(f"<{count}q", payload, _HEADER.size)

    # -- read path ------------------------------------------------------
    def get(self, key: tuple) -> tuple | None:
        """Record for ``key``, or ``None`` on miss/corruption/disabled."""
        return self.get_many([key])[0]

    def get_many(self, keys: list[tuple]) -> list[tuple | None]:
        """Records for ``keys`` (``None`` on miss/corruption/disabled).

        Entry names are formatted in one loop and the counters move under
        one mutex hold, exactly as :meth:`get` per key would move them.
        Corrupt entries are quarantined and counted; the caller falls
        back to the kernel path exactly as on a miss.
        """
        records: list[tuple | None] = [None] * len(keys)
        if not self.enabled:
            return records
        names = [self._entry_name(key) for key in keys]
        index = self._index
        # Cross-process warm sharing: the first miss after open rescans
        # the directory once — a store populated by another process
        # after our open turns that miss into a hit. Later misses are
        # definite and cost no syscalls (cold-run case).
        if not self._rescanned and not all(name in index for name in names):
            self._rescan_index()
        hits = misses = corrupt = 0
        for i, name in enumerate(names):
            if name not in index:
                misses += 1
                continue
            pathstr = f"{self.directory}{os.sep}{name[:2]}{os.sep}{name}"
            try:
                with open(pathstr, "rb") as handle:
                    blob = handle.read()
            except FileNotFoundError:  # evicted/cleared by another process
                index.discard(name)
                misses += 1
                continue
            except OSError as error:
                self._disable(f"read failed: {error}")
                break
            verdict = faults.store_fault("store.get")
            if verdict == "io_error":
                self._disable("read failed: injected store io error")
                break
            if verdict == "corrupt":
                blob = _corrupt_on_disk(Path(pathstr), blob)
            record = self._decode(keys[i], blob)
            if record is None:
                self._quarantine(Path(pathstr))
                corrupt += 1
                misses += 1
                continue
            # LRU recency refresh: batched off the hot read path when a
            # writer thread runs (it applies the utimes at the next kick/
            # flush/close), inline for synchronous stores.
            if self._queue is not None:
                self._touched.append(pathstr)
            else:
                try:
                    os.utime(pathstr)
                except OSError:
                    pass
            hits += 1
            records[i] = record
        with self._mutex:
            self._hits += hits
            self._misses += misses
            self._corrupt += corrupt
        return records

    def _rescan_index(self) -> None:
        """Refresh the name index from disk, at most once per open.

        Racing readers may both pass the flag check; the double scan is
        harmless (set adds are idempotent) and the flag flip under the
        mutex keeps the steady state at zero extra scans.  The byte
        counter only ever grows here — eviction rescans authoritative
        sizes itself, so a conservative overcount is safe.
        """
        with self._mutex:
            if self._rescanned:
                return
            self._rescanned = True
        total = 0
        for path, _, size in self._scan_entries():
            self._index.add(path.name)
            total += size
        with self._mutex:
            self._bytes = max(self._bytes, total)

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry aside so it is never read again but stays
        available for post-mortems (``repro cache verify`` reports it)."""
        target = self.quarantine_dir / f"{path.name}.{os.getpid()}.quarantined"
        self._index.discard(path.name)
        try:
            size = path.stat().st_size
            os.replace(path, target)
            with self._mutex:
                self._bytes = max(0, self._bytes - size)
        except OSError:
            try:  # racing quarantiners: losing the rename is fine,
                path.unlink()  # but the entry must not stay live.
            except OSError:
                pass

    # -- write path -----------------------------------------------------
    #: Async puts buffer in memory and hand off to the writer in bulk —
    #: at :meth:`kick` (engines call it when a run finishes), at
    #: flush/close, or when the buffer crosses this bound.  Publishing
    #: *during* a run is deliberately avoided: an IO thread waking per
    #: entry against a compute-bound main thread convoys on the GIL and
    #: was measured to nearly double a cold run's wall-clock.
    _CHUNK = 8192

    def put(self, key: tuple, record: tuple) -> None:
        """Publish ``key -> record`` (asynchronously when a writer runs)."""
        self.put_many([key], [record])

    def put_many(self, keys: list[tuple], records) -> None:
        """Publish each ``keys[i] -> records[i]``, as :meth:`put` would."""
        if not self.enabled:
            return
        writer_queue = self._queue
        if writer_queue is None:
            for key, record in zip(keys, records):
                self._publish(key, tuple(record))  # no-op once disabled
            return
        self._buffer.extend(
            (key, tuple(record)) for key, record in zip(keys, records)
        )
        if len(self._buffer) >= self._CHUNK:
            self._hand_off_buffer(writer_queue)

    def _hand_off_buffer(self, writer_queue: queue.SimpleQueue) -> None:
        with self._mutex:
            chunk, self._buffer = self._buffer, []
            touched, self._touched = self._touched, []
        if chunk or touched:
            writer_queue.put((chunk, touched))

    def kick(self) -> None:
        """Start publishing buffered puts in the background (non-blocking).

        Engines call this when a run completes so entries land on disk
        during idle time between runs instead of contending with kernel
        compute; a no-op for synchronous stores.
        """
        writer_queue = self._queue
        if writer_queue is not None:
            self._hand_off_buffer(writer_queue)

    #: The async writer batches durability: entries publish (atomic
    #: rename) without an inline fsync, and pending files are fsynced
    #: together at flush/close or every this-many publishes.  Rename
    #: atomicity alone already rules out torn entries under any process
    #: crash; the deferred fsync only narrows the power-loss window,
    #: and a torn-on-power-loss entry is caught by the read checksum.
    _FSYNC_BATCH = 1024

    def _drain_writes(self) -> None:
        writer_queue = self._queue
        pending: list[Path] = []
        while writer_queue is not None:
            item = writer_queue.get()
            if item is None:
                self._fsync_pending(pending)
                return
            if isinstance(item, threading.Event):
                self._fsync_pending(pending)
                item.set()
                continue
            chunk, touched = item
            for key, record in chunk:  # a chunk of buffered puts
                published = self._publish(key, record, fsync=False)
                if published is not None:
                    pending.append(published)
                    if len(pending) >= self._FSYNC_BATCH:
                        self._fsync_pending(pending)
            for pathstr in touched:  # batched LRU recency refreshes
                try:
                    os.utime(pathstr)
                except OSError:
                    pass

    def _fsync_pending(self, pending: list[Path]) -> None:
        """Durability for batched async publishes: fsync every pending
        entry, then each touched shard directory (the renames).  Best
        effort — an entry evicted meanwhile is simply gone."""
        directories = set()
        for path in pending:
            try:
                descriptor = os.open(path, os.O_RDONLY)
            except OSError:
                continue  # evicted/quarantined since publish
            try:
                os.fsync(descriptor)
            except OSError:
                pass
            finally:
                os.close(descriptor)
            directories.add(path.parent)
        for directory in directories:
            try:
                descriptor = os.open(directory, os.O_RDONLY)
            except OSError:
                continue
            try:
                os.fsync(descriptor)
            except OSError:
                pass
            finally:
                os.close(descriptor)
        pending.clear()

    def _publish(self, key: tuple, record: tuple, fsync: bool = True) -> Path | None:
        """Atomic publish: temp file + rename (+ inline fsync when
        synchronous).  Returns the entry path, or ``None`` on failure."""
        if not self.enabled:
            return None  # keeps the writer draining after degradation
        path = self._entry_path(key)
        blob = self._encode(key, record)
        with self._mutex:
            self._tmp_serial += 1
            serial = self._tmp_serial
        tmp = path.parent / f".tmp-{os.getpid()}-{serial}-{path.name}"
        try:
            if faults.store_fault("store.put") == "io_error":
                raise OSError("injected store io error at publish")
            shard = path.parent
            if shard.name not in self._shards_made:
                shard.mkdir(parents=True, exist_ok=True)
                self._shards_made.add(shard.name)
            existed = path.name in self._index
            with open(tmp, "wb") as handle:
                handle.write(blob)
                if fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            self._index.add(path.name)
        except OSError as error:
            try:
                tmp.unlink()
            except OSError:
                pass
            self._disable(f"publish failed: {error}")
            return None
        if not existed:
            with self._mutex:
                self._bytes += len(blob)
                over_budget = self.max_bytes > 0 and self._bytes > self.max_bytes
            if over_budget:
                self._evict()
        return path

    def _evict(self) -> None:
        """Drop least-recently-used entries down to the low-water mark.

        Rescans the directory for authoritative sizes (concurrent
        writers move the approximate counter); racing deletions are
        harmless — whoever loses just skips the file.
        """
        entries = sorted(self._scan_entries(), key=lambda item: item[1])
        total = sum(size for _, _, size in entries)
        target = int(self.max_bytes * _LOW_WATER)
        evicted = 0
        for path, _, size in entries:
            if total <= target:
                break
            try:
                path.unlink()
            except OSError:
                continue
            self._index.discard(path.name)
            total -= size
            evicted += 1
        with self._mutex:
            self._bytes = total
            self._evictions += evicted

    # -- observability / maintenance ------------------------------------
    def counters(self) -> dict[str, int]:
        """Monotonic per-process counters (engines snapshot-and-diff
        these into ``EngineReport.store_*`` per run)."""
        with self._mutex:
            return {
                "store_hits": self._hits,
                "store_misses": self._misses,
                "store_corrupt": self._corrupt,
                "store_evictions": self._evictions,
                "store_errors": self._errors,
            }

    def stats(self) -> StoreStats:
        """Full description including an on-disk scan."""
        entries = list(self._scan_entries()) if self.enabled else []
        try:
            quarantined = (
                sum(1 for _ in self.quarantine_dir.iterdir()) if self.enabled else 0
            )
        except OSError:
            quarantined = 0
        with self._mutex:
            return StoreStats(
                path=str(self.directory),
                enabled=self.enabled,
                entries=len(entries),
                total_bytes=sum(size for _, _, size in entries),
                max_bytes=self.max_bytes,
                quarantined=quarantined,
                hits=self._hits,
                misses=self._misses,
                corrupt=self._corrupt,
                evictions=self._evictions,
                errors=self._errors,
                disabled_reason=self.disabled_reason,
            )

    def verify_all(self) -> tuple[int, int]:
        """Scan every entry, quarantine corrupt ones.

        Returns ``(checked, corrupt)``.  Uses each entry's embedded
        ``(m, k)`` header so the scan needs no external key list; the
        filename digest is authoritative for content identity.
        """
        checked = corrupt = 0
        for path, _, _ in self._scan_entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            checked += 1
            header_ok = len(blob) > _HEADER.size + _CHECKSUM_BYTES
            if header_ok:
                magic, m, k, _ = _HEADER.unpack_from(blob)
                header_ok = magic == _MAGIC
            if not header_ok or self._decode((m, k, b""), blob) is None:
                self._quarantine(path)
                with self._mutex:
                    self._corrupt += 1
                corrupt += 1
        return checked, corrupt

    def clear(self) -> int:
        """Remove every published entry (quarantine included).

        Returns the number of entries removed.  The namespace directory
        itself stays, so concurrent stores keep working (they see
        misses, not errors).
        """
        removed = 0
        for path, _, _ in self._scan_entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
            self._index.discard(path.name)
        try:
            for leftover in self.quarantine_dir.iterdir():
                try:
                    leftover.unlink()
                except OSError:
                    pass
        except OSError:
            pass
        with self._mutex:
            self._bytes = 0
        return removed


def open_store(cache_config) -> "ResultStore | None":
    """Store from a ``[cache]`` config section, ``None`` when disabled.

    Duck-typed over ``enabled`` / ``path`` / ``max_bytes`` / ``verify``
    attributes so the API layer (Session, Scheduler, CLI) shares one
    construction path without a config import cycle.  An empty path
    falls back to :func:`default_store_path`.
    """
    if not getattr(cache_config, "enabled", False):
        return None
    return ResultStore(
        cache_config.path or default_store_path(),
        max_bytes=cache_config.max_bytes,
        verify=cache_config.verify,
    )


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # e.g. EPERM: exists but not ours
    return True


def _corrupt_on_disk(path: Path, blob: bytes) -> bytes:
    """``store_corrupt`` blast site: flip payload bytes of the *real*
    on-disk entry so detection, quarantine, and rebuild run against
    genuine corruption rather than a simulated return value."""
    if not blob:
        return blob
    position = len(blob) // 2
    mangled = bytearray(blob)
    mangled[position] ^= 0xFF
    try:
        with open(path, "r+b") as handle:
            handle.seek(position)
            handle.write(bytes([mangled[position]]))
    except OSError:
        pass
    return bytes(mangled)
