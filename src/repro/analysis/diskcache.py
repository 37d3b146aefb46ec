"""Persistent, content-addressed experiment cache.

The session-scoped :class:`~repro.analysis.runner.ExperimentCache` dies
with the process, so every new harness run (a pytest session, a CLI
invocation, a CI job) rebuilds and recompiles the same (benchmark,
configuration) pairs.  This module adds the cross-session layer: a
directory of pickled stage artefacts keyed by

* the *benchmark key* — registry name + width preset (hand-built MIGs
  have no stable cross-process identity and are never persisted),
* the *semantic configuration key* (:func:`~repro.analysis.runner.config_key`),
* and a *code-version fingerprint* — a SHA-256 over every ``repro``
  source file, so any change to the package invalidates the whole shard
  rather than serving artefacts a different compiler produced.

Entries are written atomically (temp file + ``os.replace``) and loaded
through an integrity check (magic, payload digest, key match); torn,
truncated, or otherwise corrupt files are treated as misses, never as
data.  Multiple processes — e.g. ``run_matrix(parallel=N)`` workers —
may share one cache root concurrently: each entry write is guarded by
an exclusive per-key lockfile, so exactly one writer serialises and
persists a given artefact while racing writers (whose payload would be
identical — stage computation is deterministic) skip the redundant
write-through instead of piling up temp files and renames on the same
path.  Locks carry their holder's PID: a lock whose writer has died is
broken immediately, anything else after a staleness timeout.

Layout::

    <root>/<fingerprint>/<sha256(key)>.pkl

``repro cache stats`` / ``repro cache clear`` expose the directory from
the command line.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pathlib
import pickle
import tempfile
import time
from typing import Iterable, Optional, Tuple

from ..resilience import faults, manifest as run_manifest

#: Default cache directory (relative to the working directory).
DEFAULT_ROOT = ".repro_cache"

#: File magic; bump when the entry format changes.
_MAGIC = b"RPCH1\n"

#: Age (seconds) after which another writer's lockfile is presumed dead
#: (crashed worker) and broken.  Serialising one entry takes well under
#: a second; a minute leaves room for pathological filesystem stalls.
STALE_LOCK_SECONDS = 60.0

#: How long a writer waits for a sibling to release an entry's lock
#: before giving up.  Entry writes take milliseconds, so a losing
#: writer normally gets the lock on an early poll; the bound only
#: matters when the holder is wedged (and the stale break then applies).
LOCK_WAIT_SECONDS = 1.0

_LOCK_POLL_SECONDS = 0.01

#: Uniquifier for stale-lock tombstones (see ``_acquire_lock``).
_TOMB_COUNTER = itertools.count()

_FINGERPRINT: Optional[str] = None


def encode_entry(key_repr: str, payload) -> bytes:
    """Serialise one cache entry into its on-disk/wire blob form.

    ``MAGIC + sha256hex(body) + body`` with ``body = pickle((key_repr,
    payload))`` — the format :class:`DiskCache` persists and
    :mod:`repro.cachesvc` ships over HTTP, so an artefact fetched from a
    cache server is byte-identical to one read off a shared root.
    """
    body = pickle.dumps((key_repr, payload), protocol=pickle.HIGHEST_PROTOCOL)
    return _MAGIC + hashlib.sha256(body).hexdigest().encode() + body


def verify_blob(blob: bytes) -> bool:
    """Structural integrity of a blob: magic plus payload digest.

    Deliberately does **not** unpickle — this is the check a cache
    *server* runs on opaque artefacts it never executes (admitting a
    tampered pickle to the warm tier would hand it to every client).
    """
    if not blob.startswith(_MAGIC):
        return False
    digest_end = len(_MAGIC) + 64
    digest = blob[len(_MAGIC):digest_end]
    return hashlib.sha256(blob[digest_end:]).hexdigest().encode() == digest


def blob_digest(blob: bytes) -> str:
    """SHA-256 (hex) of a whole blob — the put-verification checksum."""
    return hashlib.sha256(blob).hexdigest()


def decode_entry(blob: bytes, key_repr: str):
    """Decode a blob back into its payload, or ``None``.

    Anything wrong — bad magic, digest mismatch, unpicklable body, or a
    key mismatch (hash collision, format drift) — is a miss; corruption
    is never surfaced as data.
    """
    if not verify_blob(blob):
        return None
    try:
        stored_key, payload = pickle.loads(blob[len(_MAGIC) + 64:])
    except Exception:
        # A well-digested but unloadable body can only mean format
        # drift (e.g. a renamed class in a stale shard): miss.
        return None
    if stored_key != key_repr:
        return None
    return payload


def _lock_holder_dead(lock: pathlib.Path) -> bool:
    """``True`` if *lock* names a holder PID that no longer exists.

    Locks carry their writer's PID; a pool supervisor recovering from a
    crashed worker SIGTERMs the siblings, and a sibling killed while
    holding an entry lock leaks it — its retried job must not wait out
    :data:`STALE_LOCK_SECONDS` (and then *skip* the store) for a writer
    that can never release.  Best-effort on purpose: an empty or
    unparsable lock (a foreign writer, or the instant between create and
    write) and a reused PID both fall back to the age-based break.
    """
    try:
        pid = int(lock.read_bytes())
    except (OSError, ValueError):
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except OSError:
        return False  # e.g. EPERM: alive, just not ours
    return False


def _key_job(key: Tuple) -> Optional[str]:
    """Best-effort job label of a cache key, for fault targeting.

    Entry keys lead with a kind tag followed by the source identity
    (``("result", "adder", "default", …)``), so the second element —
    when it is a string — names the benchmark/source the entry belongs
    to.  Used only to scope ``$REPRO_FAULTS`` directives.
    """
    if len(key) > 1 and isinstance(key[1], str):
        return key[1]
    return None


def code_fingerprint() -> str:
    """SHA-256 over the ``repro`` package sources (hex, memoized).

    Any edit to any module under ``repro`` yields a new fingerprint, so
    persisted artefacts can never outlive the code that produced them.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


class DiskCache:
    """One cache root; stores and retrieves pickled stage artefacts.

    Thread-compatible in the same way the rest of the runner is: loads
    are pure reads, stores are atomic renames, and racing writers of the
    same key produce identical content (stage computation is
    deterministic), so last-writer-wins is harmless.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]" = DEFAULT_ROOT,
        *,
        fingerprint: Optional[str] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        #: Writes skipped because another process held the entry's lock
        #: (it was persisting the identical payload).
        self.lock_skips = 0

    # -- keying ----------------------------------------------------------

    def _path(self, key: Tuple) -> pathlib.Path:
        name = hashlib.sha256(repr(key).encode()).hexdigest()
        return self.root / self.fingerprint[:16] / f"{name}.pkl"

    def entry_path(self, key: Tuple) -> pathlib.Path:
        """The content-addressed path *key* persists under (whether or
        not an entry exists there yet) — how the parallel supervisor
        locates a retried job's manifests to annotate."""
        return self._path(key)

    # -- read/write ------------------------------------------------------

    def load(self, key: Tuple):
        """Return the stored payload for *key*, or ``None``.

        Anything wrong with the file — missing, truncated, bad digest,
        unpicklable, or keyed differently (a hash collision or format
        drift) — is a miss; corruption is never surfaced as data.
        """
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        # Chaos hook: an injected corruption must surface as a miss.
        blob = faults.corrupt_blob(blob, _key_job(key))
        payload = self._decode(blob, key)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    @staticmethod
    def _decode(blob: bytes, key: Tuple):
        return decode_entry(blob, repr(key))

    def _acquire_lock(self, path: pathlib.Path) -> Optional[pathlib.Path]:
        """Take the per-entry writer lock, or ``None`` on timeout.

        The lock is an ``O_EXCL``-created sidecar file: exactly one
        process holds it at a time, making every entry write
        single-writer even when a whole worker pool warms the same
        root.  A held lock is polled for up to
        :data:`LOCK_WAIT_SECONDS` (entry writes take milliseconds, so
        losers normally proceed on an early poll — this is what lets a
        verification-certificate upgrade land even when a sibling was
        persisting the unverified entry first); a lock whose recorded
        holder is dead, or older than :data:`STALE_LOCK_SECONDS`,
        belongs to a crashed writer and is broken.
        """
        lock = path.with_suffix(".lock")
        deadline = time.monotonic() + LOCK_WAIT_SECONDS
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                try:
                    # Record the holder so waiters can tell a *dead*
                    # writer (terminated pool worker — SIGTERM runs no
                    # Python cleanup, so the lock leaks) from a live
                    # slow one, and break it without the 60s wait.
                    os.write(fd, str(os.getpid()).encode())
                finally:
                    os.close(fd)
                return lock
            except FileExistsError:
                if time.monotonic() >= deadline:
                    return None
                try:
                    age = time.time() - lock.stat().st_mtime
                except FileNotFoundError:
                    continue  # holder finished between open and stat
                except OSError:
                    continue
                if age >= STALE_LOCK_SECONDS or _lock_holder_dead(lock):
                    self._break_stale_lock(lock)
                    continue
                if time.monotonic() >= deadline:
                    return None
                time.sleep(_LOCK_POLL_SECONDS)

    @staticmethod
    def _break_stale_lock(lock: pathlib.Path) -> None:
        """Break a crashed writer's lock so exactly one breaker wins.

        A bare ``unlink`` here would race: two waiters can both judge
        the lock stale and both unlink — and the second unlink can
        destroy a *fresh* lock acquired in between, letting two writers
        into the critical section at once.  Renaming the lock to a
        uniquely-named tombstone is atomic and single-winner: only one
        rename of a given path succeeds, every loser gets
        ``FileNotFoundError`` (which just means "lost the race — poll
        again"), and a fresh lock created after the rename is a
        different inode that no loser can touch.
        """
        tombstone = lock.with_name(
            f"{lock.name}.tomb-{os.getpid()}-{next(_TOMB_COUNTER)}"
        )
        try:
            os.rename(lock, tombstone)
        except FileNotFoundError:
            return  # another breaker (or the holder's release) won
        except OSError:
            return
        try:
            os.unlink(tombstone)
        except OSError:
            pass

    def store(
        self, key: Tuple, payload, *, replace=None, manifest=None
    ) -> None:
        """Persist *payload* under *key* (atomic, best-effort,
        single-writer).

        The entry's lockfile is acquired first (waiting briefly for a
        sibling writer to finish); an unobtainable lock skips the write
        (counted in :attr:`lock_skips`).  With a *replace* predicate
        the decision to overwrite an existing entry happens *inside*
        the lock: the current payload (if any decodes) is passed to
        ``replace`` and the write proceeds only on ``True`` — this is
        how verification certificates upgrade atomically and never
        downgrade, regardless of writer interleaving.  A cache must
        never take the experiment down: filesystem and serialisation
        errors are swallowed and the entry is simply not persisted.

        With a *manifest* dict the entry gets a ``run_manifest.json``
        sidecar (see :mod:`repro.resilience.manifest`), written inside
        the same lock so it always describes the bytes on disk; a
        skipped write (replace declined) still folds the manifest's
        event log into the existing sidecar, so recovery history is
        never lost to a lost store race.
        """
        path = self._path(key)
        lock = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            lock = self._acquire_lock(path)
            if lock is None:
                self.lock_skips += 1
                return
            faults.store_io_fault(_key_job(key))  # chaos hook
            if replace is not None:
                try:
                    current = self._decode(path.read_bytes(), key)
                except OSError:
                    current = None
                if current is not None and not replace(current):
                    if manifest is not None:
                        run_manifest.append_manifest_events(
                            path, manifest.get("events", [])
                        )
                    return
            blob = encode_entry(repr(key), payload)
            # The temp suffix is deliberately not ".pkl": a writer killed
            # mid-write (terminated worker, SIGKILL) orphans the temp
            # file, and an orphan must never be countable or comparable
            # as a cache entry.
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            if manifest is not None:
                meta = dict(manifest)
                events = meta.pop("events", [])
                run_manifest.write_manifest(
                    path,
                    run_manifest.build_manifest(
                        path,
                        key_repr=repr(key),
                        blob=blob,
                        meta=meta,
                        events=events,
                    ),
                )
        except Exception:
            # Unpicklable payloads and filesystem failures degrade to
            # "not persisted", never to a crashed experiment.
            pass
        finally:
            # The lock is released on *every* exit path — including a
            # KeyboardInterrupt arriving mid-write — so an interrupted
            # run never wedges sibling writers for STALE_LOCK_SECONDS.
            if lock is not None:
                try:
                    os.unlink(lock)
                except OSError:
                    pass

    # -- blob layer (cache service) --------------------------------------

    def blob_path(self, key_repr: str, shard: Optional[str] = None) -> pathlib.Path:
        """Entry path for an *opaque* key/shard pair.

        The cache-service half of :meth:`entry_path`: a server stores
        artefacts on behalf of clients whose code fingerprint may differ
        from its own, so the client names the shard explicitly and the
        server never re-derives keys.
        """
        name = hashlib.sha256(key_repr.encode()).hexdigest()
        return self.root / (shard or self.fingerprint[:16]) / f"{name}.pkl"

    def load_blob(
        self, key_repr: str, shard: Optional[str] = None
    ) -> Optional[bytes]:
        """Read one entry's raw blob (integrity-checked, never decoded).

        Returns ``None`` for missing or structurally corrupt entries —
        the same "corruption is a miss" contract as :meth:`load`, minus
        the unpickle (servers treat artefacts as opaque bytes).
        """
        try:
            blob = self.blob_path(key_repr, shard).read_bytes()
        except OSError:
            return None
        if not verify_blob(blob):
            return None
        return blob

    def store_blob(
        self,
        key_repr: str,
        blob: bytes,
        shard: Optional[str] = None,
        manifest: Optional[dict] = None,
    ) -> bool:
        """Persist a raw blob under an opaque key (atomic, single-writer).

        The server-side write path: same lockfile discipline and atomic
        rename as :meth:`store`, but the payload is never unpickled and
        the write is refused outright for a blob that fails
        :func:`verify_blob` — a cache server must not launder corrupt
        artefacts onto a shared root.  Returns ``True`` when the bytes
        landed.
        """
        if not verify_blob(blob):
            return False
        path = self.blob_path(key_repr, shard)
        lock = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            lock = self._acquire_lock(path)
            if lock is None:
                self.lock_skips += 1
                return False
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            if manifest is not None:
                meta = dict(manifest)
                events = meta.pop("events", [])
                run_manifest.write_manifest(
                    path,
                    run_manifest.build_manifest(
                        path,
                        key_repr=key_repr,
                        blob=blob,
                        meta=meta,
                        events=events,
                    ),
                )
            return True
        except Exception:
            return False
        finally:
            if lock is not None:
                try:
                    os.unlink(lock)
                except OSError:
                    pass

    # -- maintenance -----------------------------------------------------

    def _shards(self) -> Iterable[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return [p for p in sorted(self.root.iterdir()) if p.is_dir()]

    def stats(self) -> dict:
        """Entry/byte counts per fingerprint shard plus session counters."""
        shards = []
        total_entries = 0
        total_bytes = 0
        for shard in self._shards():
            files = [p for p in shard.iterdir() if p.suffix == ".pkl"]
            size = sum(p.stat().st_size for p in files)
            shards.append(
                {
                    "fingerprint": shard.name,
                    "current": shard.name == self.fingerprint[:16],
                    "entries": len(files),
                    "bytes": size,
                }
            )
            total_entries += len(files)
            total_bytes += size
        return {
            "root": str(self.root),
            "fingerprint": self.fingerprint[:16],
            "entries": total_entries,
            "bytes": total_bytes,
            "shards": shards,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_lock_skips": self.lock_skips,
        }

    def clear(self, *, all_versions: bool = False) -> int:
        """Delete cached entries; returns the number of files removed.

        By default only the current code-version shard is cleared;
        ``all_versions=True`` removes every shard under the root.
        """
        removed = 0
        for shard in self._shards():
            if not all_versions and shard.name != self.fingerprint[:16]:
                continue
            for path in shard.iterdir():
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            try:
                shard.rmdir()
            except OSError:
                pass
        return removed

