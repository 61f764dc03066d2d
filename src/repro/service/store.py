"""Content-addressed on-disk artifact store for the design service.

Every cached design answer is one *entry* keyed by the SHA-256 of the
canonical JSON of ``{"kind": ..., "params": ..., "schema_version": ...}``
— same query, same key, across processes and machines.  An entry is a
directory holding a small JSON *manifest* (the served result plus
integrity digests) and an optional NumPy ``.npz`` *payload* carrying the
heavy arrays (WireTable segment columns, partition module codes, Benes
switch settings) so repeated parameter points become O(1) lookups while
the artifact itself stays reusable.

Directory layout under the cache root::

    objects/<key[:2]>/<key>/manifest.json   # always present
    objects/<key[:2]>/<key>/payload.npz     # optional array payload
    locks/<key>.lock                        # single-flight compute locks
    quarantine/<key>/...                    # corrupt entries, moved aside

Integrity: :meth:`ArtifactStore.get` re-derives the key from the
manifest's ``kind``/``params`` and checks the result digest on every
read (cheap — the manifest is small); the payload's SHA-256 is checked
whenever the arrays are loaded (:meth:`load_arrays`), on a
``get(..., payload=True)`` read, and by :meth:`verify`, which sweeps
the whole store.  Anything that fails a check is *quarantined* — moved
out of ``objects/`` so it can never be served again — and the read
reports a miss, letting the caller recompute.

Concurrency: writes are atomic (staged in a temp directory, then
``os.replace``-d into place), and :meth:`single_flight` hands one
process the compute lock per key so concurrent misses for the same query
compute once; losers wait for the winner and re-read the cache.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

import numpy as np

__all__ = [
    "ArtifactStore",
    "CacheEntry",
    "SCHEMA_VERSION",
    "canonical_json",
    "cache_key",
    "default_cache_dir",
]

#: Bump when the manifest layout or any handler's result schema changes:
#: the version is part of the cache key, so old entries simply stop
#: matching instead of being served with a stale shape.  v2: the
#: ``saturation`` bisection now probes the 1.0 bracket ceiling (old
#: entries carried the ~0.986 artifact) and the ``sim`` kind exists.
#: v3: ``saturation`` probes with ``cycles <= 200`` warm up for
#: ``cycles // 10`` (old entries carried 0.0 from probes that measured
#: no packet).
SCHEMA_VERSION = 3

_MANIFEST = "manifest.json"
_PAYLOAD = "payload.npz"


def canonical_json(obj: object) -> bytes:
    """Deterministic JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def cache_key(kind: str, params: Dict[str, object]) -> str:
    """SHA-256 hex of the canonical ``{kind, params, schema_version}``."""
    return hashlib.sha256(
        canonical_json(
            {"kind": kind, "params": params, "schema_version": SCHEMA_VERSION}
        )
    ).hexdigest()


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(xdg, "repro")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """One row of :meth:`ArtifactStore.ls`."""

    key: str
    kind: str
    params: Dict[str, object]
    created: float  # unix seconds (recorded in the manifest at put time)
    last_access: float  # unix seconds (manifest mtime, touched on reads)
    size_bytes: int
    has_payload: bool

    def as_row(self) -> Dict[str, object]:
        return {
            "key": self.key[:12],
            "kind": self.kind,
            "params": json.dumps(self.params, sort_keys=True),
            "size": self.size_bytes,
            "payload": self.has_payload,
        }


class ArtifactStore:
    """Content-addressed cache of design-service artifacts.

    ``lock_timeout`` bounds how long a single-flight loser waits for the
    winner before computing anyway; locks older than ``stale_lock_s``
    are presumed abandoned (crashed holder) and broken.
    """

    def __init__(
        self,
        root: str,
        lock_timeout: float = 120.0,
        stale_lock_s: float = 600.0,
    ) -> None:
        self.root = os.path.abspath(root)
        self.lock_timeout = lock_timeout
        self.stale_lock_s = stale_lock_s
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "locks"), exist_ok=True)
        os.makedirs(os.path.join(self.root, "quarantine"), exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_dir(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key)

    def _lock_path(self, key: str) -> str:
        return os.path.join(self.root, "locks", f"{key}.lock")

    def _quarantine_dir(self, key: str) -> str:
        return os.path.join(self.root, "quarantine", key)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(
        self, kind: str, params: Dict[str, object], *, payload: bool = False
    ) -> Optional[Dict]:
        """The cached result dict, or ``None`` on miss.

        Verifies the manifest on every read: the key must re-derive from
        the stored ``kind``/``params``, the result digest must match, and
        a declared payload file must exist with the declared size.  Any
        failure quarantines the entry and reports a miss.

        ``payload=True`` also requires a declared payload whose SHA-256
        matches — the check for a caller that vouches for the arrays
        without loading them.  An entry that declares none reads as a
        miss; a mismatch is quarantined like any other failure.
        """
        key = cache_key(kind, params)
        manifest = self._checked(key, payload)
        if manifest is None or (payload and manifest.get("payload") is None):
            return None
        self._touch(key)
        return manifest["result"]

    def load_arrays(
        self, kind: str, params: Dict[str, object]
    ) -> Optional[Dict[str, np.ndarray]]:
        """The entry's array payload, SHA-256 verified, or ``None``.

        ``None`` means miss, no payload, or a corrupt payload (which is
        quarantined on the spot).
        """
        key = cache_key(kind, params)
        manifest = self._checked(key, payload=True)
        if manifest is None or manifest.get("payload") is None:
            return None
        self._touch(key)
        path = os.path.join(self.entry_dir(key), manifest["payload"]["file"])
        with np.load(path, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}

    def _checked(self, key: str, payload: bool) -> Optional[Dict]:
        """The entry's manifest if it passes its checks, else ``None``.

        The one per-entry check behind :meth:`get`, :meth:`load_arrays`
        and :meth:`verify`: the manifest must parse and pass
        :meth:`_manifest_ok`, and with ``payload`` a declared payload
        must also pass :meth:`_payload_ok`.  A failing entry is
        quarantined.
        """
        manifest = self._read_manifest(key)
        if manifest is None:
            return None
        if not self._manifest_ok(key, manifest) or (
            payload and not self._payload_ok(key, manifest)
        ):
            self.quarantine(key)
            return None
        return manifest

    def _touch(self, key: str) -> None:
        """Bump the manifest mtime — the entry's last-access stamp, which
        age-based :meth:`gc` uses so hot entries never age out."""
        with contextlib.suppress(OSError):
            os.utime(os.path.join(self.entry_dir(key), _MANIFEST))

    def _read_manifest(self, key: str) -> Optional[Dict]:
        path = os.path.join(self.entry_dir(key), _MANIFEST)
        try:
            with open(path, "rb") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            # unreadable manifest: the entry can never be trusted again
            self.quarantine(key)
            return None

    def _manifest_ok(self, key: str, manifest: Dict) -> bool:
        """Cheap per-read checks: key re-derivation, result digest,
        payload existence + size (content hash is :meth:`_payload_ok`)."""
        try:
            if manifest.get("schema_version") != SCHEMA_VERSION:
                return False
            if cache_key(manifest["kind"], manifest["params"]) != key:
                return False
            digest = hashlib.sha256(
                canonical_json(manifest["result"])
            ).hexdigest()
            if digest != manifest["result_sha256"]:
                return False
            payload = manifest.get("payload")
            if payload is not None:
                path = os.path.join(self.entry_dir(key), payload["file"])
                if not os.path.isfile(path):
                    return False
                if os.path.getsize(path) != payload["size"]:
                    return False
            return True
        except (KeyError, TypeError):
            return False

    def _payload_ok(self, key: str, manifest: Dict) -> bool:
        payload = manifest.get("payload")
        if payload is None:
            return True
        path = os.path.join(self.entry_dir(key), payload["file"])
        try:
            return _sha256_file(path) == payload["sha256"]
        except OSError:
            return False

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(
        self,
        kind: str,
        params: Dict[str, object],
        result: Dict,
        arrays: Optional[Dict[str, np.ndarray]] = None,
    ) -> str:
        """Store ``result`` (JSON manifest) and ``arrays`` (npz payload)
        atomically; returns the entry key.  A concurrent identical put
        wins or loses whole — never a torn entry."""
        key = cache_key(kind, params)
        final = self.entry_dir(key)
        os.makedirs(os.path.dirname(final), exist_ok=True)
        stage = tempfile.mkdtemp(
            prefix=f".{key[:8]}-", dir=os.path.dirname(final)
        )
        try:
            payload_meta = None
            if arrays:
                buf = io.BytesIO()
                np.savez(buf, **arrays)
                raw = buf.getvalue()
                with open(os.path.join(stage, _PAYLOAD), "wb") as fh:
                    fh.write(raw)
                payload_meta = {
                    "file": _PAYLOAD,
                    "sha256": hashlib.sha256(raw).hexdigest(),
                    "size": len(raw),
                }
            manifest = {
                "schema_version": SCHEMA_VERSION,
                "kind": kind,
                "params": params,
                "key": key,
                "created": time.time(),
                "result": result,
                "result_sha256": hashlib.sha256(
                    canonical_json(result)
                ).hexdigest(),
                "payload": payload_meta,
            }
            with open(os.path.join(stage, _MANIFEST), "wb") as fh:
                fh.write(json.dumps(manifest, indent=1).encode("utf-8"))
            try:
                os.replace(stage, final)
            except OSError as e:
                # a concurrent writer landed the same key first; theirs
                # is byte-equivalent (same key => same query), keep it
                if e.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                    raise
                shutil.rmtree(stage, ignore_errors=True)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return key

    def quarantine(self, key: str) -> bool:
        """Move a (corrupt) entry out of ``objects/``; True if moved."""
        src = self.entry_dir(key)
        if not os.path.isdir(src):
            return False
        dst = self._quarantine_dir(key)
        shutil.rmtree(dst, ignore_errors=True)
        try:
            os.replace(src, dst)
        except OSError:
            shutil.rmtree(src, ignore_errors=True)
        return True

    # ------------------------------------------------------------------
    # single-flight compute lock
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def single_flight(self, key: str) -> Iterator[bool]:
        """Yield True to exactly one concurrent holder per key.

        Losers block until the winner releases (or ``lock_timeout``
        expires), then yield False — the caller should re-read the cache
        before deciding to compute after all.
        """
        path = self._lock_path(key)
        deadline = time.monotonic() + self.lock_timeout
        fd = None
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(fd, str(os.getpid()).encode())
                break
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(path)
                except OSError:
                    continue  # holder released between probe and stat
                if age > self.stale_lock_s:
                    with contextlib.suppress(OSError):
                        os.unlink(path)  # abandoned by a dead holder
                    continue
                if time.monotonic() >= deadline:
                    yield False
                    return
                time.sleep(0.02)
        try:
            yield True
        finally:
            os.close(fd)
            with contextlib.suppress(OSError):
                os.unlink(path)

    # ------------------------------------------------------------------
    # admin: ls / verify / gc / stats
    # ------------------------------------------------------------------
    def _keys(self) -> List[str]:
        objects = os.path.join(self.root, "objects")
        keys: List[str] = []
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            keys.extend(
                k for k in sorted(os.listdir(shard_dir))
                if not k.startswith(".")
            )
        return keys

    def ls(self) -> List[CacheEntry]:
        """Every readable entry, oldest first (unreadable ones skipped)."""
        out: List[CacheEntry] = []
        for key in self._keys():
            manifest = self._read_manifest(key)
            if manifest is None:
                continue
            d = self.entry_dir(key)
            size = sum(
                os.path.getsize(os.path.join(d, f))
                for f in os.listdir(d)
                if os.path.isfile(os.path.join(d, f))
            )
            try:
                last_access = os.path.getmtime(os.path.join(d, _MANIFEST))
            except OSError:
                last_access = 0.0
            out.append(
                CacheEntry(
                    key=key,
                    kind=manifest.get("kind", "?"),
                    params=manifest.get("params", {}),
                    created=manifest.get("created", 0.0),
                    last_access=last_access,
                    size_bytes=size,
                    has_payload=manifest.get("payload") is not None,
                )
            )
        out.sort(key=lambda e: (e.created, e.key))
        return out

    def verify(self) -> Dict[str, object]:
        """Full-store integrity sweep: manifest digests *and* payload
        SHA-256 for every entry; corrupt entries are quarantined."""
        checked, ok, corrupt = 0, 0, []
        for key in self._keys():
            checked += 1
            if self._checked(key, payload=True) is not None:
                ok += 1
                continue
            if os.path.isdir(self.entry_dir(key)):
                self.quarantine(key)
            corrupt.append(key)
        return {
            "checked": checked,
            "ok": ok,
            "corrupt": corrupt,
            "quarantined": len(corrupt),
        }

    def gc(self, max_age_s: Optional[float] = None) -> Dict[str, object]:
        """Drop quarantined entries, stale locks, and (optionally)
        entries not *accessed* within ``max_age_s``.

        Age is measured from the entry's last read (:meth:`get` /
        :meth:`load_arrays` touch the manifest), not its creation time —
        a hot entry served on every request stays cached no matter how
        long ago it was computed.
        """
        removed, freed = 0, 0
        qdir = os.path.join(self.root, "quarantine")
        for name in os.listdir(qdir):
            path = os.path.join(qdir, name)
            freed += _tree_size(path)
            shutil.rmtree(path, ignore_errors=True)
            removed += 1
        now = time.time()
        if max_age_s is not None:
            for e in self.ls():
                if now - e.last_access > max_age_s:
                    path = self.entry_dir(e.key)
                    freed += _tree_size(path)
                    shutil.rmtree(path, ignore_errors=True)
                    removed += 1
        locks = os.path.join(self.root, "locks")
        for name in os.listdir(locks):
            path = os.path.join(locks, name)
            with contextlib.suppress(OSError):
                if now - os.path.getmtime(path) > self.stale_lock_s:
                    os.unlink(path)
        return {"removed": removed, "freed_bytes": freed}

    def stats(self) -> Dict[str, object]:
        entries = self.ls()
        kinds: Dict[str, int] = {}
        for e in entries:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(e.size_bytes for e in entries),
            "kinds": kinds,
            "quarantined": len(
                os.listdir(os.path.join(self.root, "quarantine"))
            ),
        }


def _tree_size(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            with contextlib.suppress(OSError):
                total += os.path.getsize(os.path.join(dirpath, f))
    return total
