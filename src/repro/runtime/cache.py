"""Content-addressed on-disk artifact cache.

Expensive suite cells and exploration evaluations are pure functions of
their configuration — (benchmark, scale, seed, placement, strategy,
router) — so their results can be cached on disk and reused across runs.
Keys come from :func:`stable_hash`, a canonical-JSON SHA-256 over the
configuration: dataclasses, dicts, numpy scalars, and tuples all reduce
to the same canonical form regardless of insertion order or numeric
type, so a key survives process boundaries and code that rebuilds the
configuration from parsed CLI arguments.

Values are stored with :mod:`pickle` under ``<root>/<k[:2]>/<k>.pkl``
and written atomically (temp file + ``os.replace``) so a killed run
never leaves a truncated entry behind; unreadable entries are treated as
misses and evicted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import tempfile

from .executor import emit

#: Sentinel returned by :meth:`ArtifactCache.get` on a miss (``None`` is
#: a legitimate cached value).
MISSING = object()


def _canonical(value):
    """Reduce ``value`` to canonical JSON-serializable structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__dataclass__": type(value).__name__, **fields}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        # repr keeps full precision and distinguishes 1.0 from 1.
        return {"__float__": repr(float(value))}
    if hasattr(value, "item"):  # numpy scalars
        return _canonical(value.item())
    raise TypeError(f"cannot canonicalize {type(value).__name__} for hashing")


def stable_hash(payload) -> str:
    """Deterministic hex digest of a configuration payload.

    Args:
        payload: any nesting of dataclasses, dicts, sequences, numbers,
            strings, bools, and ``None``.

    Returns:
        A 64-character SHA-256 hex digest, stable across processes,
        platforms, and dict insertion orders.

    Note:
        Dict *keys* are canonicalized through ``str()``, so ``{1: v}``
        and ``{"1": v}`` hash identically.  This is deliberate: JSON
        round-trips (the journal, CLI-parsed configs) stringify keys,
        and a key must survive that round-trip.  Payloads whose keys
        differ only in type are therefore indistinguishable — use
        string keys in configuration payloads.
    """
    text = json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ArtifactCache:
    """Pickle-backed key/value store addressed by configuration hash.

    Every lookup is narrated as a ``runtime/cache_hit`` or
    ``runtime/cache_miss`` event into the tracer current at the time of
    the lookup, so the run that asks is the run that counts it.

    Args:
        root: cache directory (created on first write).
    """

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.pkl")

    def get(self, key: str):
        """The cached value for ``key``, or :data:`MISSING`.

        Corrupt or unreadable entries are evicted and count as misses.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            self.misses += 1
            emit("cache_miss", key)
            return MISSING
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError, OSError):
            self.invalidate(key)
            self.misses += 1
            emit("cache_miss", key)
            return MISSING
        self.hits += 1
        emit("cache_hit", key)
        return value

    def put(self, key: str, value) -> None:
        """Atomically store ``value`` under ``key``."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def contains(self, key: str) -> bool:
        """Whether ``key`` has an entry (without counting a hit)."""
        return os.path.exists(self._path(key))

    def invalidate(self, key: str) -> None:
        """Drop the entry for ``key`` if present."""
        try:
            os.unlink(self._path(key))
        except FileNotFoundError:
            pass

    def clear(self) -> None:
        """Drop every entry (leaves the directory tree in place)."""
        if not os.path.isdir(self.root):
            return
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.endswith(".pkl"):
                    os.unlink(os.path.join(dirpath, name))

    def stats(self) -> dict:
        """Hit/miss counters for this cache handle."""
        return {"hits": self.hits, "misses": self.misses}
