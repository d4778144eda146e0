"""Persistent, content-addressed simulation-result store.

Every paper figure is a grid of (application x design) simulations, and
the same points recur across figures, pytest workers, CLI invocations and
benchmark re-runs.  The in-process memo inside
:class:`repro.experiments.base.Runner` only helps within one process;
this module adds the cross-process layer: a content-addressed on-disk
cache keyed by the *inputs* of a simulation.

Key derivation
--------------
:func:`sim_cache_key` hashes the full frozen configuration triple —
:class:`~repro.workloads.profile.AppProfile`,
:class:`~repro.core.designs.DesignSpec` and
:class:`~repro.sim.config.SimConfig` (including the nested
:class:`~repro.sim.config.GPUConfig`) — plus the cache schema version
into one SHA-256 hex digest.  All three are frozen dataclasses, so
``dataclasses.fields`` enumerates every field; the JSON serialization is
canonical (sorted keys, no whitespace), which makes the key stable across
processes and platforms.  Any changed field changes the key; unknown
field types fail loudly rather than hash ambiguously.

The one deliberate exception: fields a class names in its
``FINGERPRINT_NEUTRAL_FIELDS`` class variable (e.g.
``SimConfig.watchdog``, ``AppProfile.suite``) are *excluded* from the
key.  These are observation-only knobs proven never to change a result
bit, so keying them would only fragment the shared cache — the same
simulation stored twice.  The declaration is machine-checked from both
sides by SimPure (``repro purity``): statically, that the sim core
cannot read an input that is not keyed (SP401), and dynamically
(``--confirm``), that mutating a neutral field leaves the result
fingerprint bit-identical while mutating any keyed field changes the
key.  :func:`cache_key_manifest` exports the declared domain for the
analyzer.

Each of the three objects is serialized to its canonical JSON fragment
once, and the fragments are spliced into the hashed blob in sorted-key
order, byte for byte what one ``json.dumps`` of the whole payload
writes.  A paper grid reuses a few dozen objects for every point, so the
fragments are memoized, keyed by *identity* (``id``), each entry holding
the object so its id cannot be reused while the entry lives.  Equality
would be wrong: ``SimConfig(scale=1) == SimConfig(scale=1.0)``, yet the
two serialize differently and so key differently, and an equality-keyed
memo would hand the second whichever fragment the first one produced.
The memo lives in this module, not on the instances: a fragment stored
on the object would travel with it through ``pickle`` to pool workers,
so a round trip would carry the old string along instead of re-deriving
the key from the restored fields.  ``TestCacheKey::
test_key_derivation_leaves_pickle_unchanged`` in ``tests/test_store.py``
pins that deriving a key leaves a point's pickled bytes unchanged.
The memo relies on the objects being frozen: assigning a field after
construction raises ``FrozenInstanceError``.

Layout and versioning
---------------------
``<root>/v<SCHEMA>/<key[:2]>/<key>.json`` — one JSON document per result,
fanned out over 256 subdirectories.  ``SCHEMA`` is
:data:`CACHE_SCHEMA_VERSION`; it participates in both the key and the
directory path, so bumping it orphans every old entry at once (stale
trees can simply be deleted).  Bump it whenever the simulator's observable
behaviour changes (new :class:`~repro.sim.results.SimResult` fields,
model fixes, config-field semantics).

Each document is one list, ``[schema, layout, key, record]``: the schema
version, :data:`~repro.sim.results.RECORD_LAYOUT` (a short digest of the
record's field names and the ``CacheStats`` slot names), the entry's own
key, and the positional record of
:meth:`~repro.sim.results.SimResult.to_jsonable`.  A record carries no
field names, so the layout digest is what keeps a renamed, added or
reordered field from misdecoding an old entry: any header mismatch is a
miss.  ``put`` encodes the document once and writes the bytes; ``get``
reads them with raw file-descriptor I/O and makes one ``json.loads``
call.

Robustness
----------
Writes are atomic (temp file + ``os.replace``) so concurrent processes
never observe a half-written entry.  Reads treat *any* failure —
missing, truncated, corrupted or wrong-shape files, a schema, layout or
key mismatch, or a record with a missing or extra value — as a cache
miss, never an error; the entry is re-simulated and overwritten.  That
includes entries in the older dict-shaped format at the same path.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.designs import DesignSpec
from repro.sim.config import GPUConfig, SimConfig
from repro.sim.results import RECORD_LAYOUT, SimResult
from repro.workloads.profile import AppProfile

#: Version of the (key, payload) schema.  Part of every key and of the
#: on-disk path; bump to invalidate all previously cached results.
#: v2: fingerprint-neutral fields (SimConfig sanitize/watchdog knobs,
#: AppProfile.suite) left the key domain and the dead ``SimConfig.seed``
#: field was removed, so v1 keys no longer correspond to v2 keys.
CACHE_SCHEMA_VERSION = 2

#: Environment variable naming the default cache directory.  Unset (or
#: empty) means the persistent cache is off unless a directory is passed
#: explicitly.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Bytes per ``os.read`` call in :meth:`DiskResultCache.get`.  A paper
#: grid's entries are at most a few KiB, so one call reads one whole; a
#: much larger request (say 1 MiB) makes every call allocate a buffer of
#: that size, which costs more than the read.
_READ_CHUNK = 64 * 1024


def _neutral_fields(obj: object) -> frozenset:
    """A dataclass's declared fingerprint-neutral field names (none by
    default) — the only fields :func:`_canonical` skips when keying."""
    return getattr(type(obj), "FINGERPRINT_NEUTRAL_FIELDS", frozenset())


def _canonical(obj: object) -> object:
    """Recursively reduce dataclasses/enums/containers to JSON-safe data,
    dropping declared fingerprint-neutral fields (see module docstring)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        neutral = _neutral_fields(obj)
        return {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in neutral
        }
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__!r} for cache keying")


#: Entries the fragment memo holds before it is emptied (about 0.85 KiB
#: each, object included).  A paper grid touches about 34 keyed objects;
#: a caller that builds a fresh config for every point would otherwise
#: grow the memo without bound.
_FRAGMENT_MEMO_CAP = 1024

#: ``id(obj) -> (obj, canonical JSON of obj)``; see "Key derivation".
_fragments: Dict[int, Tuple[object, str]] = {}


def _fragment(obj: object) -> str:
    """Canonical JSON of one keyed object, memoized by identity."""
    entry = _fragments.get(id(obj))
    if entry is not None:
        return entry[1]
    text = json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))
    if len(_fragments) >= _FRAGMENT_MEMO_CAP:
        _fragments.clear()
    _fragments[id(obj)] = (obj, text)
    return text


#: The dataclasses whose fields make up the cache-key domain, in payload
#: order.  SimPure reads this through :func:`cache_key_manifest`.
_KEYED_CLASSES: Tuple[Tuple[str, type], ...] = (
    ("profile", AppProfile),
    ("design", DesignSpec),
    ("config", SimConfig),
    ("gpu", GPUConfig),
)


def cache_key_manifest() -> Dict[str, Dict[str, object]]:
    """Declared cache-key domain, derived from the keyed dataclasses.

    Returns one entry per keyed class::

        {"config": {"class": "SimConfig",
                    "keyed": ("gpu", "scale", ...),
                    "neutral": ("sanitize", "watchdog", ...)}, ...}

    ``keyed`` fields flow into :func:`sim_cache_key`; ``neutral`` fields
    are the class's declared ``FINGERPRINT_NEUTRAL_FIELDS`` (excluded
    from the key, proven fingerprint-invariant by
    ``repro purity --confirm``).  SimPure's SP401/SP402 diff this
    manifest against what the simulator core actually reads.
    """
    manifest: Dict[str, Dict[str, object]] = {}
    for role, cls in _KEYED_CLASSES:
        neutral = getattr(cls, "FINGERPRINT_NEUTRAL_FIELDS", frozenset())
        names = tuple(f.name for f in dataclasses.fields(cls))
        manifest[role] = {
            "class": cls.__name__,
            "keyed": tuple(n for n in names if n not in neutral),
            "neutral": tuple(sorted(neutral)),
        }
    return manifest


def sim_cache_key(profile: AppProfile, spec: DesignSpec, cfg: SimConfig) -> str:
    """Stable content-addressed key for one simulation point.

    Same logical (profile, spec, config) -> same hex key in every
    process; any changed field -> a different key.
    """
    blob = (
        '{"config":' + _fragment(cfg)
        + ',"design":' + _fragment(spec)
        + ',"profile":' + _fragment(profile)
        + ',"schema":' + str(CACHE_SCHEMA_VERSION) + "}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def profile_cache_key(profile: AppProfile) -> str:
    """Content-addressed key of the *profile component* of
    :func:`sim_cache_key` alone.

    Two grid points share this key exactly when they would generate the
    same workload at the same scale — the sharing SimFleet's per-worker
    stream cache exploits to materialize access streams once per worker
    instead of once per point.  Canonicalization matches the full key
    (fingerprint-neutral fields like ``AppProfile.suite`` are excluded),
    so two profiles differing only in neutral fields share streams.
    """
    blob = (
        '{"profile":' + _fragment(profile)
        + ',"schema":' + str(CACHE_SCHEMA_VERSION) + "}"
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DiskResultCache:
    """Content-addressed on-disk :class:`SimResult` cache.

    ``get`` returns ``None`` on any miss *or* unreadable entry; ``put``
    writes atomically so concurrent writers are safe (last writer wins
    with identical content, since keys are content-addressed).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        # Joined once: a warm sweep reads thousands of entries, and
        # building each path with pathlib costs more than the string.
        self._version_dir = os.path.join(self.root, f"v{CACHE_SCHEMA_VERSION}")
        self.hits = 0
        self.misses = 0

    @property
    def version_dir(self) -> Path:
        return Path(self._version_dir)

    def _entry_path(self, key: str) -> str:
        return f"{self._version_dir}{os.sep}{key[:2]}{os.sep}{key}.json"

    def path_for(self, key: str) -> Path:
        return Path(self._entry_path(key))

    def get(self, key: str) -> Optional[SimResult]:
        """Load a cached result, or ``None`` (corrupt entries are misses)."""
        try:
            fd = os.open(self._entry_path(key), os.O_RDONLY)
            try:
                chunks = []
                while True:
                    chunk = os.read(fd, _READ_CHUNK)
                    if not chunk:
                        break
                    chunks.append(chunk)
            finally:
                os.close(fd)
            schema, layout, stored_key, record = json.loads(b"".join(chunks))
            if (
                schema != CACHE_SCHEMA_VERSION
                or layout != RECORD_LAYOUT
                or stored_key != key
            ):
                raise ValueError("cache entry schema/layout/key mismatch")
            result = SimResult.from_jsonable(record)
        except (OSError, ValueError, TypeError):
            # Missing, truncated, corrupted, written by an incompatible
            # schema or record layout, or valid JSON of the wrong shape
            # (an object or number where the entry list belongs): behave
            # exactly like a cold miss.
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimResult) -> None:
        """Atomically persist one result under ``key``."""
        path = self._entry_path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        data = json.dumps(
            [CACHE_SCHEMA_VERSION, RECORD_LAYOUT, key, result.to_jsonable()],
            separators=(",", ":"),
        ).encode("utf-8")
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=directory
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def clear(self) -> None:
        """Drop every entry of the *current* schema version."""
        shutil.rmtree(self.version_dir, ignore_errors=True)

    def __len__(self) -> int:
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob("*/*.json"))

    def __repr__(self) -> str:
        return (
            f"DiskResultCache({str(self.root)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def cache_from_env() -> Optional[DiskResultCache]:
    """Cache named by ``REPRO_CACHE_DIR``, or ``None`` when unset/empty."""
    root = os.environ.get(CACHE_DIR_ENV, "").strip()
    return DiskResultCache(root) if root else None
