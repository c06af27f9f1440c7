"""The content-addressed artifact store: memoised arrays keyed by provenance.

Every expensive artifact this codebase produces — a CRP pool, a fleet
response plane — is a pure function of its generation provenance: the
artifact *kind*, the PUF/fleet spec, the seed identity, the challenge-set
identity (a distribution name or an explicit challenge hash), and the
dtype tier.  :class:`ArtifactStore` turns that observation into a shared
on-disk cache: artifacts are keyed by a canonical digest of exactly that
tuple (:func:`artifact_digest`), deduplicated across workloads, and
reusable across *runs* — a Table-I rerun or an atlas re-sweep hits the
store instead of regenerating.

Store layout and guarantees
---------------------------
* One compressed ``.npz`` per entry, named ``<kind>-<digest>.npz``.
* **Atomic publication, winner-take-one.**  Writers stage into a private
  ``tempfile.mkstemp`` file and publish with ``os.replace``; two
  processes storing the same digest concurrently both succeed, and
  exactly one complete archive survives (whichever ``replace`` lands
  last).  Entries for one digest are byte-equivalent by construction —
  the digest *is* the generation provenance — so which writer wins is
  unobservable.
* **Corrupt-entry-as-miss.**  An unreadable or malformed archive (killed
  writer, bad disk) is warned about, unlinked, and reported as a miss,
  so one crash can never poison every later run.
* **Prefix / row-slab reuse.**  Challenge draws are sequential, so the
  first ``m`` rows of a larger cached artifact equal an ``m``-row
  generation from the same state; the row count therefore stays *out* of
  the digest and requests are served from any cached superset.
* **Size-capped LRU eviction.**  With ``max_bytes`` set (or
  ``$REPRO_CACHE_MAX_BYTES``), publishing an entry evicts
  least-recently-used entries (by file mtime, refreshed on every hit)
  until the store fits; the entry just published is never evicted.
* **Telemetry.**  Hits, misses, evictions, corrupt discards and byte
  counts go to the ambient :mod:`repro.telemetry` meter under
  ``artifact_store.*`` (plus the legacy ``crp_cache.*`` /
  ``fleet_cache.*`` names), so per-trial ledger records carry the
  store's behaviour and ``repro trials --cache-stats`` can aggregate it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.pufs.crp import CRPSet
from repro.telemetry.meter import incr as _incr
from repro.telemetry.meter import record as _record

#: The artifact kinds the store recognises (the filename prefixes).
ARTIFACT_KINDS = ("crps", "fleet")

#: Environment variable supplying the default store directory.
STORE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable supplying the default size cap (bytes).
MAX_BYTES_ENV = "REPRO_CACHE_MAX_BYTES"


def _entry_mtime(path: Path) -> float:
    """An entry's LRU recency stamp (module-level so tests can fake clocks).

    A vanished entry — concurrently evicted or replaced — sorts oldest,
    which is harmless: unlinking it again is a no-op.
    """
    try:
        return path.stat().st_mtime
    except OSError:
        return 0.0


def _canonical_seed_material(seed: object) -> str:
    """A stable string identity for a seed-like object.

    ``repr`` is stable for the seed shapes the runtime passes around —
    ints, strings, and tuples of ``(entropy, spawn_key, index)`` — and
    intentionally distinguishes ``1`` from ``"1"``: different launch
    forms are different provenance.
    """
    return repr(seed)


def hash_challenges(challenges: np.ndarray) -> str:
    """A digest identifying an explicit challenge set (shape, dtype, bytes).

    For callers that hold a concrete challenge matrix instead of a
    distribution name: pass ``hash_challenges(x)`` as the
    ``distribution`` of :func:`artifact_digest` and the artifact is keyed
    by the exact challenge content.
    """
    x = np.ascontiguousarray(challenges)
    h = hashlib.sha256()
    h.update(str((x.shape, str(x.dtype))).encode("utf-8"))
    h.update(x.tobytes())
    return "sha256:" + h.hexdigest()[:32]


def artifact_digest(
    kind: str,
    spec: str,
    seed: object,
    distribution: str = "uniform",
    tier: str = "int8",
    shape: Sequence[int] = (),
    noisy: bool = False,
) -> str:
    """The canonical content digest for one artifact's provenance.

    The digest covers ``(kind, spec, seed identity, challenge-set
    identity, dtype tier, shape, noisy)`` — exactly the tuple that
    determines the artifact's bytes.  ``distribution`` names the
    challenge-set identity: a distribution spec string for seeded draws,
    or a :func:`hash_challenges` digest for explicit challenge matrices.
    The row count is deliberately *not* key material (prefix reuse; see
    the module docstring).  Material is canonicalised through sorted-key
    JSON so semantically equal keys digest equally regardless of call
    order, and the kind doubles as a namespace: a ``crps`` artifact can
    never collide with a ``fleet`` artifact of the same spec.
    """
    if kind not in ARTIFACT_KINDS:
        raise ValueError(f"unknown artifact kind {kind!r}; expected {ARTIFACT_KINDS}")
    material = json.dumps(
        {
            "kind": kind,
            "spec": str(spec),
            "seed": _canonical_seed_material(seed),
            "challenges": str(distribution),
            "tier": str(tier),
            "shape": [int(v) for v in shape],
            "noisy": bool(noisy),
        },
        sort_keys=True,
    )
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:32]


class ArtifactStore:
    """A directory of content-addressed, memoised experiment artifacts.

    Parameters
    ----------
    store_dir:
        Where the ``.npz`` entries live; created on first store.
        Defaults to ``$REPRO_CACHE_DIR`` or ``.repro_cache`` in the
        working directory.
    max_bytes:
        Size cap for LRU eviction.  ``None`` reads
        ``$REPRO_CACHE_MAX_BYTES``; a missing/empty variable means
        unbounded.  ``0`` or negative disables caching growth entirely
        (every store immediately evicts everything but the newest entry
        that fits — degenerate but well-defined).
    """

    def __init__(
        self,
        store_dir: Optional[Union[str, Path]] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if store_dir is None:
            store_dir = os.environ.get(STORE_DIR_ENV, ".repro_cache")
        if max_bytes is None:
            raw = os.environ.get(MAX_BYTES_ENV, "")
            max_bytes = int(raw) if raw.strip() else None
        self.store_dir = Path(store_dir)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.corrupt = 0
        self.bytes_served = 0
        self.bytes_stored = 0

    # ------------------------------------------------------------------
    # Directory layout.
    # ------------------------------------------------------------------
    def entry_path(self, kind: str, key: str) -> Path:
        """The ``.npz`` file backing entry ``key`` of ``kind``."""
        return self.store_dir / f"{kind}-{key}.npz"

    def path_for(self, key: str) -> Path:
        """The ``.npz`` file backing CRP-set entry ``key``."""
        return self.entry_path("crps", key)

    def fleet_path_for(self, key: str) -> Path:
        """The ``.npz`` file backing fleet-plane entry ``key``."""
        return self.entry_path("fleet", key)

    def entries(self) -> Dict[Path, int]:
        """Current entries mapped to their on-disk sizes (bytes)."""
        sizes: Dict[Path, int] = {}
        if self.store_dir.exists():
            for kind in ARTIFACT_KINDS:
                for path in self.store_dir.glob(f"{kind}-*.npz"):
                    if path.name.endswith(".tmp.npz"):
                        continue  # a writer's staging file, not an entry
                    try:
                        sizes[path] = path.stat().st_size
                    except OSError:
                        continue  # concurrently evicted/replaced
        return sizes

    def total_bytes(self) -> int:
        """Total size of all current entries (bytes)."""
        return sum(self.entries().values())

    # ------------------------------------------------------------------
    # Publication and loading primitives.
    # ------------------------------------------------------------------
    def _publish(self, path: Path, write: Callable[[Path], None]) -> Path:
        """Stage with ``write(tmp)`` and publish ``tmp`` -> ``path`` atomically.

        The staging file comes from ``tempfile.mkstemp`` in the store
        directory, so concurrent writers of the same key never interleave
        into one tmp path — each publishes its own complete archive via
        ``os.replace`` and the last one wins whole (winner-take-one;
        entries for one digest are byte-equivalent, so the winner is
        unobservable).  Orphaned staging files from killed writers are
        swept by :meth:`clear`.
        """
        self.store_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{path.name[: -len('.npz')]}-", suffix=".tmp.npz",
            dir=self.store_dir,
        )
        os.close(fd)
        tmp = Path(tmp_name)
        try:
            write(tmp)
            size = tmp.stat().st_size
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # only on a failed write/replace
                tmp.unlink()
        # The published file inherits the staging file's mtime, which on a
        # coarse-granularity (1s) filesystem can predate entries touched
        # during the write — making the *newest* entry look LRU-oldest.
        # Stamp it now, before any size accounting, so recency is honest.
        self._touch(path)
        self.bytes_stored += size
        _incr("artifact_store.stores")
        _incr("artifact_store.bytes_stored", size)
        self._evict_over_cap(protect=path)
        return path

    def _discard_corrupt(self, path: Path, label: str, exc: Exception) -> None:
        """Warn about, count, and unlink an unreadable entry (miss path)."""
        warnings.warn(
            f"discarding unreadable {label} cache entry {path.name} "
            f"({type(exc).__name__}: {exc}); regenerating",
            RuntimeWarning,
            stacklevel=3,
        )
        self.corrupt += 1
        _incr("artifact_store.corrupt")
        try:
            path.unlink()
        except OSError:
            pass

    def _touch(self, path: Path) -> None:
        """Refresh an entry's mtime — the LRU recency signal — on a hit."""
        try:
            os.utime(path, None)
        except OSError:
            pass  # entry raced with an eviction; the load already happened

    def _evict_over_cap(self, protect: Optional[Path] = None) -> int:
        """Evict least-recently-used entries until the store fits the cap.

        ``protect`` — the entry just published — is never evicted, even
        when it alone exceeds ``max_bytes`` (the caller is about to use
        it; evicting it would just re-pay generation on the next run) and
        even when filesystem mtime granularity makes it sort oldest (a 1s
        filesystem can stamp a fresh entry with the same — or, via its
        staging file, an earlier — mtime than entries already present).
        Returns how many entries were removed.
        """
        if self.max_bytes is None:
            return 0
        sizes = self.entries()
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return 0

        removed = 0
        for path in sorted(sizes, key=_entry_mtime):
            if total <= self.max_bytes:
                break
            if protect is not None and path == protect:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # another process beat us to it
            total -= sizes[path]
            removed += 1
            self.evictions += 1
            _incr("artifact_store.evictions")
        return removed

    # ------------------------------------------------------------------
    # CRP-set entries.
    # ------------------------------------------------------------------
    def load(self, key: str) -> Optional[CRPSet]:
        """The cached CRP set for ``key``, or None.

        An unreadable entry — a truncated or corrupt ``.npz`` left behind
        by a killed writer — is treated as a miss: the file is warned
        about, unlinked, and the caller regenerates.  Every *read* after
        a crash would otherwise fail forever on the same poisoned file.
        """
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            crps = CRPSet.load(path)
        except Exception as exc:
            self._discard_corrupt(path, "CRP", exc)
            _incr("crp_cache.corrupt")
            return None
        self._touch(path)
        return crps

    def store(self, key: str, crps: CRPSet) -> Path:
        """Persist ``crps`` under ``key`` (atomic replace, winner-take-one).

        Concurrent writers of the same key both succeed; exactly one
        complete archive survives — see :meth:`_publish`.
        """
        return self._publish(self.path_for(key), crps.save)

    def get_or_generate(
        self,
        puf_spec: str,
        seed: object,
        distribution: str,
        m: int,
        generate: Callable[[], CRPSet],
        noisy: bool = False,
        record_kind: str = "ex",
    ) -> CRPSet:
        """The first ``m`` CRPs for this provenance, generating on miss.

        On a hit with at least ``m`` cached CRPs the prefix is returned
        without calling ``generate``.  On a miss (or a cached set that is
        too short) ``generate()`` runs and its output replaces the cached
        file, so the store monotonically grows to the largest request.

        ``record_kind`` names the query kind the hit path records the
        replayed CRPs under: ``"ex"`` for distribution draws (the
        default), ``"mq"`` for memoised adaptive trajectories whose rows
        were originally attacker-chosen membership queries — replayed
        answers are accountable under the access model that produced
        them, not the one the cache happens to resemble.
        """
        if m <= 0:
            raise ValueError("CRP count must be positive")
        # CRP sets are always int8, so the default tier is their key.
        key = artifact_digest(
            "crps", puf_spec, seed, distribution=distribution, noisy=noisy
        )
        cached = self.load(key)
        if cached is not None and len(cached) >= m:
            self.hits += 1
            _incr("crp_cache.hits")
            _incr("artifact_store.hits")
            taken = cached.take(m)
            served = taken.challenges.nbytes + taken.responses.nbytes
            self.bytes_served += served
            _incr("artifact_store.bytes_served", served)
            # A cache hit replays CRPs the adversary is still accountable
            # for; record them under the kind their original collection
            # used (the generator inside `generate` records the miss path).
            _record(
                record_kind,
                queries=m,
                examples=m if record_kind == "ex" else 0,
                challenges=taken.challenges,
                response_bytes=taken.responses.nbytes,
            )
            return taken
        self.misses += 1
        _incr("crp_cache.misses")
        _incr("artifact_store.misses")
        crps = generate()
        if len(crps) < m:
            raise ValueError(
                f"generator produced {len(crps)} CRPs, fewer than requested {m}"
            )
        self.store(key, crps)
        return crps.take(m)

    # ------------------------------------------------------------------
    # Fleet response planes: (m, n) challenges against an (m, N) response
    # matrix.  The dtype tier and the fleet shape are digest material, so
    # an int8-tier run can never be served a float64-tier entry and a
    # resized fleet can never alias a stale plane, even when the caller's
    # spec string omits either.
    # ------------------------------------------------------------------
    def load_fleet(self, key: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The cached (challenges, responses) plane for ``key``, or None.

        Same corrupt-entry policy as :meth:`load`: an unreadable or
        malformed archive is warned about, unlinked, and reported as a
        miss, so one killed writer cannot poison every later run.
        """
        path = self.fleet_path_for(key)
        if not path.exists():
            return None
        try:
            data = np.load(path)
            challenges = np.asarray(data["challenges"], dtype=np.int8)
            responses = np.asarray(data["responses"], dtype=np.int8)
            if (
                challenges.ndim != 2
                or responses.ndim != 2
                or challenges.shape[0] != responses.shape[0]
            ):
                raise ValueError(
                    f"malformed fleet entry: challenges {challenges.shape} "
                    f"vs responses {responses.shape}"
                )
        except Exception as exc:
            self._discard_corrupt(path, "fleet", exc)
            _incr("fleet_cache.corrupt")
            return None
        self._touch(path)
        return challenges, responses

    def store_fleet(
        self, key: str, challenges: np.ndarray, responses: np.ndarray
    ) -> Path:
        """Persist a fleet response plane under ``key`` (atomic replace)."""

        def write(tmp: Path) -> None:
            np.savez_compressed(
                tmp,
                challenges=np.asarray(challenges, dtype=np.int8),
                responses=np.asarray(responses, dtype=np.int8),
            )

        return self._publish(self.fleet_path_for(key), write)

    def get_or_generate_fleet(
        self,
        fleet_spec: str,
        seed: object,
        distribution: str,
        tier: str,
        shape: Sequence[int],
        m: int,
        generate: Callable[[], Tuple[np.ndarray, np.ndarray]],
        noisy: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The first ``m`` rows of this fleet plane, generating on miss.

        Prefix reuse works row-wise exactly as for CRP sets: challenge
        draws are sequential, so the first ``m`` rows of a larger cached
        plane equal an ``m``-row generation from the same seed.
        """
        if m <= 0:
            raise ValueError("challenge count must be positive")
        key = artifact_digest(
            "fleet", fleet_spec, seed, distribution=distribution, tier=tier,
            shape=shape, noisy=noisy,
        )
        cached = self.load_fleet(key)
        if cached is not None and cached[0].shape[0] >= m:
            self.hits += 1
            _incr("fleet_cache.hits")
            _incr("artifact_store.hits")
            challenges, responses = cached[0][:m], cached[1][:m]
            served = challenges.nbytes + responses.nbytes
            self.bytes_served += served
            _incr("artifact_store.bytes_served", served)
            # Replayed oracle answers are still adversary queries, per
            # instance (mirrors the CRP hit path above).
            _record(
                "ex",
                queries=m * responses.shape[1],
                examples=m * responses.shape[1],
                challenges=challenges,
                response_bytes=responses.nbytes,
            )
            return challenges, responses
        self.misses += 1
        _incr("fleet_cache.misses")
        _incr("artifact_store.misses")
        challenges, responses = generate()
        if challenges.shape[0] < m:
            raise ValueError(
                f"generator produced {challenges.shape[0]} rows, "
                f"fewer than requested {m}"
            )
        self.store_fleet(key, challenges, responses)
        return challenges[:m], responses[:m]

    # ------------------------------------------------------------------
    # Maintenance and introspection.
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete all entries; returns how many files were removed.

        Sweeps CRP entries, fleet entries, and ``*.tmp.npz`` staging
        orphans left by writers killed between ``mkstemp`` and
        ``os.replace``.
        """
        removed = 0
        if self.store_dir.exists():
            for kind in ARTIFACT_KINDS:
                for path in self.store_dir.glob(f"{kind}-*.npz"):
                    path.unlink()
                    removed += 1
        return removed

    def stats(self) -> Dict[str, object]:
        """A JSON-ready summary of this store handle's activity.

        Hit/miss/eviction/corrupt counts and byte totals are *per handle*
        (this process's view); ``entries`` and ``total_bytes`` reflect
        the shared on-disk state right now.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "bytes_served": self.bytes_served,
            "bytes_stored": self.bytes_stored,
            "entries": len(self.entries()),
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
        }

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(dir={str(self.store_dir)!r}, "
            f"hits={self.hits}, misses={self.misses})"
        )
