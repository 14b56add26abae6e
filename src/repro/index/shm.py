"""Shared-memory segment registry for zero-copy shard payloads.

The process-parallel executor of :class:`repro.index.sharded.ShardedIndex`
ships each shard's bulk payload (flat vectors, PQ codes, PQ codebooks) to
its worker process through ``multiprocessing.shared_memory`` instead of
pickling it over the pipe: the parent copies each array into a named
segment once, the worker maps the same segment read-only, and afterwards
only query batches and ``(distance, id)`` top-k tuples cross the pipe.

Ownership model — exactly one :class:`ShmRegistry` *owns* a family of
segments:

- :meth:`ShmRegistry.share` copies an array into a fresh segment and
  returns a picklable :class:`ShmArraySpec` handle; sharing the same
  array object again returns the same handle, so a payload several
  shards hold (a sharded PQ index's one set of codebooks) is exported
  once.
- Workers call :func:`attach` with the spec and get a read-only ndarray
  view plus an :class:`AttachedSegments` holder they close on exit
  (attaching never takes ownership; a worker exit cannot unlink data
  other workers still map).
- :meth:`ShmRegistry.close` detaches and **unlinks** every owned segment
  (idempotent; also the context-manager exit), so a closed registry
  leaves nothing behind in ``/dev/shm``.  Release is the owner's job,
  never the garbage collector's: a registry or holder collected while it
  still maps segments emits a ``ResourceWarning`` naming itself (and
  only then releases, as an unclosed stdlib file object does).

Segment names carry the owning pid plus random suffix
(``repro-shm-<pid>-<n>-<hex>``), which keeps concurrent registries from
colliding and lets the leak tests in ``tests/index/test_shm.py`` assert
that no ``repro-shm-*`` orphan survives a ``close()``.

Online mutation: segments are immutable once exported.  An ``add`` (or a
compaction swap) on the sharded index closes the whole pool — unlinking
every owned segment — and the next search re-exports the grown stores
into a fresh registry; a ``remove`` re-exports nothing, because the
tombstone bitmap rides each search request instead of living in shm.
The leak invariant is unchanged: after ``close()`` (crash-injected or
not), :func:`owned_segment_names` must be empty.
"""

from __future__ import annotations

import os
import secrets
import warnings
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "AttachedSegments",
    "ShmArraySpec",
    "ShmRegistry",
    "attach",
    "owned_segment_names",
]

#: Prefix of every segment created by this module (leak tests scan for it).
SEGMENT_PREFIX = "repro-shm"


@dataclass(frozen=True)
class ShmArraySpec:
    """Picklable handle to one shared ndarray: segment name + array layout."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def nbytes(self) -> int:
        """Payload bytes of the described array (`prod(shape) * itemsize`)."""
        count = 1
        for extent in self.shape:
            count *= extent
        return count * np.dtype(self.dtype).itemsize


class ShmRegistry:
    """Owns shared-memory segments; unlinks all of them on ``close()``."""

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        #: id(array) -> (array, spec) of every array shared so far; the
        #: reference keeps the id from being reused while it is a key.
        self._shared: dict[int, tuple[np.ndarray, ShmArraySpec]] = {}
        self._counter = 0
        self._closed = False

    def __len__(self) -> int:
        return len(self._segments)

    @property
    def closed(self) -> bool:
        return self._closed

    def total_bytes(self) -> int:
        """Payload bytes across all owned segments."""
        return sum(seg.size for seg in self._segments.values())

    def share(self, array: np.ndarray) -> ShmArraySpec:
        """Copy ``array`` into a fresh owned segment; return its spec.

        An array object this registry has already shared is not copied
        again: its existing spec comes back.  Shared arrays are payloads
        nothing writes to (published rows, trained codebooks).
        """
        if self._closed:
            raise RuntimeError("ShmRegistry is closed")
        known = self._shared.get(id(array))
        if known is not None and known[0] is array:
            return known[1]
        source = array
        # The segment stores whatever the index stores (f32 vectors, u8
        # codes, f32 codebooks) — the caller's dtype is the contract.
        array = np.ascontiguousarray(array, dtype=array.dtype)
        name = (
            f"{SEGMENT_PREFIX}-{os.getpid()}-{self._counter}-"
            f"{secrets.token_hex(4)}"
        )
        self._counter += 1
        # Zero-size arrays still need a mappable segment.
        seg = shared_memory.SharedMemory(
            create=True, size=max(array.nbytes, 1), name=name
        )
        if array.nbytes:
            dst = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
            dst[...] = array
        self._segments[name] = seg
        spec = ShmArraySpec(
            name=name, shape=tuple(array.shape), dtype=array.dtype.str
        )
        self._shared[id(source)] = (source, spec)
        return spec

    def view(self, spec: ShmArraySpec) -> np.ndarray:
        """Owner-side read-only view of a segment this registry created."""
        seg = self._segments[spec.name]
        return _as_array(seg, spec)

    def close(self) -> None:
        """Detach and unlink every owned segment (idempotent)."""
        self._closed = True
        segments, self._segments = self._segments, {}
        self._shared = {}
        for seg in segments.values():
            try:
                seg.close()
            except Exception:  # pragma: no cover - platform specific
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            except Exception:  # pragma: no cover - platform specific
                pass

    def __enter__(self) -> "ShmRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        _warn_unclosed(self, "owns")


class AttachedSegments:
    """Worker-side holder of mapped (non-owned) segments.

    ``close()`` detaches the mappings without unlinking — the owning
    :class:`ShmRegistry` (in the parent) decides when the data dies.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        #: segment name -> its view, so a segment is mapped once.
        self._views: dict[str, np.ndarray] = {}

    def attach(self, spec: ShmArraySpec) -> np.ndarray:
        """Map ``spec``'s segment and return a read-only ndarray view
        (the same view again for a segment already mapped here).

        No ``resource_tracker`` bookkeeping happens here on purpose: a
        ``multiprocessing`` worker shares the *parent's* tracker process,
        whose cache is one name set — the attach-time ``register`` dedups
        against the owner's create-time entry, and the owner's ``unlink``
        retires it.  A worker-side ``unregister`` would strip the owner's
        entry from that shared set and make the later ``unlink`` crash
        the tracker with a ``KeyError``.
        """
        view = self._views.get(spec.name)
        if view is None:
            seg = shared_memory.SharedMemory(name=spec.name)
            self._segments.append(seg)
            view = self._views[spec.name] = _as_array(seg, spec)
        return view

    def close(self) -> None:
        """Detach every mapping (idempotent; never unlinks)."""
        segments, self._segments = self._segments, []
        self._views = {}
        for seg in segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - platform specific
                pass

    def __enter__(self) -> "AttachedSegments":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        _warn_unclosed(self, "maps")


def attach(spec: ShmArraySpec) -> tuple[np.ndarray, AttachedSegments]:
    """One-spec convenience: mapped read-only array + its detach handle."""
    holder = AttachedSegments()
    try:
        return holder.attach(spec), holder
    except BaseException:
        holder.close()
        raise


def owned_segment_names() -> list[str]:
    """Names of live ``repro-shm-*`` segments on this host (leak probe).

    Reads ``/dev/shm`` where POSIX shared memory is file-backed; on
    platforms without it the probe degrades to "none observed".
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-POSIX
        return []
    return sorted(
        name for name in os.listdir(root) if name.startswith(SEGMENT_PREFIX)
    )


def _warn_unclosed(holder: ShmRegistry | AttachedSegments, verb: str) -> None:
    """``__del__`` body: an unclosed holder warns, then releases."""
    segments = getattr(holder, "_segments", None)
    if segments:
        warnings.warn(
            f"unclosed {type(holder).__name__} still {verb} {len(segments)} "
            "shared-memory segment(s); its owner must call close()",
            ResourceWarning,
            source=holder,
        )
        holder.close()


def _as_array(
    seg: shared_memory.SharedMemory, spec: ShmArraySpec
) -> np.ndarray:
    array = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf)
    array.flags.writeable = False
    return array
