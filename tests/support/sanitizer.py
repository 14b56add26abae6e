"""Runtime lock-order sanitizer: the one net for lock-order inversions.

It *records* the lock-order graph actually executed while the property
suites run — locks reached through data structures, callbacks and
dynamic dispatch included — and fails the test the moment an edge
closes a cycle.

Design:

- :class:`TrackedLock` wraps a real ``threading.Lock`` and reports
  acquire/release to a :class:`LockOrderTracker`.
- :class:`LockOrderTracker` keeps a per-thread acquisition stack and a
  global edge set ``held → newly-acquired``; before adding an edge
  ``a → b`` it checks whether ``b`` already reaches ``a`` — if so, two
  call paths order these locks oppositely and a
  :class:`LockOrderViolation` is recorded.  Detection needs no actual
  interleaving: sequentially running ``A→B`` then ``B→A`` on one thread
  is enough, which keeps the sanitized suites deterministic.
- Locks are named by **creation site** (``file.py:lineno``): every lock
  born at one source line is one graph node, so sibling instances share
  ordering constraints.
- :func:`install` monkeypatches ``threading.Lock`` with a factory that
  returns a :class:`TrackedLock` for locks created by a file under the
  ``repro`` package directory or under ``tests/`` (matched on the
  creating frame's full path) and a real lock otherwise (stdlib and
  ``_pytest`` internals such as ``threading.Barrier`` would only add
  noise).  The conftest enables it when ``REPRO_SANITIZER=1`` and
  asserts no violations after each test, alongside a leaked-shm check
  via :func:`repro.index.shm.owned_segment_names`.
"""

from __future__ import annotations

import os
import sys
import threading

import repro

__all__ = [
    "LockOrderTracker",
    "LockOrderViolation",
    "TrackedLock",
    "current_tracker",
    "install",
    "tracked_factory",
    "uninstall",
]


class LockOrderViolation(AssertionError):
    """Raised (or recorded) when a lock acquisition closes an order cycle."""


class LockOrderTracker:
    """Records the dynamic lock-order graph and detects inversions.

    Thread-safe: the graph and violation list live behind one real
    (untracked) meta-lock; the acquisition stack is thread-local.
    Violations are *recorded*, not raised at the acquisition site — a
    deadlock-prone ordering usually still works in the test process, and
    raising mid-``__enter__`` would poison unrelated teardown.  The
    conftest (or :meth:`check`) surfaces them at a safe point.
    """

    def __init__(self) -> None:
        # _REAL_LOCK, not threading.Lock: while the sanitizer is installed
        # the latter is the tracking factory, which would recurse (and the
        # meta-lock must never appear in the graph it guards).
        self._meta = _REAL_LOCK()
        self._edges: dict[str, set[str]] = {}
        self._violations: list[str] = []
        self._local = threading.local()

    # -- per-thread stack --------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def held(self) -> tuple[str, ...]:
        """Locks the calling thread currently holds, oldest first."""
        return tuple(self._stack())

    # -- events ------------------------------------------------------------------

    def on_acquire(self, name: str) -> None:
        """Record that the calling thread acquired lock ``name``."""
        stack = self._stack()
        with self._meta:
            for held in stack:
                if held == name:
                    continue
                if self._reaches(name, held):
                    self._violations.append(
                        f"lock-order inversion: acquired `{name}` while "
                        f"holding `{held}`, but the recorded order "
                        f"already has `{name}` before `{held}`"
                    )
                self._edges.setdefault(held, set()).add(name)
                self._edges.setdefault(name, set())
        stack.append(name)

    def on_release(self, name: str) -> None:
        """Record a release (removes the newest matching stack entry)."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    def _reaches(self, src: str, dst: str) -> bool:
        """Whether ``dst`` is reachable from ``src`` in the edge set."""
        seen: set[str] = set()
        frontier = [src]
        while frontier:
            node = frontier.pop()
            if node == dst:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self._edges.get(node, ()))
        return False

    # -- results -----------------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        """Copy of the recorded lock-order graph."""
        with self._meta:
            return {src: set(dsts) for src, dsts in self._edges.items()}

    def violations(self) -> list[str]:
        """Copy of the recorded inversion messages."""
        with self._meta:
            return list(self._violations)

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` if any inversion was recorded."""
        found = self.violations()
        if found:
            raise LockOrderViolation(
                f"{len(found)} lock-order violation(s):\n"
                + "\n".join(f"  - {message}" for message in found)
            )

    def reset(self) -> None:
        """Forget the graph and violations (per-suite isolation)."""
        with self._meta:
            self._edges.clear()
            self._violations.clear()


class TrackedLock:
    """Drop-in ``threading.Lock`` reporting to a :class:`LockOrderTracker`."""

    __slots__ = ("_lock", "_tracker", "name")

    def __init__(self, tracker: LockOrderTracker, name: str):
        self._lock = _REAL_LOCK()  # see LockOrderTracker.__init__
        self._tracker = tracker
        self.name = name

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire the underlying lock; tracked only when it succeeds."""
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._tracker.on_acquire(self.name)
        return acquired

    def release(self) -> None:
        """Release the underlying lock (untracked first).

        Untrack before the real release lands: from that moment another
        thread may acquire, and its stack must not see this entry as
        still held.
        """
        self._tracker.on_release(self.name)
        self._lock.release()

    def locked(self) -> bool:
        """Whether the underlying lock is currently held."""
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "locked" if self.locked() else "unlocked"
        return f"<TrackedLock {self.name} ({state})>"


def _creating_frame() -> tuple[str, int]:
    """``(filename, lineno)`` of the frame that created the lock.

    Walks outward past this module's own frames (the factory functions
    below live here).
    """
    depth = 1
    while True:
        try:
            frame = sys._getframe(depth)
        except ValueError:  # pragma: no cover - interpreter startup only
            return "<unknown>", 0
        filename = frame.f_code.co_filename
        if filename != __file__:
            return filename, frame.f_lineno
        depth += 1


def _creation_site(frame: tuple[str, int] | None = None) -> str:
    """``file-tail.py:lineno`` of the creating frame: two call sites
    creating locks get two distinct graph nodes while every lock born at
    one line shares a node."""
    filename, lineno = frame if frame is not None else _creating_frame()
    tail = filename.replace("\\", "/").rsplit("/", 1)[-1]
    return f"{tail}:{lineno}"


def tracked_factory(tracker: LockOrderTracker):
    """A ``threading.Lock``-compatible factory producing tracked locks.

    Every lock it creates is named by its creation site and reports to
    ``tracker``.  Suitable for targeted patching in tests
    (``monkeypatch.setattr(module, "Lock", tracked_factory(t))``).
    """

    def factory() -> TrackedLock:
        return TrackedLock(tracker, _creation_site())

    return factory


# -- global install (REPRO_SANITIZER=1) ------------------------------------------

_REAL_LOCK = threading.Lock
_INSTALLED: LockOrderTracker | None = None


def current_tracker() -> LockOrderTracker | None:
    """The globally installed tracker, or ``None``."""
    return _INSTALLED


#: Directories whose files' locks are tracked: the ``repro`` package
#: and the test tree (this file's grandparent).
_TRACKED_ROOTS = tuple(
    os.path.join(os.path.dirname(os.path.abspath(path)), "")
    for path in (repro.__file__, os.path.dirname(__file__))
)


def _global_factory(*args, **kwargs):
    """Replacement ``threading.Lock`` used while the sanitizer is installed.

    Only locks created by a file under :data:`_TRACKED_ROOTS` are
    tracked — the creating frame's full path, not its basename, decides;
    stdlib machinery (``threading.Barrier``, queues, executors) and
    ``_pytest`` get a real lock so their internal ordering never
    pollutes the recorded graph.
    """
    tracker = _INSTALLED
    frame = _creating_frame()
    if tracker is None or not os.path.abspath(frame[0]).startswith(
        _TRACKED_ROOTS
    ):
        return _REAL_LOCK(*args, **kwargs)
    return TrackedLock(tracker, _creation_site(frame))


def install() -> LockOrderTracker:
    """Patch ``threading.Lock`` to track repo-created locks; idempotent."""
    global _INSTALLED
    if _INSTALLED is None:
        _INSTALLED = LockOrderTracker()
        threading.Lock = _global_factory
    return _INSTALLED


def uninstall() -> None:
    """Restore the real ``threading.Lock`` and drop the tracker."""
    global _INSTALLED
    threading.Lock = _REAL_LOCK
    _INSTALLED = None
