"""Runtime lock-order sanitizer tests.

The cross-validation tests execute the seeded ``lockorder_*`` fixtures
with ``threading.Lock`` replaced by a tracked factory: the violating
fixture must record its inversions, and the clean fixture none.
"""

import threading

import pytest

from repro.testing.sanitizer import (
    LockOrderTracker,
    LockOrderViolation,
    TrackedLock,
    current_tracker,
    install,
    tracked_factory,
    uninstall,
)

from tests.testing.fixtures import fixture_source


def make_locks(tracker, *names):
    return [TrackedLock(tracker, name) for name in names]


class TestTrackedLock:
    def test_behaves_like_a_lock(self):
        tracker = LockOrderTracker()
        (lock,) = make_locks(tracker, "L")
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert tracker.held() == ("L",)
        assert not lock.locked()
        assert tracker.held() == ()

    def test_nonblocking_failure_is_not_tracked(self):
        tracker = LockOrderTracker()
        (lock,) = make_locks(tracker, "L")
        lock.acquire()
        assert lock.acquire(blocking=False) is False
        assert tracker.held() == ("L",)
        lock.release()

    def test_nested_acquisition_records_an_edge(self):
        tracker = LockOrderTracker()
        a, b = make_locks(tracker, "A", "B")
        with a:
            with b:
                pass
        assert "B" in tracker.edges()["A"]
        assert tracker.violations() == []


class TestInversionDetection:
    def test_sequential_inversion_is_caught_on_one_thread(self):
        """No interleaving needed: A->B then B->A on one thread suffices."""
        tracker = LockOrderTracker()
        a, b = make_locks(tracker, "A", "B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        violations = tracker.violations()
        assert len(violations) == 1
        assert "`A`" in violations[0] and "`B`" in violations[0]
        with pytest.raises(LockOrderViolation):
            tracker.check()

    def test_transitive_inversion_through_a_third_lock(self):
        tracker = LockOrderTracker()
        a, b, c = make_locks(tracker, "A", "B", "C")
        with a:
            with b:
                pass
        with b:
            with c:
                pass
        with c:
            with a:
                pass  # closes A -> B -> C -> A
        assert len(tracker.violations()) == 1

    def test_consistent_order_is_clean(self):
        tracker = LockOrderTracker()
        a, b = make_locks(tracker, "A", "B")
        for _ in range(3):
            with a:
                with b:
                    pass
        tracker.check()
        assert tracker.violations() == []

    def test_reset_forgets_history(self):
        tracker = LockOrderTracker()
        a, b = make_locks(tracker, "A", "B")
        with a:
            with b:
                pass
        tracker.reset()
        with b:
            with a:
                pass
        assert tracker.violations() == []


class TestCrossValidation:
    """The seeded lock-order fixtures must trip (or not trip) the sanitizer."""

    def run_fixture(self, name):
        tracker = LockOrderTracker()
        namespace = {"threading": threading}
        source = fixture_source(name)
        exec(  # noqa: S102 - executing our own test fixture
            compile(source, f"<{name}>", "exec"),
            namespace,
        )
        # Rebind Lock so the fixture classes build tracked locks; each
        # __init__ line becomes one graph node.
        namespace["threading"] = type(
            "T", (), {"Lock": staticmethod(tracked_factory(tracker))}
        )
        return tracker, namespace

    def test_violating_fixture_trips_the_sanitizer(self):
        tracker, ns = self.run_fixture("lockorder_violations.py")
        pair = ns["InvertedPair"]()
        pair.ab()
        pair.ba()
        assert len(tracker.violations()) == 1
        ledger = ns["Ledger"]()
        ledger.transfer(5)
        ledger.audit()
        assert len(tracker.violations()) == 2

    def test_clean_fixture_stays_quiet(self):
        tracker, ns = self.run_fixture("lockorder_clean.py")
        pair = ns["OrderedPair"]()
        pair.ab()
        pair.also_ab()
        ledger = ns["Ledger"]()
        ledger.transfer(5)
        ledger.audit()
        tracker.check()
        assert tracker.violations() == []


class TestFactoryAndInstall:
    def test_factory_names_locks_by_creation_site(self):
        tracker = LockOrderTracker()
        factory = tracked_factory(tracker)
        first = factory()
        second = factory()
        assert first.name.startswith("test_sanitizer.py:")
        assert second.name != first.name  # two call sites, two nodes

    def test_same_site_shares_a_node(self):
        tracker = LockOrderTracker()
        factory = tracked_factory(tracker)
        locks = [factory() for _ in range(2)]
        assert locks[0].name == locks[1].name

    def test_install_tracks_test_code_and_uninstall_restores(self):
        if current_tracker() is not None:
            pytest.skip("sanitizer installed session-wide (REPRO_SANITIZER=1)")
        assert current_tracker() is None
        tracker = install()
        try:
            assert current_tracker() is tracker
            assert install() is tracker  # idempotent
            lock = threading.Lock()  # created in a test file -> tracked
            assert isinstance(lock, TrackedLock)
            with lock:
                assert tracker.held() == (lock.name,)
        finally:
            uninstall()
        assert current_tracker() is None
        assert not isinstance(threading.Lock(), TrackedLock)
