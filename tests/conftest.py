"""Shared fixtures.

Expensive artefacts (generated KGs, the trained EmbLookup pipeline) are
session-scoped: built once, shared read-only by every test that needs them.

On every run, each test is checked for resource leaks: a shared-memory
segment this process created (``repro-shm-<pid>-*``) or a child process
that appeared during the test and is still there when it ends fails that
test — the owner was not closed.  (Fixtures of wider scope are set up
before the check starts, so what they own is not charged to a test.)

When ``REPRO_SANITIZER=1`` the runtime lock-order sanitizer
(:mod:`repro.testing.sanitizer`) is installed for the whole session:
every ``threading.Lock`` created in repro or test code is tracked and
each test fails if it introduced a lock-order inversion.

Array shape, dtype and layout have no runtime hook of their own: every
index door coerces through ``VectorIndex._check_vectors``, and the
boundary-coercion, top-k layout and differential suites pin what comes
back out (DESIGN.md §8 "Runtime nets").
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.core import EmbLookup, EmbLookupConfig
from repro.index.shm import SEGMENT_PREFIX, owned_segment_names
from repro.kg import KnowledgeGraph, SyntheticKGConfig, generate_kg
from repro.tables import BenchmarkConfig, TabularDataset, generate_benchmark

SANITIZE = os.environ.get("REPRO_SANITIZER") == "1"

if SANITIZE:
    from repro.testing import sanitizer as _sanitizer

    _sanitizer.install()


@pytest.fixture(autouse=SANITIZE)
def _lock_order_sanitizer():
    """Fail any test that introduced a new lock-order inversion."""
    if not SANITIZE:
        yield
        return
    tracker = _sanitizer.current_tracker()
    before = len(tracker.violations())
    yield
    after = tracker.violations()
    new = after[before:]
    assert not new, (
        f"{len(new)} lock-order violation(s) introduced by this test:\n"
        + "\n".join(f"  - {message}" for message in new)
    )


def _owned_resources() -> tuple[set[str], set[int]]:
    """This process's live shm segments and child-process pids."""
    mine = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    segments = {n for n in owned_segment_names() if n.startswith(mine)}
    children = {p.pid for p in multiprocessing.active_children()}
    return segments, children


@pytest.fixture(autouse=True)
def _no_leaked_workers_or_segments():
    """Fail a test that leaves behind a segment or a child it created."""
    segments_before, children_before = _owned_resources()
    yield
    segments, children = _owned_resources()
    leaked = sorted(segments - segments_before)
    orphans = sorted(children - children_before)
    assert not leaked and not orphans, (
        f"test leaked shared-memory segments {leaked} and child processes "
        f"{orphans}: close() the index/engine/registry that owns them"
    )


@pytest.fixture(scope="session")
def tiny_kg() -> KnowledgeGraph:
    """~160 entities: the curated seed core only (no synthesis beyond it)."""
    return generate_kg(SyntheticKGConfig(num_entities=160, seed=5))


@pytest.fixture(scope="session")
def small_kg() -> KnowledgeGraph:
    """400 entities: seed core + synthetic growth."""
    return generate_kg(SyntheticKGConfig(num_entities=400, seed=3))


@pytest.fixture(scope="session")
def small_dataset(small_kg) -> TabularDataset:
    """12-table benchmark over ``small_kg``."""
    return generate_benchmark(small_kg, BenchmarkConfig(num_tables=12, seed=11))


@pytest.fixture(scope="session")
def fast_config() -> EmbLookupConfig:
    """A training configuration small enough for the test suite."""
    return EmbLookupConfig(
        epochs=4,
        triplets_per_entity=10,
        fasttext_epochs=6,
        batch_size=64,
        seed=2,
    )


@pytest.fixture(scope="session")
def trained_service(tiny_kg, fast_config) -> EmbLookup:
    """A (quickly) trained EmbLookup pipeline over the tiny KG."""
    service = EmbLookup(fast_config)
    service.fit(tiny_kg)
    return service
