"""Property-based correctness and fault-injection toolkit of the test suite.

Dependency-free (numpy only), and not part of the installed package:

- :mod:`tests.support.oracle` — reference brute-force k-NN plus the
  comparators (`assert_topk_equal`, `assert_valid_topk`, `recall_at_k`)
  the differential properties assert with;
- :mod:`tests.support.strategies` — seeded adversarial generators
  (vector stores, entity labels, serving grids) with shrinking and
  ``REPRO_SEED``/``REPRO_CASE`` replay;
- :mod:`tests.support.faults` — the :class:`FaultPlan` / `QueryPoison`
  injectors the hardened ``ShardedIndex`` / ``LookupEngine`` hook points
  accept, and ``held_flush``, which holds an engine mid-flush so a test
  can queue a batch behind it;
- :mod:`tests.support.sanitizer` — the runtime lock-order tracker
  (``REPRO_SANITIZER=1``) that records the dynamic lock-acquisition
  graph during the property suites and fails tests on inversions;
- :mod:`tests.support.gradcheck` — the float64 central-difference
  gradient checker the ``tests/nn`` suites pin the autograd with.

This package may import the production layers it tests (index, lookup,
serving); nothing under ``src/repro`` imports it
(``tests/test_package_boundary.py``).
"""

from tests.support.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    QueryPoison,
    held_flush,
)
from tests.support.sanitizer import (
    LockOrderTracker,
    LockOrderViolation,
    TrackedLock,
    current_tracker,
    tracked_factory,
)
from tests.support.oracle import (
    assert_topk_agrees,
    assert_topk_equal,
    assert_valid_topk,
    brute_force_topk,
    exact_topk,
    recall_at_k,
)
from tests.support.strategies import (
    DEFAULT_CASES,
    GridCase,
    GridStrategy,
    LabelStrategy,
    PropertyFailure,
    StoreCase,
    TupleStrategy,
    VectorStoreStrategy,
    base_seed,
    case_rng,
    run_cases,
)

__all__ = [
    "DEFAULT_CASES",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "GridCase",
    "GridStrategy",
    "LabelStrategy",
    "LockOrderTracker",
    "LockOrderViolation",
    "PropertyFailure",
    "QueryPoison",
    "StoreCase",
    "TrackedLock",
    "TupleStrategy",
    "VectorStoreStrategy",
    "assert_topk_agrees",
    "assert_topk_equal",
    "assert_valid_topk",
    "base_seed",
    "brute_force_topk",
    "case_rng",
    "current_tracker",
    "exact_topk",
    "held_flush",
    "recall_at_k",
    "run_cases",
    "tracked_factory",
]
