"""Property-based correctness and fault-injection toolkit.

Three pieces, all dependency-free (numpy only):

- :mod:`repro.testing.oracle` — reference brute-force k-NN plus the
  comparators (`assert_topk_equal`, `assert_valid_topk`, `recall_at_k`)
  the differential properties assert with;
- :mod:`repro.testing.strategies` — seeded adversarial generators
  (vector stores, entity labels, serving grids) with shrinking and
  ``REPRO_SEED``/``REPRO_CASE`` replay;
- :mod:`repro.testing.faults` — the :class:`FaultPlan` / `QueryPoison`
  injectors the hardened ``ShardedIndex`` / ``LookupEngine`` hook points
  accept, and ``held_flush``, which holds an engine mid-flush so a test
  can queue a batch behind it;
- :mod:`repro.testing.sanitizer` — the runtime lock-order tracker
  (``REPRO_SANITIZER=1``) that records the dynamic lock-acquisition
  graph during the property suites and fails tests on inversions.

Layering: this package may import the production layers it tests
(index, lookup, serving); no production layer may import it — enforced
by ``tools/arch_contract.toml``.  The one sanctioned consumer outside
the test suite is the ``repro selftest`` CLI diagnostics command.
"""

from repro.testing.faults import (
    FaultInjected,
    FaultPlan,
    FaultSpec,
    QueryPoison,
    held_flush,
)
from repro.testing.sanitizer import (
    LockOrderTracker,
    LockOrderViolation,
    TrackedLock,
    current_tracker,
    tracked_factory,
)
from repro.testing.oracle import (
    assert_topk_agrees,
    assert_topk_equal,
    assert_valid_topk,
    brute_force_topk,
    exact_topk,
    recall_at_k,
)
from repro.testing.strategies import (
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
