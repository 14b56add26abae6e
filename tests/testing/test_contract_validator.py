"""Runtime array-contract validator (``REPRO_ARRAYCHECK=1``).

The validator is the one net for shape / dtype / layout at the kernel
boundaries; the seeded-fixture tests at the bottom execute the
``arrays_violations.py`` drivers under a scoped tracker and assert each
records its declared rule id, and that the conforming twin records
nothing — proof that the probe fires and stays quiet.
"""

import contextlib

import numpy as np
import pytest

from repro.utils import contracts
from repro.utils.contracts import (
    ContractViolation,
    array_contract,
    scoped_tracker,
)

from tests.testing.fixtures import FIXTURES_DIR, fixture_source


@array_contract("(nq, d) f32, k: int -> (nq, k) f32")
def rank(queries, k):
    return np.ascontiguousarray(queries[:, :k])


@array_contract("ids: (n,) i64, offsets: (n,) i64 -> (n,) i64")
def remap(ids, offsets):
    return ids + offsets


def run_fixture(name):
    """Exec a fixture module and return its namespace."""
    source = fixture_source(name)
    namespace = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace


class TestWrapper:
    def test_noop_when_uninstalled(self):
        # With no tracker installed the wrapper must not even inspect
        # arrays: a wrong-dtype call goes through silently.
        previous = contracts.current_tracker()
        contracts.uninstall()
        try:
            out = rank(np.zeros((2, 4)), 2)  # f64: would record otherwise
            assert out.dtype == np.float64
            assert contracts.current_tracker() is None
        finally:
            contracts._INSTALLED = previous

    def test_clean_call_records_nothing(self):
        with scoped_tracker() as tracker:
            out = rank(np.ones((3, 4), dtype=np.float32), 2)
        assert out.shape == (3, 2)
        assert tracker.violations() == []

    def test_dim_mismatch_records_rep801(self):
        with scoped_tracker() as tracker:
            with contextlib.suppress(IndexError):  # body slices 2-d
                rank(np.ones((8,), dtype=np.float32), 2)
        assert tracker.rules_seen() == {"REP801"}
        assert "declared 2-d" in tracker.violations()[0]

    def test_symbol_binding_across_parameters(self):
        with scoped_tracker() as tracker:
            with contextlib.suppress(ValueError):  # broadcast fails
                remap(
                    np.arange(4, dtype=np.int64),
                    np.arange(3, dtype=np.int64),
                )
        assert tracker.rules_seen() == {"REP801"}
        assert "already bound" in tracker.violations()[0]

    def test_dtype_violation_records_rep802(self):
        with scoped_tracker() as tracker:
            rank(np.ones((3, 4)), 2)  # float64
        assert "REP802" in tracker.rules_seen()

    def test_narrow_ids_record_rep804(self):
        with scoped_tracker() as tracker:
            remap(
                np.arange(4, dtype=np.int32), np.arange(4, dtype=np.int64)
            )
        assert "REP804" in tracker.rules_seen()

    def test_layout_violation_records_rep803(self):
        with scoped_tracker() as tracker:
            rank(np.asfortranarray(np.ones((3, 4), dtype=np.float32)), 2)
        assert "REP803" in tracker.rules_seen()

    def test_keyword_arguments_validated(self):
        with scoped_tracker() as tracker:
            rank(queries=np.ones((3, 4)), k=2)
        assert "REP802" in tracker.rules_seen()

    def test_return_contract_validated(self):
        @array_contract("(n,) f32 -> (n,) f32")
        def bad(x):
            return x.astype(np.float64)

        with scoped_tracker() as tracker:
            bad(np.zeros(3, dtype=np.float32))
        assert tracker.rules_seen() == {"REP802"}
        assert "return value" in tracker.violations()[0]

    def test_scalar_kinds_validated(self):
        with scoped_tracker() as tracker:
            with contextlib.suppress(TypeError):  # body slices with k
                rank(np.ones((3, 4), dtype=np.float32), "two")
        assert tracker.rules_seen() == {"REP802"}
        assert "'k'" in tracker.violations()[0]


class TestTracker:
    def test_check_raises_and_reset_clears(self):
        with scoped_tracker() as tracker:
            with contextlib.suppress(IndexError):
                rank(np.ones((8,), dtype=np.float32), 2)
            with pytest.raises(ContractViolation):
                tracker.check()
            tracker.reset()
            tracker.check()  # clean after reset
        assert tracker.violations() == []

    def test_scoped_tracker_restores_previous(self):
        outer = contracts.current_tracker()
        with scoped_tracker() as inner:
            assert contracts.current_tracker() is inner
            with scoped_tracker() as nested:
                assert contracts.current_tracker() is nested
            assert contracts.current_tracker() is inner
        assert contracts.current_tracker() is outer

    def test_install_is_idempotent(self):
        previous = contracts.current_tracker()
        try:
            first = contracts.install()
            second = contracts.install()
            assert first is second
        finally:
            contracts._INSTALLED = previous


# Drivers in arrays_violations.py with the rule each must record.
RUNTIME_DRIVERS = {
    "rank_flattened": "REP801",
    "rank_transposed": "REP801",
    "rank_upcast": "REP802",
    "rank_fortran": "REP803",
    "narrow_ids": "REP804",
}


class TestCrossValidation:
    """The seeded fixture pair proves the validator fires and stays quiet."""

    def test_each_driver_trips_its_declared_rule(self):
        namespace = run_fixture("arrays_violations.py")
        for driver, rule in RUNTIME_DRIVERS.items():
            with scoped_tracker() as tracker:
                with contextlib.suppress(Exception):
                    namespace[driver]()
            assert rule in tracker.rules_seen(), (
                f"{driver} should record {rule}, "
                f"got {sorted(tracker.rules_seen())}"
            )

    def test_clean_fixture_is_silent(self):
        namespace = run_fixture("arrays_clean.py")
        with scoped_tracker() as tracker:
            for driver in ("rank_correct", "paired_correct", "remap_wide"):
                namespace[driver]()
        assert tracker.violations() == []

    def test_fixture_files_exist_for_ci(self):
        # The fixtures live under tests/ and must stay importable for
        # this module.
        assert (FIXTURES_DIR / "arrays_violations.py").is_file()
        assert (FIXTURES_DIR / "arrays_clean.py").is_file()
