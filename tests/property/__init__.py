"""Property-based differential, fault-injection and concurrency suites.

These tests drive the production index/serving stack through the
``tests.support`` toolkit: seeded adversarial generators, a brute-force
oracle, and injectable fault plans.  CI runs them under a small
``REPRO_SEED`` matrix; any failure prints a ``REPRO_SEED=... REPRO_CASE=...``
replay line.
"""
