"""Unit tests for the tests.support toolkit (oracle, strategies, faults)."""
