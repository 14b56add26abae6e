"""Seeded REP80x array-contract violations.

Each ``rank_*``/``narrow_*`` driver trips exactly one rule, marked by a
trailing ``# REP80x`` comment on the violating line.  Executing the
drivers under the runtime validator (``REPRO_ARRAYCHECK=1``, or a scoped
tracker) must record those rules — the array-contract analogue of the
lockorder fixture pair.
"""

import numpy as np

from repro.utils.contracts import array_contract


@array_contract("(nq, d) f32, k: int -> (nq, k) f32")
def rank_kernel(queries, k):
    return np.ascontiguousarray((queries * queries)[:, :k])


@array_contract("(a, b) f32::any, (a, b) f32::any -> (a, b) f32::any")
def paired_kernel(x, y):
    return x + y


@array_contract("(n,) i64 -> (n,) i64")
def remap_ids(ids):
    return ids * 8 + 3


def rank_flattened():
    queries = np.zeros((12,), dtype=np.float32)
    return rank_kernel(queries, 4)  # REP801 1-d into a (nq, d) kernel


def rank_transposed():
    queries = np.zeros((3, 4), dtype=np.float32)
    return paired_kernel(queries, queries.T)  # REP801 (a, b) meets (b, a)


def rank_upcast():
    queries = np.zeros((3, 4))
    return rank_kernel(queries, 2)  # REP802 float64 into an f32 kernel


def rank_fortran():
    queries = np.asfortranarray(np.ones((3, 4), dtype=np.float32))
    return rank_kernel(queries, 2)  # REP803 Fortran view into a C kernel


def narrow_ids():
    ids = np.arange(5, dtype=np.int32)
    return remap_ids(ids)  # REP804 int32 ids into an i64 contract
