"""Contract-conforming mirror of ``arrays_violations.py``.

Same kernels, same call shapes — every driver passes arrays that satisfy
the declared contracts, so executing the drivers under the runtime
validator records nothing.
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


def rank_correct():
    queries = np.zeros((3, 4), dtype=np.float32)
    return rank_kernel(queries, 2)


def paired_correct():
    x = np.zeros((3, 4), dtype=np.float32)
    y = np.ones((3, 4), dtype=np.float32)
    return paired_kernel(x, y.copy())


def remap_wide():
    ids = np.arange(6, dtype=np.int64)
    return remap_ids(ids)

