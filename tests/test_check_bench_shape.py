"""The CI shape gates of ``tools/check_bench_shape.py`` on hand-made records.

The metric values below are default-seed smoke readings (see the tool's
docstring): one from the tree each gate must fail on, one from the tree it
must pass.
"""

import json

import pytest

from check_bench_shape import main


def record(tmp_path, workload, **metrics):
    path = tmp_path / f"{workload}.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "metrics": {name.replace("_", ".", 1): {"value": v} for name, v in metrics.items()},
            }
        )
    )
    return str(path)


@pytest.mark.parametrize(
    "fit, build, exit_code",
    [(1.160, 0.0294, 1), (0.525, 0.0340, 0)],     # dense one-hot parent / gather
)
def test_single_ann_small_fit_against_one_index_build(tmp_path, fit, build, exit_code):
    path = record(tmp_path, "single_ann_small", setup_fit_s=fit, setup_build_index_s=build)
    assert main([path]) == exit_code


@pytest.mark.parametrize(
    "build, kg, exit_code",
    [(2.243, 0.497, 1), (1.064, 0.646, 0)],       # refit per shard / one fit
)
def test_bulk_pq_sharded_build_against_the_kg_generator(tmp_path, build, kg, exit_code):
    path = record(tmp_path, "bulk_pq_sharded", setup_build_index_s=build, setup_kg_s=kg)
    assert main([path]) == exit_code


def test_a_workload_without_checks_exits_2(tmp_path):
    assert main([record(tmp_path, "trace_open")]) == 2
