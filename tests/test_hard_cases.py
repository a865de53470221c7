"""The named certify rows and sweep cells that fail today (ROADMAP item 2).

Each runs the public command at ``trials=1`` and asserts that the named rows
or cells pass.  They are strict xfails: a change that mends one turns it
XPASS, which fails, so the mend must also remove the mark.
"""

import csv

import numpy as np
import pytest

from deepckit import bench

_OPEN = pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")


def _rows(path):
    with open(path, encoding="ascii") as fh:
        next(fh)  # the comment line
        return list(csv.DictReader(fh))


def _certify(tmp_path, seed):
    cfg = bench.ExperimentConfig(trials=1, seed=seed, out_dir=str(tmp_path))
    return _rows(bench.cmd_equivalence(cfg)[0])


def _sweep(tmp_path, seed, variant, lambda1_grid, lambda2_grid):
    cfg = bench.ExperimentConfig(trials=1, seed=seed, variants=(variant,), out_dir=str(tmp_path))
    return _rows(bench.cmd_sweep(cfg, lambda1_grid, lambda2_grid))


@_OPEN
@pytest.mark.parametrize("seed", [6, 21])
def test_certify_fact1(tmp_path, seed):
    # seed 6 fails 11 of its 15 fact1 rows, seed 21 the 4 against svd-iter
    failing = [(row["regime"], row["pair"]) for row in _certify(tmp_path, seed)
               if row["regime"].startswith("fact1") and row["pass"] != "1"]
    assert not failing


@_OPEN
def test_certify_seed_44_theorem2(tmp_path):
    # hybrid|svd deviates by 2.69e-5 against the 1e-5 tolerance
    rows = {row["pair"]: row for row in _certify(tmp_path, 44) if row["regime"] == "theorem2[0]"}
    assert rows["hybrid|svd"]["pass"] == "1"


@_OPEN
@pytest.mark.parametrize("seed, variant, lambda2_grid", [
    (31341, "hybrid", [10.0]),
    (31334, "svd", [1e-5, 1e-2]),
])
def test_sweep_cell(tmp_path, seed, variant, lambda2_grid):
    # the interior-point step collapses and the cell's cost is NaN
    rows = _sweep(tmp_path, seed, variant, [1e4], lambda2_grid)
    assert all(np.isfinite(float(row["realized_cost"])) for row in rows)
