import os

# Pin BLAS to one thread before numpy loads it.  The suite's matrices are
# small, and a threaded BLAS runs them several times slower on a machine with
# few cores.  A value already set in the environment still wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

from deepckit.plants import LinearPlant  # noqa: E402


@pytest.fixture(scope="session")
def small_plant():
    """Fast 2-state SISO plant for controller tests (stable, observable, lag 2)."""
    return LinearPlant(
        a=[[0.9, 0.2], [-0.15, 0.8]],
        b=[[0.4], [1.0]],
        c=[[1.0, 0.0]],
        d=[[0.0]],
    )


@pytest.fixture
def lu_sizes(monkeypatch):
    """Orders of the matrices passed to scipy.linalg.lu_factor."""
    sizes = []
    original = scipy.linalg.lu_factor

    def spy(*args, **kwargs):
        sizes.append(args[0].shape[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", spy)
    return sizes


def random_matrix(rng, rows, cols, rank=None):
    """Random matrix, optionally of prescribed rank."""
    if rank is None:
        return rng.standard_normal((rows, cols))
    rank = min(rank, rows, cols)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
