"""Data-enabled predictive control toolkit.

Trajectory-library predictors built from block-Hankel matrices, regularized
convex controller variants, an iterative structured low-rank denoiser, a dense
interior-point QP backend, and a reproducible benchmark harness.
"""

import importlib

from . import hankel, matlib, plants, qp, slra, variants

__all__ = ["bench", "hankel", "matlib", "plants", "qp", "slra", "variants"]
__version__ = "0.1.0"


def __getattr__(name):
    # ``bench`` is the CLI module: importing it here eagerly would make
    # ``python -m deepckit.bench`` find it already in sys.modules and run it twice.
    if name == "bench":
        return importlib.import_module(".bench", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
