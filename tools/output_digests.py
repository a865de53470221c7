"""Print SHA-256 digests of the outputs that a refactor must leave byte-identical.

Runs, each into a temporary directory:

* ``benchmark --trials 8 --seed 12345`` (benchmark.csv and trajectory.svg);
* ``equivalence --trials 3 --seed 6`` (its nonzero exit, from the rows that
  seed fails, is expected);
* ``sweep --seed 31341``;
* ``nonlinearity --eps 0,0.5,1 --trials 3``;

and hashes the denoised ``h_y_star`` of ``preprocess_svd_iter`` for
instances 0-2 of the default ``ExperimentConfig``.  BLAS is pinned to one
thread before numpy loads, since the bytes depend on the BLAS kernels; the
header names the numpy and scipy builds and the machine they ran on.

Usage, from the root of a checkout (it imports that checkout's ``src``)::

    python tools/output_digests.py

Two trees agree when they print the same digest lines on the same host.  Not
part of the test suite: it takes a few seconds.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from deepckit import bench  # noqa: E402
from deepckit import variants as va  # noqa: E402

# (name, CLI arguments, the files it writes that are hashed)
COMMANDS = (
    ("benchmark", ["benchmark", "--trials", "8", "--seed", "12345"],
     ("benchmark.csv", "trajectory.svg")),
    ("equivalence", ["equivalence", "--trials", "3", "--seed", "6"], ("equivalence.csv",)),
    ("sweep", ["sweep", "--seed", "31341"], ("sweep.csv",)),
    ("nonlinearity", ["nonlinearity", "--eps", "0,0.5,1", "--trials", "3"],
     ("nonlinearity.csv",)),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # an older numpy, without the dict mode
        return "unknown"


def main() -> int:
    print(f"# numpy {np.__version__}, scipy {scipy.__version__}, BLAS {_blas()}")
    print(f"# {platform.platform()}, {platform.machine()}, python {platform.python_version()}")
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, argv, files in COMMANDS:
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                bench.main([*argv, "--out", str(out)])
            for file in files:
                print(f"{_sha256((out / file).read_bytes())}  {name}/{file}")
        cfg = bench.ExperimentConfig()
        plant = bench._make_plant(cfg)
        order = plant.n if cfg.slra_order is None else cfg.slra_order
        for trial in range(3):
            lib = bench._instance(cfg, plant, trial)[0]
            h_y_star = va.preprocess_svd_iter(lib, order, eps=cfg.slra_eps).slra.h_y_star
            print(f"{_sha256(np.ascontiguousarray(h_y_star).tobytes())}  h_y_star[{trial}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
