"""Smoke test: the demos run to completion against the current API.

Demo 04 is left out: it only wraps ``bench.cmd_benchmark``, which
test_bench.py and the acceptance tests already run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name",
    ["01_trajectory_libraries.py", "02_controller_equivalences.py", "03_hankel_denoising.py"],
)
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # run from a scratch directory so the files a demo writes stay out of the tree
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
