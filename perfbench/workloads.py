"""The benchmark's closed-loop workloads and their correctness checks.

Each workload repeats one *task*; task ``i`` of a run with seed ``s`` uses
instance seed ``s + i``.  A task drives one ``deepckit.bench`` command in a
scratch output directory and returns the deterministic CSVs it wrote.

* ``mc-paper`` -- one paper-scale Monte Carlo trial (``cmd_benchmark`` with
  ``trials=1``): every module does real work.
* ``mc-qp`` -- the same trial without the denoising variant ``svd-iter``:
  no SLRA runs, so it is QP-bound and bypasses the denoiser.

Two more workloads are not in ``BENCHMARK.json``, because the program fails
operations on some of their instances; they run as checks of their own:

* ``sweep-grid`` -- one (instance, variant) row of the default 4x4
  lambda1 x lambda2 grid (``cmd_sweep`` with one variant): preprocessing is
  paid once per 16 solves and there is no ground truth, so it is QP-bound.
  Some cells end in ``VariantError`` (the QP hits its iteration limit).
* ``certify`` -- one instance through the four equivalence regimes
  (``cmd_equivalence`` with ``trials=1``): tight tolerances, ill-conditioned
  systems, and a noise-free denoise that converges in a few passes.  Some
  instances fail the program's own certification.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from deepckit import bench, plants, qp

from instrument import PREPROCESSORS, SOLVERS, TaskRecord

SWEEP_GRID = (1e-5, 1e-2, 1e1, 1e4)  # the CLI's default lambda grids

# Ground truth is optimal for the true model over the input box, so no
# variant's realized cost may undercut it.  The ground-truth QP is accepted at
# a scaled residual of 1e-6; 1e-4 relative leaves room for the scaling
# between the solver's objective and the rollout's cost.
GT_LOWER_BOUND_RTOL = 1e-4

# Planned inputs come straight out of the interior-point iterate, which stays
# inside the box up to the rounding of the solver's variable scaling.
U_BOX_RTOL = 1e-12


# Failures the program did not report itself: it returned a result as a
# success and a check found it wrong.  Any of these makes a run incorrect.
# Every other failure reason (a VariantError, a diverged rollout, a failing
# equivalence row, a task that raised) is reported by the program and only
# counts against ok_ratio.
SILENT_FAILURES = frozenset(
    {"kkt_residual", "u_not_finite", "u_box", "cost_not_finite", "gt_lower_bound"}
)


@dataclass
class TaskOutput:
    csvs: list
    rows: list  # certify only: parsed equivalence.csv rows


def _paper_config(**overrides) -> bench.ExperimentConfig:
    """The paper-scale setting: triple-mass-spring, T=200, t_ini=4, N=40, noise 0.01."""
    return bench.ExperimentConfig(
        plant="triple-mass-spring",
        T=200,
        t_ini=4,
        n_horizon=40,
        noise_var=0.01,
        variants=bench.DEFAULT_VARIANTS,
        **overrides,
    )


class Workload:
    name = ""
    cycle = 1  # a run ends on a multiple of this many tasks

    def setup(self) -> None:
        """Validate the task config and build the plant (runs the matrix exponential)."""
        self.template = _paper_config(trials=1)
        plants.triple_mass_spring()

    def run(self, seed: int, index: int, out_dir: Path) -> TaskOutput:
        raise NotImplementedError

    def check(self, index: int, output: TaskOutput, record: TaskRecord) -> list:
        """The workload's own checks: marks failing operations, returns other failures.

        Other failures come back as (reason, count) pairs.
        """
        return []

    def expected_calls(self, index: int, output: TaskOutput, record: TaskRecord) -> dict | None:
        """Traced call counts this task implies, or None when a failure makes them unknown."""
        raise NotImplementedError


# variant -> (its solve function, its preprocessing function or None)
VARIANT_FUNCTIONS = {
    "hybrid": ("solve_hybrid", None),
    "svd": ("solve_svd", "preprocess_svd"),
    "ddspc": ("solve_dd_spc", "build_spc_library"),
    "svd-iter": ("solve_svd_iter", "preprocess_svd_iter"),
}


class McPaper(Workload):
    name = "mc-paper"
    variants = bench.DEFAULT_VARIANTS

    def run(self, seed, index, out_dir):
        cfg = replace(self.template, seed=seed, variants=self.variants, out_dir=str(out_dir))
        path, _rows = bench.cmd_benchmark(cfg)
        return TaskOutput(csvs=[path], rows=[])

    def check(self, index, output, record):
        gt = [op for op in record.ops if op.variant == "ground-truth" and op.cost is not None]
        if len(gt) != 1:
            return []
        floor = gt[0].cost * (1.0 - GT_LOWER_BOUND_RTOL)
        for op in record.ops:
            if op.variant != "ground-truth" and op.cost is not None and op.cost < floor:
                op.fail("gt_lower_bound")
        return []

    def expected_calls(self, index, output, record):
        calls = _instance_calls(1)
        for name in self.variants:
            solve, pre = VARIANT_FUNCTIONS[name]
            calls[f"variants.{solve}"] = 1
            if pre:
                calls[f"variants.{pre}"] = 1
        calls["variants.solve_ground_truth"] = 1
        calls["qp.solve"] = 1 + len(self.variants)
        calls["slra.iterative_slra"] = int("svd-iter" in self.variants)
        calls["variants.realized_cost"] = sum(op.solved for op in record.ops)
        return calls


class McQp(McPaper):
    name = "mc-qp"
    # the paper-scale trial without the denoising variant: no SLRA runs
    variants = tuple(v for v in bench.DEFAULT_VARIANTS if v != "svd-iter")


class SweepGrid(Workload):
    name = "sweep-grid"

    # Rows of different variants differ about twofold in cost; ending runs on
    # whole cycles keeps the variant mix, and so the task rate, comparable.
    cycle = len(bench.DEFAULT_VARIANTS)

    def variant(self, index: int) -> str:
        return bench.DEFAULT_VARIANTS[index % len(bench.DEFAULT_VARIANTS)]

    def run(self, seed, index, out_dir):
        cfg = replace(
            self.template, seed=seed, variants=(self.variant(index),), out_dir=str(out_dir)
        )
        path = bench.cmd_sweep(cfg, SWEEP_GRID, SWEEP_GRID)
        return TaskOutput(csvs=[path], rows=[])

    def expected_calls(self, index, output, record):
        name = self.variant(index)
        solve, pre = VARIANT_FUNCTIONS[name]
        cells = len(SWEEP_GRID) ** 2
        calls = _instance_calls(1)
        calls[f"variants.{solve}"] = cells
        calls["qp.solve"] = cells
        if pre:
            calls[f"variants.{pre}"] = 1
        calls["slra.iterative_slra"] = int(name == "svd-iter")
        calls["variants.realized_cost"] = sum(op.solved for op in record.ops)
        return calls


class Certify(Workload):
    name = "certify"

    def run(self, seed, index, out_dir):
        cfg = replace(self.template, seed=seed, out_dir=str(out_dir))
        path, _ok = bench.cmd_equivalence(cfg)
        with open(path, newline="", encoding="ascii") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        return TaskOutput(csvs=[path], rows=rows)

    def check(self, index, output, record):
        failed = sum(row["pass"] != "1" for row in output.rows)
        return [("equivalence_row", failed)] if failed else []

    def expected_calls(self, index, output, record):
        # fact1: ground truth + five variants; theorem2: hybrid, svd;
        # theorem3: hybrid, svd, ddspc; theorem1: ddspc, spc.  A failed solve
        # or a rank-deficient library cuts a regime short.
        if any("|" not in row["pair"] for row in output.rows):
            return None
        calls = _instance_calls(2)  # one noise-free and one noisy instance
        calls.update({
            "variants.solve_ground_truth": 1,
            "variants.solve_basic_deepc": 1,
            "variants.solve_hybrid": 3,
            "variants.solve_svd": 3,
            "variants.solve_dd_spc": 3,
            "variants.solve_svd_iter": 1,
            "variants.solve_classical_spc": 1,
            "qp.solve": 13,
            "variants.preprocess_svd": 3,
            "variants.build_spc_library": 3,
            "variants.preprocess_svd_iter": 1,
            "slra.iterative_slra": 1,
            "variants.realized_cost": 0,
        })
        return calls


def _instance_calls(instances: int) -> dict:
    """Counts per instance built; every solve and preprocessing count starts at 0."""
    calls = {f"variants.{fn}": 0 for fn in (*SOLVERS, *PREPROCESSORS)}
    return calls | {
        "bench.make_instance": instances,
        "plants.collect_trajectory": instances,
        "hankel.partition": instances,
    }


WORKLOADS = {w.name: w for w in (McPaper(), McQp(), SweepGrid(), Certify())}


def check_operations(record: TaskRecord) -> None:
    """Per-operation checks; a failing operation keeps its first failure reason."""
    for op in record.ops:
        for sol, limit in op.qps:
            if sol.status is qp.QpStatus.OPTIMAL and max(qp.kkt_residuals(sol)) > limit:
                op.fail("kkt_residual")
        if op.solution is not None and op.spec is not None and op.spec.u_box is not None:
            u = op.solution.u
            if not np.all(np.isfinite(u)):
                op.fail("u_not_finite")
            lo = np.resize(np.asarray(op.spec.u_box[0], dtype=float), u.size)
            hi = np.resize(np.asarray(op.spec.u_box[1], dtype=float), u.size)
            slack_lo = U_BOX_RTOL * np.maximum(1.0, np.abs(lo))
            slack_hi = U_BOX_RTOL * np.maximum(1.0, np.abs(hi))
            if np.any(u < lo - slack_lo) or np.any(u > hi + slack_hi):
                op.fail("u_box")
        if op.cost is not None and not np.isfinite(op.cost):
            op.fail("cost_not_finite")
