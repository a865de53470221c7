"""Wrappers around deepckit's public functions.

Every run wraps the controller solves, the QP solver, the denoising
preprocessing and the realized-cost rollout, so that each task's outputs can
be checked after it ends.  The traced run wraps every function in ``TRACED``
plus ``scipy.linalg.lu_factor`` and records one span per call.

A function is replaced in every deepckit namespace that binds it (found by
identity), so calls made through ``from`` imports -- ``slra.compact_svd``,
``variants.iterative_slra``, ``bench.partition`` -- are seen as well.
"""

from __future__ import annotations

import functools
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import scipy.linalg

from deepckit import bench, hankel, matlib, plants, qp, slra, variants

MODULES = {
    "bench": bench,
    "hankel": hankel,
    "matlib": matlib,
    "plants": plants,
    "qp": qp,
    "slra": slra,
    "variants": variants,
}

# variants function -> the variant name used in reports
SOLVERS = {
    "solve_ground_truth": "ground-truth",
    "solve_basic_deepc": "basic",
    "solve_hybrid": "hybrid",
    "solve_svd": "svd",
    "solve_dd_spc": "ddspc",
    "solve_svd_iter": "svd-iter",
    "solve_classical_spc": "spc",
}

PREPROCESSORS = ("preprocess_svd", "build_spc_library", "preprocess_svd_iter")

TRACED = {
    "qp": ("solve", "assemble_reduced"),
    "variants": (*SOLVERS, *PREPROCESSORS, "realized_cost"),
    "slra": ("iterative_slra",),
    "matlib": ("compact_svd", "rowspace_projector", "pinv"),
    "hankel": ("partition", "hankel_project"),
    "plants": ("collect_trajectory",),
    "bench": ("make_instance",),
}

CHECKED = {
    "qp": ("solve",),
    "variants": (*SOLVERS, "preprocess_svd_iter", "realized_cost"),
}

TASK_SPAN = "task"
LU_SPAN = "scipy.lu_factor"


@dataclass
class Operation:
    """One controller solve inside a task and what its checks need."""

    variant: str
    spec: object
    solution: object = None
    qps: list = field(default_factory=list)  # (QpSolution, acceptance threshold)
    cost: float | None = None
    failure: str | None = None
    solved: bool = False

    def fail(self, reason: str) -> None:
        if self.failure is None:
            self.failure = reason


@dataclass
class TaskRecord:
    """What the wrappers saw during one task."""

    ops: list = field(default_factory=list)
    slra_reports: list = field(default_factory=list)

    def compact(self) -> None:
        """Drop the arrays once the checks have run, so records do not inflate peak RSS.

        Keeps what the metrics and the self-check read: per QP its iteration
        count and whether it was OPTIMAL; per denoise its passes, convergence
        flag and final gap.
        """
        for op in self.ops:
            op.spec = None
            op.solution = None
            op.qps = [(sol.iterations, sol.status is qp.QpStatus.OPTIMAL) for sol, _ in op.qps]
        self.slra_reports = [
            (rep.iterations, rep.converged, rep.final_rel_change) for rep in self.slra_reports
        ]


class Recorder:
    """Installs the wrappers and keeps per-task records and, if tracing, spans.

    A span is ``[name, start, end, parent index, task index]``; spans stay in
    memory until the run ends.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []
        self.svd_shapes: list[tuple] = []  # (rows, cols)
        self.lu_dims: list[tuple] = []  # (span index, dim)
        self.aliases: list[str] = []
        self.task = TaskRecord()
        self._stack: list[int] = []
        self._task_index = -1
        self._current_op: Operation | None = None
        self._patched: list[tuple] = []
        self._qp_signature = inspect.signature(qp.solve)

    # ---- installation -------------------------------------------------

    def install(self) -> None:
        targets = TRACED if self.trace else CHECKED
        hooks = {
            "qp.solve": self._qp_hook,
            "variants.realized_cost": self._cost_hook,
            "variants.preprocess_svd_iter": self._slra_hook,
            "matlib.compact_svd": self._svd_hook,
        }
        for variant_fn, variant in SOLVERS.items():
            hooks[f"variants.{variant_fn}"] = functools.partial(self._solve_hook, variant)
        namespaces = [
            mod for name, mod in list(sys.modules.items())
            if name == "deepckit" or name.startswith("deepckit.")
        ]
        for owner, names in targets.items():
            for name in names:
                qualname = f"{owner}.{name}"
                original = getattr(MODULES[owner], name)
                wrapper = self._wrap(qualname, original, hooks.get(qualname))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, original))
                            short = ns.__name__.rpartition(".")[2]
                            if (short, attr) != (owner, name):
                                self.aliases.append(f"{short}.{attr} -> {qualname}")
        if self.trace:
            original = scipy.linalg.lu_factor
            scipy.linalg.lu_factor = self._wrap(LU_SPAN, original, self._lu_hook)
            self._patched.append((scipy.linalg, "lu_factor", original))

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def _wrap(self, qualname, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.trace:
                return fn(*args, **kwargs) if hook is None else hook(fn, args, kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([qualname, perf_counter(), 0.0, parent, self._task_index])
            stack.append(idx)
            try:
                return fn(*args, **kwargs) if hook is None else hook(fn, args, kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return wrapper

    # ---- tasks ----------------------------------------------------------

    def begin_task(self, index: int) -> None:
        self.task = TaskRecord()
        self._task_index = index
        if self.trace:
            self._stack.append(len(self.spans))
            self.spans.append([TASK_SPAN, perf_counter(), 0.0, -1, index])

    def end_task(self) -> TaskRecord:
        if self.trace:
            self.spans[self._stack.pop()][2] = perf_counter()
        return self.task

    # ---- hooks ------------------------------------------------------------

    def _solve_hook(self, variant, fn, args, kwargs):
        spec = kwargs["spec"] if "spec" in kwargs else args[2]
        op = Operation(variant, spec)
        self.task.ops.append(op)
        outer, self._current_op = self._current_op, op
        try:
            op.solution = fn(*args, **kwargs)
            op.solved = True
        except variants.VariantError as err:
            op.fail(f"variant_error:{err.status.value}")
            raise
        finally:
            self._current_op = outer
        return op.solution

    def _qp_hook(self, fn, args, kwargs):
        sol = fn(*args, **kwargs)
        bound = self._qp_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tol, accept = bound.arguments["tol"], bound.arguments["accept_tol"]
        # the solver's own acceptance rule: accept_tol never tightens tol
        limit = tol if accept is None else max(tol, accept)
        op = self._current_op
        if op is None:  # a QP solved outside any controller is an operation of its own
            op = Operation("qp", None)
            self.task.ops.append(op)
        op.qps.append((sol, limit))
        return sol

    def _cost_hook(self, fn, args, kwargs):
        op = self.task.ops[-1] if self.task.ops else None
        try:
            cost = fn(*args, **kwargs)
        except ValueError as err:
            # The rollout signals a diverged plant with a plain ValueError; the
            # error is classified here and always re-raised to the caller.
            if op is not None:
                op.fail("plant_diverged" if "diverged" in str(err) else "rollout_error")
            raise
        if op is not None:
            op.cost = cost
        return cost

    def _slra_hook(self, fn, args, kwargs):
        lib = fn(*args, **kwargs)
        self.task.slra_reports.append(lib.slra)
        return lib

    def _svd_hook(self, fn, args, kwargs):
        a = kwargs["a"] if "a" in kwargs else args[0]
        self.svd_shapes.append(np.shape(a))
        return fn(*args, **kwargs)

    def _lu_hook(self, fn, args, kwargs):
        a = kwargs["a"] if "a" in kwargs else args[0]
        self.lu_dims.append((self._stack[-1], np.shape(a)[0]))
        return fn(*args, **kwargs)


# ---- span analysis ------------------------------------------------------------


def span_counts(rec: Recorder) -> dict:
    """Calls per (task index, span name)."""
    counts: dict = {}
    for name, _start, _end, _parent, task in rec.spans:
        counts[task, name] = counts.get((task, name), 0) + 1
    return counts


def _svd_gflop(rows: int, cols: int) -> float:
    """Thin SVD with both factors, Golub & Van Loan's R-SVD count: 6 l k^2 + 20 k^3."""
    k, l = min(rows, cols), max(rows, cols)
    return (6.0 * l * k * k + 20.0 * k**3) / 1e9


def layer_metrics(rec: Recorder, records: list, n_tasks: int) -> dict:
    """Per-module metrics of a traced pass from its spans and compacted task records.

    Values are per task unless the metric is a ratio, a median or a per-denoise mean.

    A span's self time is its duration minus the durations of its child spans
    (calls are single-threaded and nested, so children never overlap).
    """
    spans = rec.spans
    dur = [end - start for _name, start, end, _parent, _task in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    calls: dict = {}
    total: dict = {}
    own: dict = {}
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + dur[i] - child[i]

    def under_qp_solve(idx: int) -> bool:
        idx = spans[idx][3]
        while idx >= 0:
            if spans[idx][0] == "qp.solve":
                return True
            idx = spans[idx][3]
        return False

    lu = [(idx, dim) for idx, dim in rec.lu_dims if under_qp_solve(idx)]
    qps = [q for record in records for op in record.ops for q in op.qps]
    iterations = sum(iters for iters, _optimal in qps)
    reports = [rep for record in records for rep in record.slra_reports]

    def per_task(value):
        return value / n_tasks

    m = {
        "qp.solve.calls": (per_task(calls.get("qp.solve", 0)), "count"),
        "qp.solve.s": (per_task(total.get("qp.solve", 0.0)), "s"),
        "qp.solve.self_s": (per_task(own.get("qp.solve", 0.0)), "s"),
        "qp.iterations": (per_task(iterations), "count"),
        "qp.lu_factorizations": (per_task(len(lu)), "count"),
        "qp.lu_per_iteration": (len(lu) / iterations if iterations else 0.0, "ratio"),
        "qp.lu_factor.s": (per_task(sum(dur[idx] for idx, _dim in lu)), "s"),
        "qp.lu_gflop": (per_task(sum(2.0 / 3.0 * dim**3 for _idx, dim in lu) / 1e9), "GFLOP"),
        "qp.kkt_dim.p50": (float(np.median([dim for _idx, dim in lu])) if lu else 0.0, "dim"),
        "qp.assemble_reduced.s": (per_task(total.get("qp.assemble_reduced", 0.0)), "s"),
        "qp.not_optimal": (
            per_task(sum(not optimal for _iters, optimal in qps)), "count"
        ),
    }
    for fn in SOLVERS:
        m[f"variants.{fn}.s"] = (per_task(total.get(f"variants.{fn}", 0.0)), "s")
        m[f"variants.{fn}.self_s"] = (per_task(own.get(f"variants.{fn}", 0.0)), "s")
    for fn in (*PREPROCESSORS, "realized_cost"):
        m[f"variants.{fn}.s"] = (per_task(total.get(f"variants.{fn}", 0.0)), "s")
    m.update({
        "slra.iterative_slra.s": (per_task(total.get("slra.iterative_slra", 0.0)), "s"),
        "slra.passes": (
            float(np.mean([passes for passes, _c, _g in reports])) if reports else 0.0,
            "count",
        ),
        "slra.converged_ratio": (
            float(np.mean([converged for _p, converged, _g in reports])) if reports else 0.0,
            "ratio",
        ),
        "slra.final_gap.p50": (
            float(np.median([gap for _p, _c, gap in reports])) if reports else 0.0,
            "ratio",
        ),
        "matlib.compact_svd.calls": (per_task(calls.get("matlib.compact_svd", 0)), "count"),
        "matlib.compact_svd.s": (per_task(total.get("matlib.compact_svd", 0.0)), "s"),
        "matlib.compact_svd.gflop": (
            per_task(sum(_svd_gflop(rows, cols) for rows, cols in rec.svd_shapes)), "GFLOP"
        ),
        "matlib.rowspace_projector.calls": (
            per_task(calls.get("matlib.rowspace_projector", 0)), "count"
        ),
        "matlib.rowspace_projector.s": (
            per_task(total.get("matlib.rowspace_projector", 0.0)), "s"
        ),
        "matlib.pinv.s": (per_task(total.get("matlib.pinv", 0.0)), "s"),
        "hankel.partition.s": (per_task(total.get("hankel.partition", 0.0)), "s"),
        "hankel.hankel_project.calls": (per_task(calls.get("hankel.hankel_project", 0)), "count"),
        "hankel.hankel_project.s": (per_task(total.get("hankel.hankel_project", 0.0)), "s"),
        "plants.collect_trajectory.s": (
            per_task(total.get("plants.collect_trajectory", 0.0)), "s"
        ),
        "bench.make_instance.s": (per_task(total.get("bench.make_instance", 0.0)), "s"),
    })
    return m
