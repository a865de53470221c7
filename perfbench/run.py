#!/usr/bin/env python3
"""deepckit benchmark: closed-loop, single-process workloads with BLAS at one thread.

Run from the repository root::

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` runs tasks back to back for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs the same workload traced for half the
time, reruns the same tasks untraced, checks that both runs wrote identical
outputs, and reports the per-module metrics and the tracing overhead.  Both
check every task's outputs.  A report goes to standard output, followed by a
last line holding one JSON object; the full record, and the spans of a traced
run, are written under ``.perfbench/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process or its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 9
TAIL_MIN_BEYOND = 10
TAIL_FLOOR_PCT = 75.0


@dataclass
class TaskResult:
    index: int
    seed: int
    seconds: float
    digest: str
    attempted: int
    failures: dict = field(default_factory=dict)  # reason -> count


@dataclass
class PassResult:
    tasks: list
    elapsed: float
    recorder: object
    records: list
    outputs: list


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def setup_probe(workload_name: str) -> int:
    """Child process: import, validate, build the plant, then print the ready time."""
    from workloads import WORKLOADS

    WORKLOADS[workload_name].setup()
    print(repr(time.perf_counter()))
    return 0


def measure_setup(workload_name: str) -> list:
    """Seconds from process start to first task ready, once per probe process.

    ``time.perf_counter`` reads the system-wide monotonic clock on Linux, so
    the child's ready time and the parent's spawn time are comparable.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def blas_threads() -> dict:
    """Thread count reported by every OpenBLAS library loaded in this process."""
    import ctypes

    libs = set()
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    threads = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def read_loadavg() -> str:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return fh.read().strip()


def machine_facts() -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    for mod in (np, scipy):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[mod.__name__] = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def run_pass(workload, seed, out_dir, *, trace, seconds=None, n_tasks=None) -> PassResult:
    """Closed loop: start the next task when the previous one has ended.

    Runs until ``seconds`` have passed and a whole cycle of the workload's
    task kinds is done, or, when ``n_tasks`` is given, exactly that many tasks.
    """
    from instrument import Recorder
    from workloads import check_operations

    rec = Recorder(trace)
    rec.install()
    tasks, records, outputs = [], [], []
    start = time.perf_counter()
    end = start
    try:
        index = 0
        while (index < n_tasks) if n_tasks is not None else (
            end - start < seconds or index % workload.cycle
        ):
            rec.begin_task(index)
            t0 = time.perf_counter()
            failures: dict = {}
            output = None
            try:
                output = workload.run(seed + index, index, out_dir)
            except Exception as err:  # noqa: BLE001 -- a task that raises fails; the run goes on
                traceback.print_exc(file=sys.stderr)
                failures[f"task_exception:{type(err).__name__}"] = 1
            t1 = time.perf_counter()
            record = rec.end_task()
            check_operations(record)
            attempted = len(record.ops) + 1 if output is None else len(record.ops)
            if output is not None:
                for reason, count in workload.check(index, output, record):
                    failures[reason] = failures.get(reason, 0) + count
                attempted += len(output.rows)
            for op in record.ops:
                if op.failure is not None:
                    failures[op.failure] = failures.get(op.failure, 0) + 1
            record.compact()
            digest = file_digest(output.csvs) if output is not None else "none"
            tasks.append(TaskResult(index, seed + index, t1 - t0, digest, attempted, failures))
            records.append(record)
            outputs.append(output)
            index += 1
            end = time.perf_counter()
    finally:
        rec.uninstall()
    return PassResult(tasks, end - start, rec, records, outputs)


def tail(times: list) -> tuple:
    """The highest percentile with TAIL_MIN_BEYOND tasks beyond it, but not below p75.

    Returns (value, percentile, tasks beyond the value).
    """
    import numpy as np

    n = len(times)
    pct = max(TAIL_FLOOR_PCT, 100.0 * (n - TAIL_MIN_BEYOND) / n)
    value = float(np.percentile(times, pct))
    return value, pct, sum(t > value for t in times)


def self_check(workload, pass_result) -> list:
    """Traced call counts against the counts each task implies; returns mismatches."""
    from instrument import SOLVERS, span_counts

    counts = span_counts(pass_result.recorder)
    problems = []
    for task, output, record in zip(pass_result.tasks, pass_result.outputs,
                                    pass_result.records):
        def got(name):
            return counts.get((task.index, name), 0)

        solves = sum(got(f"variants.{fn}") for fn in SOLVERS)
        if got("qp.solve") != solves:
            problems.append(f"task {task.index}: qp.solve {got('qp.solve')} != "
                            f"variant solves {solves}")
        if got("slra.iterative_slra") != got("variants.preprocess_svd_iter"):
            problems.append(f"task {task.index}: slra.iterative_slra != "
                            "variants.preprocess_svd_iter")
        passes = sum(p for p, _converged, _gap in record.slra_reports)
        if got("hankel.hankel_project") != passes:
            problems.append(f"task {task.index}: hankel.hankel_project "
                            f"{got('hankel.hankel_project')} != denoiser passes {passes}")
        expected = workload.expected_calls(task.index, output, record) if output else None
        for name, want in (expected or {}).items():
            if got(name) != want:
                problems.append(f"task {task.index}: {name} traced {got(name)}, expected {want}")
    return problems


def write_spans(path: Path, rec, t_ref: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent, task in rec.spans:
            fh.write(json.dumps({"name": name, "start": start - t_ref, "end": end - t_ref,
                                 "parent": parent, "task": task}) + "\n")


def summarize_failures(passes) -> tuple:
    attempted = sum(t.attempted for p in passes for t in p.tasks)
    reasons: dict = {}
    for p in passes:
        for t in p.tasks:
            for reason, count in t.failures.items():
                reasons[reason] = reasons.get(reason, 0) + count
    return attempted, sum(reasons.values()), reasons


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "deepckit" / "__init__.py").is_file():
        print(f"error: deepckit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload)

    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        declared = json.load(fh)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'", file=sys.stderr)
        return 2

    load_before = read_loadavg()
    setup_samples = measure_setup(args.workload)

    workload = WORKLOADS[args.workload]
    workload.setup()
    facts = machine_facts()
    if any(n != 1 for n in facts["blas_threads"].values()):
        print(f"error: BLAS not pinned to one thread: {facts['blas_threads']}", file=sys.stderr)
        return 1
    out_dir = OUT / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    problems = []
    t_ref = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.trace:
            traced = run_pass(workload, args.seed, out_dir, trace=True,
                              seconds=args.seconds / 2)
            plain = run_pass(workload, args.seed, out_dir, trace=False,
                             n_tasks=len(traced.tasks))
            passes = [traced, plain]
            for a, b in zip(traced.tasks, plain.tasks):
                if a.digest != b.digest:
                    problems.append(f"task {a.index}: traced digest {a.digest[:12]} != "
                                    f"untraced {b.digest[:12]}")
            problems += self_check(workload, traced)
        else:
            plain = run_pass(workload, args.seed, out_dir, trace=False, seconds=args.seconds)
            passes = [plain]
    warning_counts: dict = {}
    warning_examples: dict = {}
    for w in caught:
        cat = w.category.__name__
        warning_counts[cat] = warning_counts.get(cat, 0) + 1
        warning_examples.setdefault(cat, f"{w.filename}:{w.lineno}: {w.message}")
    load_after = read_loadavg()

    attempted, failed, reasons = summarize_failures(passes)
    times = [t.seconds for t in plain.tasks]
    digests = [t.digest for t in plain.tasks]
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    first4 = hashlib.sha256("".join(digests[:4]).encode()).hexdigest()

    if args.trace:
        from instrument import layer_metrics

        metrics = layer_metrics(traced.recorder, traced.records, len(traced.tasks))
        ratio = (len(traced.tasks) / traced.elapsed) / (len(plain.tasks) / plain.elapsed)
        metrics["trace.tasks_per_s_ratio"] = (ratio, "ratio")
        wanted = declared["per_layer"]
        tail_info = None
        write_spans(OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl",
                    traced.recorder, t_ref)
    else:
        value, pct, beyond = tail(times)
        tail_info = {"percentile": pct, "tasks": len(times), "beyond": beyond}
        metrics = {
            "tasks_per_s": (len(times) / plain.elapsed, "1/s"),
            "task_s.p50": (statistics.median(times), "s"),
            "task_s.tail": (value, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        wanted = declared["end_to_end"]
    names = [m["name"] for m in wanted]
    missing = sorted(set(names) - set(metrics))
    if missing:
        problems.append(f"declared metrics {missing} were not computed")

    from workloads import SILENT_FAILURES

    correct = not problems and not SILENT_FAILURES.intersection(reasons)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "setup_samples_s": setup_samples,
        "tasks": len(times),
        "task_seconds": times,
        "traced_task_seconds": [t.seconds for t in traced.tasks] if args.trace else None,
        "tail": tail_info,
        "digest": run_digest,
        "digest_first4": first4,
        "task_digests": digests,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failure_reasons": reasons,
        "warnings": warning_counts,
        "warning_examples": warning_examples,
        "aliases_wrapped": passes[0].recorder.aliases,
        "problems": problems,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results_path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")

    better = {m["name"]: m.get("better", "") for m in wanted}
    print(f"# deepckit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} tasks={len(times)}")
    print(f"# machine: {facts['cpu_model']}, nproc={facts['nproc']}, "
          f"python {facts['python']}, numpy {facts['numpy']}, scipy {facts['scipy']}, "
          f"blas {facts['blas']} threads {facts['blas_threads']}")
    print(f"# loadavg before: {load_before}; after: {load_after}")
    for name in names:
        value, unit = metrics.get(name, (float("nan"), "?"))
        direction = f" ({better[name]} is better)" if better[name] else ""
        print(f"{name} = {value!r} {unit}{direction}")
    if tail_info:
        print(f"# task_s.tail is p{tail_info['percentile']:g} of {tail_info['tasks']} tasks "
              f"({tail_info['beyond']} beyond it)")
    if args.trace:
        print(f"# tracing overhead: traced/untraced tasks_per_s = "
              f"{metrics['trace.tasks_per_s_ratio'][0]:.4f}")
    print(f"# failed_ratio = {failed}/{attempted} = {failed / attempted!r}; "
          f"reasons: {reasons or 'none'}")
    print(f"# warnings reaching the benchmark: {warning_counts or 'none'}")
    for cat, example in warning_examples.items():
        print(f"#   {cat}: {example}", file=sys.stderr)
    print(f"# output digest ({len(digests)} tasks): {run_digest}; first 4 tasks: {first4}")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    print(f"# full record: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
