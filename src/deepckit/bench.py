"""Experiment harness: equivalence certification, Monte Carlo cost benchmarks,
hyperparameter sweeps, nonlinearity sweeps, and CSV/SVG emission.

Every command is deterministic given (config, master seed): trial i draws its
data from seed ``master + i`` and its online window from an independent salted
stream, and aggregation runs in trial-index order.  Wall-clock timings are the
one exception and are written to a separate ``timings.csv`` so the remaining
outputs stay byte-identical across reruns.

CLI::

    deepckit-bench equivalence|benchmark|sweep|nonlinearity [flags]

with ``--config`` pointing at a JSON file whose keys mirror
:class:`ExperimentConfig`; flags override file values.  The resolved config is
echoed into the output directory next to the results.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import qp
from . import variants as va
from .hankel import partition
from .matlib import numeric_rank
from .plants import (
    NoiseSpec,
    NonlinearPlant,
    PlantDiverged,
    collect_trajectory,
    rollout,
    seeded_generator,
    standard_normal,
    triple_mass_spring,
)

__all__ = [
    "ExperimentConfig",
    "BenchRow",
    "make_instance",
    "instance_scale",
    "cmd_equivalence",
    "cmd_benchmark",
    "cmd_sweep",
    "cmd_nonlinearity",
    "emit_svg",
    "main",
]

_ONLINE_SALT = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

VARIANT_CHOICES = tuple(va.VARIANTS)
DEFAULT_VARIANTS = ("hybrid", "svd", "ddspc", "svd-iter")
_FAIL_SENTINEL = float("nan")
# the solve options of every Monte Carlo run (benchmark, sweep)
_MC_SOLVE_OPTS = {"tol": 1e-9, "max_iter": 150, "accept_tol": 1e-6}
# XML text escapes for emit_svg (xml.sax.saxutils would import urllib.request)
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters; validated before any run."""

    plant: str = "triple-mass-spring"
    eps: float = 1.0
    T: int = 200
    t_ini: int = 4
    n_horizon: int = 40
    noise_var: float = 0.01
    lambda1: float = 30.0
    lambda2: float = 30.0
    lambda_y: float = 100.0
    q_scale: float = 1.0
    r_scale: float = 0.1
    u_min: float = -0.7
    u_max: float = 0.7
    trials: int = 100
    seed: int = 12345
    variants: tuple = DEFAULT_VARIANTS
    out_dir: str = "bench-out"
    slra_order: int | None = None
    slra_eps: float = 1e-6
    x0_scale: float = 2.0
    excitation_scale: float = 1.0

    def __post_init__(self):
        if self.plant not in ("triple-mass-spring", "lotka-volterra"):
            raise ValueError(f"unknown plant '{self.plant}'")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if self.t_ini < 1 or self.n_horizon < 1:
            raise ValueError("t_ini and n_horizon must be positive")
        if self.t_ini + self.n_horizon >= self.T:
            raise ValueError("t_ini + n_horizon must be smaller than T")
        if not np.isfinite([
            self.noise_var, self.lambda1, self.lambda2, self.lambda_y, self.u_min, self.u_max,
            self.q_scale, self.r_scale, self.x0_scale, self.excitation_scale,
        ]).all():
            raise ValueError("noise variance, lambdas, input box and scales must be finite")
        if min(self.noise_var, self.lambda1, self.lambda2, self.lambda_y, self.q_scale) < 0.0:
            raise ValueError("noise variance, lambdas and q_scale must be nonnegative")
        if min(self.r_scale, self.excitation_scale) <= 0.0:
            raise ValueError("r_scale and excitation_scale must be positive")
        if self.u_min > self.u_max:
            raise ValueError("u_min must not exceed u_max")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0.0 < self.slra_eps < np.inf:
            raise ValueError("slra_eps must be positive and finite")
        if self.slra_order is not None and self.slra_order < 1:
            raise ValueError("slra_order must be at least 1")
        self.variants = tuple(self.variants)
        for name in self.variants:
            if name not in VARIANT_CHOICES:
                raise ValueError(f"unknown variant '{name}'")
            if va.VARIANTS[name].slack and self.lambda_y <= 0.0:
                raise ValueError(f"{name} variant requires lambda_y > 0")

    def config_hash(self) -> str:
        """A hash of what the run computes; ``out_dir``, which only says where
        the run writes, is left out (``config.json`` still echoes it)."""
        fields = asdict(self)
        del fields["out_dir"]
        blob = json.dumps(fields, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    def echo(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "config.json", "w", encoding="ascii") as fh:
            json.dump(asdict(self), fh, sort_keys=True, indent=2)
            fh.write("\n")


@dataclass
class BenchRow:
    """Aggregate of one variant over all completed trials."""

    variant: str
    mean_cost: float
    increase_rate_pct: float
    mean_time_s: float
    trials: int
    failures: int


def _make_plant(cfg: ExperimentConfig):
    if cfg.plant == "triple-mass-spring":
        return triple_mass_spring()
    return NonlinearPlant(eps=cfg.eps)


def _make_spec(cfg: ExperimentConfig, plant) -> va.ControlSpec:
    m, p = plant.m, plant.p
    return va.ControlSpec(
        t_ini=cfg.t_ini,
        n_horizon=cfg.n_horizon,
        q_weight=cfg.q_scale * np.eye(p),
        r_weight=cfg.r_scale * np.eye(m),
        lambda1=cfg.lambda1,
        lambda2=cfg.lambda2,
        lambda_y=cfg.lambda_y,
        u_box=(np.full(m, cfg.u_min), np.full(m, cfg.u_max)),
    )


def make_instance(
    plant,
    *,
    T: int,
    t_ini: int,
    n_horizon: int,
    noise_var: float,
    u_lo,
    u_hi,
    seed: int,
    x0_scale: float = 1.0,
    excitation_scale: float = 1.0,
):
    """One seeded trial: offline library, online window, and the true state.

    Collects a length-T noisy trajectory (seeded ``seed``), then drives the
    plant from a random initial state (a Gaussian displacement of the measured
    coordinates, scaled by ``x0_scale``) for ``t_ini`` steps with fresh box
    excitation (independent salted stream) while measuring outputs with the
    same noise level.  Returns ``(lib, online, x_true)`` where ``x_true`` is
    the plant's internal state at decision time.
    """
    m, p = plant.m, plant.p
    u_lo = excitation_scale * np.broadcast_to(np.asarray(u_lo, dtype=float), (m,))
    u_hi = excitation_scale * np.broadcast_to(np.asarray(u_hi, dtype=float), (m,))
    traj = collect_trajectory(plant, T, (u_lo, u_hi), NoiseSpec(noise_var, seed))
    lib = partition(traj, t_ini, n_horizon)

    rng = seeded_generator((seed ^ _ONLINE_SALT) & _MASK64)
    # excite the measured coordinates only (C' z): disc angles for the
    # mass-spring chain, both error states for the predator-prey plant
    x = x0_scale * (plant.linear_model().c.T @ standard_normal(rng, p))
    u_ini = u_lo + (u_hi - u_lo) * rng.random((t_ini, m))
    w_ini = (
        np.sqrt(noise_var) * standard_normal(rng, (t_ini, p))
        if noise_var > 0.0
        else np.zeros((t_ini, p))
    )
    y_ini, x = rollout(plant, x, u_ini)
    online = va.OnlineData(u_ini=u_ini.ravel(), y_ini=(y_ini + w_ini).ravel())
    return lib, online, x


def _instance(cfg: ExperimentConfig, plant, trial: int, noise_var: float | None = None):
    """:func:`make_instance` for trial ``trial`` of ``cfg`` (seed ``cfg.seed + trial``)."""
    return make_instance(
        plant,
        T=cfg.T, t_ini=cfg.t_ini, n_horizon=cfg.n_horizon,
        noise_var=cfg.noise_var if noise_var is None else noise_var,
        u_lo=cfg.u_min, u_hi=cfg.u_max,
        seed=cfg.seed + trial, x0_scale=cfg.x0_scale,
        excitation_scale=cfg.excitation_scale,
    )


def _solve_variant(name, plant, instance, spec, cfg, caches, **solve_opts):
    """Solve one controller on one instance ``(lib, online, x_true)``.

    ``"ground-truth"`` solves the plant's linear model from the true state.  A
    variant is looked up in :data:`deepckit.variants.VARIANTS`; its library is
    pre-processed at most once per ``caches`` dict (one per instance and
    regime).  Both functions are resolved as module attributes at call time,
    so a wrapped attribute is the one that runs.
    """
    lib, online, x_true = instance
    if name == "ground-truth":
        return va.solve_ground_truth(plant.linear_model(), x_true, spec, **solve_opts)
    variant = va.VARIANTS[name]
    key = variant.preprocess
    if key is not None and key not in caches:
        if variant.provenance == "slra-svd":  # the denoiser's order defaults to the plant's
            order = plant.n if cfg.slra_order is None else cfg.slra_order
            caches[key] = getattr(va, key)(lib, order, eps=cfg.slra_eps)
        else:
            caches[key] = getattr(va, key)(lib)
    return getattr(va, variant.solver)(caches.get(key, lib), online, spec, **solve_opts)


def _write_csv(path: Path, cfg: ExperimentConfig, command: str, header, rows):
    """CSV with a leading comment naming the command, config hash, and units."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            f"# deepckit-bench {command}; config_hash={cfg.config_hash()}; "
            "units: cost=weighted squared output, time=s, deviations=max abs\n"
        )
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [
                f"{v:.17g}" if isinstance(v, float) else str(v) for v in row
            ]
            fh.write(",".join(cells) + "\n")


# ---------------------------------------------------------------------------
# equivalence certification
# ---------------------------------------------------------------------------

EQUIVALENCE_TOLERANCES = {
    "fact1": 1e-6,
    "theorem2": 1e-5,
    "theorem3": 1e-4,
    "theorem1": 1e-6,
}


def _deviation(sol_a, sol_b, with_sigma: bool) -> tuple[float, float, float]:
    du = float(np.max(np.abs(sol_a.u - sol_b.u)))
    dy = float(np.max(np.abs(sol_a.y_pred - sol_b.y_pred)))
    ds = (
        float(np.max(np.abs(sol_a.sigma_y - sol_b.sigma_y))) if with_sigma else 0.0
    )
    return du, dy, ds


def instance_scale(lib, online, spec) -> float:
    """Spectral norm of the assembled quadratic term, for scaling lambda2."""
    red = qp.assemble_reduced(
        lib.up, lib.yp, lib.uf, lib.yf,
        online.u_ini, online.y_ini,
        spec.r_bar(), spec.q_bar(), spec.y_ref_vec(),
        lambda_y=spec.lambda_y,
    )
    return max(1.0, float(np.linalg.norm(red.qp.p_mat, 2)) / 2.0)


def cmd_equivalence(cfg: ExperimentConfig) -> tuple[Path, bool]:
    """Certify the cross-variant agreement regimes; nonzero exit on violation.

    Four regimes are run on identical seeded instances: noise-free data with
    both regularizers off and the slack suppressed (all variants against the
    model-based controller), the hybrid/svd pair for any positive ridge, the
    large-ridge regime adding the projected-library variant, and the
    projected-library variant against the least-squares subspace predictor.
    """
    plant = _make_plant(cfg)
    base = _make_spec(cfg, plant)
    out_dir = Path(cfg.out_dir)
    cfg.echo(out_dir)
    rows = []

    def certify(kind, trial, instance, named_specs, with_sigma, **opts):
        """Solve one regime on one instance; record the failure or every pairwise deviation."""
        regime, tolerance = f"{kind}[{trial}]", EQUIVALENCE_TOLERANCES[kind]
        caches: dict = {}
        try:
            sols = {
                name: _solve_variant(name, plant, instance, spec, cfg, caches, **opts)
                for name, spec in named_specs
            }
        except va.VariantError as err:
            rows.append((regime, f"{err.variant} failed", *[np.inf] * 3, tolerance, 0))
            return
        for a, b in itertools.combinations(sols, 2):
            devs = _deviation(sols[a], sols[b], with_sigma)
            rows.append((regime, f"{a}|{b}", *devs, tolerance, int(max(devs) <= tolerance)))

    # regime 1: noise-free, lambda1 = lambda2 = 0, slack suppressed (the 1e14
    # weight keeps the modeling gap << 1e-6)
    spec_f1 = replace(base, lambda1=0.0, lambda2=0.0, lambda_y=1e14)
    fact1 = ("ground-truth", "basic", "hybrid", "svd", "ddspc", "svd-iter")
    for trial in range(min(cfg.trials, 3)):
        certify(
            "fact1", trial, _instance(cfg, plant, trial, noise_var=0.0),
            [(name, spec_f1) for name in fact1], False,
            tol=1e-11, max_iter=200, accept_tol=1e-9,
        )

    # noisy instances shared by the remaining regimes
    noisy = [_instance(cfg, plant, trial) for trial in range(cfg.trials)]
    spec_plain = replace(base, lambda1=0.0, lambda2=0.0, lambda_y=100.0)

    # regime 2: lambda1 = 0, any lambda2 > 0 -- hybrid vs svd
    spec_t2 = replace(spec_plain, lambda2=30.0)
    for trial, instance in enumerate(noisy):
        certify(
            "theorem2", trial, instance, [("hybrid", spec_t2), ("svd", spec_t2)], True,
            tol=1e-10, max_iter=200, accept_tol=1e-8,
        )

    # regime 3: large lambda2 adds the projected-library variant
    for trial, instance in enumerate(noisy):
        scale = instance_scale(instance[0], instance[1], spec_plain)
        spec_t3 = replace(spec_plain, lambda2=1e4 * scale)
        certify(
            "theorem3", trial, instance,
            [("hybrid", spec_t3), ("svd", spec_t3), ("ddspc", spec_plain)], True,
            tol=1e-11, max_iter=200, accept_tol=1e-7,
        )

    # regime 4: projected library vs least-squares subspace predictor
    for trial, instance in enumerate(noisy):
        h1 = va.stack_past_inputs(instance[0])
        if numeric_rank(h1) < h1.shape[0]:
            tolerance = EQUIVALENCE_TOLERANCES["theorem1"]
            rows.append((f"theorem1[{trial}]", "H1 rank-deficient", *[np.inf] * 3, tolerance, 0))
            continue
        certify(
            "theorem1", trial, instance, [("ddspc", spec_plain), ("spc", spec_plain)], True,
            tol=1e-11, max_iter=200, accept_tol=1e-9,
        )

    path = out_dir / "equivalence.csv"
    _write_csv(
        path, cfg, "equivalence",
        ["regime", "pair", "max_du", "max_dy", "max_dsigma", "tolerance", "pass"],
        rows,
    )
    return path, all(row[-1] for row in rows)


# ---------------------------------------------------------------------------
# Monte Carlo benchmark
# ---------------------------------------------------------------------------

def _run_trials(cfg: ExperimentConfig, plant, spec, variant_names):
    """Per-trial realized costs and solve times for each variant plus ground
    truth; a failed solve or a plant that diverged under its inputs costs NaN."""
    costs = {name: [] for name in ("ground-truth", *variant_names)}
    times = {name: [] for name in costs}
    first_traj: dict = {}
    for trial in range(cfg.trials):
        instance = _instance(cfg, plant, trial)
        x_true = instance[2]
        caches: dict = {}
        for name in costs:
            t0 = time.perf_counter()
            try:
                sol = _solve_variant(name, plant, instance, spec, cfg, caches, **_MC_SOLVE_OPTS)
            except va.VariantError:
                costs[name].append(_FAIL_SENTINEL)
                times[name].append(time.perf_counter() - t0)
                continue
            times[name].append(time.perf_counter() - t0)
            try:
                cost = va.realized_cost(plant, x_true, sol.u, spec)
            except PlantDiverged:
                cost = _FAIL_SENTINEL
            costs[name].append(cost)
            if trial == 0 and np.isfinite(cost):
                # true outputs under the applied inputs, for the trajectory plot
                u_seq = sol.u.reshape(spec.n_horizon, spec.m)
                first_traj[name] = rollout(plant, x_true, u_seq)[0]
    return costs, times, first_traj


def _aggregate(costs, times, trials) -> list[BenchRow]:
    """One row per variant; a trial without a finite cost counts as a failure."""
    gt_mean = mean_val([c for c in costs["ground-truth"] if np.isfinite(c)])
    rows = []
    for name in costs:
        done = [c for c in costs[name] if np.isfinite(c)]
        mean = mean_val(done)
        if np.isfinite(mean) and np.isfinite(gt_mean) and gt_mean != 0.0:
            rate = 100.0 * (mean - gt_mean) / gt_mean
        else:
            rate = float("nan")
        rows.append(
            BenchRow(
                variant=name,
                mean_cost=mean,
                increase_rate_pct=rate,
                mean_time_s=mean_val(times[name]),
                trials=trials,
                failures=trials - len(done),
            )
        )
    return rows


def mean_val(vals) -> float:
    return float(np.mean(vals)) if vals else float("nan")


def cmd_benchmark(cfg: ExperimentConfig) -> tuple[Path, list[BenchRow]]:
    """Monte Carlo realized-cost comparison across variants (plus ground truth).

    Writes ``benchmark.csv`` (deterministic), ``timings.csv`` (wall-clock,
    excluded from the determinism guarantee), and a representative open-loop
    trajectory overlay as SVG.
    """
    plant = _make_plant(cfg)
    spec = _make_spec(cfg, plant)
    out_dir = Path(cfg.out_dir)
    cfg.echo(out_dir)
    costs, times, first_traj = _run_trials(cfg, plant, spec, cfg.variants)
    rows = _aggregate(costs, times, cfg.trials)
    path = out_dir / "benchmark.csv"
    _write_csv(
        path, cfg, "benchmark",
        ["variant", "mean_cost", "increase_rate_pct", "trials", "failures"],
        [(r.variant, r.mean_cost, r.increase_rate_pct, r.trials, r.failures) for r in rows],
    )
    _write_csv(
        out_dir / "timings.csv", cfg, "benchmark",
        ["variant", "mean_time_s"],
        [(r.variant, r.mean_time_s) for r in rows],
    )
    channel = min(1, spec.p - 1)
    series = [
        (name, np.arange(spec.n_horizon, dtype=float), traj[:, channel])
        for name, traj in first_traj.items()
    ]
    emit_svg(
        series,
        out_dir / "trajectory.svg",
        title=f"open-loop output channel {channel + 1} (trial 0)",
        x_label="step",
        y_label="output",
    )
    return path, rows


# ---------------------------------------------------------------------------
# hyperparameter sweep
# ---------------------------------------------------------------------------

def cmd_sweep(cfg: ExperimentConfig, lambda1_grid, lambda2_grid) -> Path:
    """Realized cost per (variant, lambda1, lambda2) cell on one fixed seeded instance.

    The slack weight is the config's ``lambda_y``; variants without one of the
    knobs are still evaluated on every cell (their cost is constant along that axis).
    Failures are recorded as NaN sentinels.
    """
    lambda1_grid = [float(v) for v in lambda1_grid]
    lambda2_grid = [float(v) for v in lambda2_grid]
    if not (lambda1_grid and lambda2_grid and all(
            0.0 <= v < np.inf for v in lambda1_grid + lambda2_grid)):
        raise ValueError("lambda grids must be nonempty, finite and nonnegative")
    plant = _make_plant(cfg)
    out_dir = Path(cfg.out_dir)
    cfg.echo(out_dir)
    instance = _instance(cfg, plant, 0)
    base = _make_spec(cfg, plant)
    caches: dict = {}
    rows = []
    for name in cfg.variants:
        for lam1 in lambda1_grid:
            for lam2 in lambda2_grid:
                spec = replace(base, lambda1=lam1, lambda2=lam2)
                try:
                    sol = _solve_variant(
                        name, plant, instance, spec, cfg, caches, **_MC_SOLVE_OPTS
                    )
                    cost = va.realized_cost(plant, instance[2], sol.u, spec)
                except (va.VariantError, PlantDiverged):
                    cost = _FAIL_SENTINEL
                rows.append((name, lam1, lam2, cost))
    path = out_dir / "sweep.csv"
    _write_csv(
        path, cfg, "sweep",
        ["variant", "lambda1", "lambda2", "realized_cost"], rows,
    )
    return path


# ---------------------------------------------------------------------------
# nonlinearity sweep
# ---------------------------------------------------------------------------

def cmd_nonlinearity(cfg: ExperimentConfig, eps_list) -> Path:
    """Monte Carlo benchmark on the interpolated error dynamics for each eps.

    Uses the nonlinear-study parameter block (T=300, horizon 60, past window
    4, Q=I, R=0.5 I, inputs in [-20, 20], lambdas (300, 100, 1e4), denoiser
    model order 2) regardless of the config's plant-specific values; trials,
    seed, and noise variance come from the config.  The ground-truth row uses
    the linearized model (exact at eps=1, a fixed-linearization baseline
    below).
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(not 0.0 <= e <= 1.0 for e in eps_list):
        raise ValueError("eps values must lie in [0, 1]")
    out_dir = Path(cfg.out_dir)
    rows = []
    base = replace(
        cfg,
        plant="lotka-volterra",
        T=300,
        t_ini=4,
        n_horizon=60,
        lambda1=300.0,
        lambda2=100.0,
        lambda_y=1e4,
        q_scale=1.0,
        r_scale=0.5,
        u_min=-20.0,
        u_max=20.0,
        slra_order=2,
        excitation_scale=0.1,
    )
    base.echo(out_dir)
    for eps in eps_list:
        cfg_eps = replace(base, eps=eps)
        plant = _make_plant(cfg_eps)
        spec = _make_spec(cfg_eps, plant)
        costs, times, _ = _run_trials(cfg_eps, plant, spec, cfg_eps.variants)
        for r in _aggregate(costs, times, cfg_eps.trials):
            rows.append((eps, r.variant, r.mean_cost, r.trials - r.failures, r.failures))
    path = out_dir / "nonlinearity.csv"
    _write_csv(
        path, base, "nonlinearity",
        ["eps", "variant", "mean_cost", "completed", "failures"], rows,
    )
    return path


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728",
    "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
)


def emit_svg(series, path, title: str = "", x_label: str = "", y_label: str = "") -> None:
    """Write a standalone SVG line chart: axes, ticks, legend, one polyline per series.

    ``series`` is an iterable of ``(name, x, y)`` with finite, equal-length
    arrays.  An empty list still yields a valid SVG with axes only.  Title,
    labels and series names are XML-escaped.
    """
    title, x_label, y_label = (text.translate(_XML_TEXT) for text in (title, x_label, y_label))
    width, height = 800.0, 500.0
    ml, mr, mt, mb = 70.0, 170.0, 45.0, 55.0
    plot_w = width - ml - mr
    plot_h = height - mt - mb

    cleaned = []
    for name, xs, ys in series:
        xs = np.asarray(xs, dtype=float).ravel()
        ys = np.asarray(ys, dtype=float).ravel()
        if xs.size != ys.size:
            raise ValueError(f"series '{name}' has mismatched lengths")
        if xs.size and not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise ValueError(f"series '{name}' contains non-finite values")
        cleaned.append((str(name).translate(_XML_TEXT), xs, ys))

    if any(xs.size for _, xs, _ in cleaned):
        x_min = min(float(xs.min()) for _, xs, _ in cleaned if xs.size)
        x_max = max(float(xs.max()) for _, xs, _ in cleaned if xs.size)
        y_min = min(float(ys.min()) for _, _, ys in cleaned if ys.size)
        y_max = max(float(ys.max()) for _, _, ys in cleaned if ys.size)
    else:
        x_min, x_max, y_min, y_max = 0.0, 1.0, 0.0, 1.0
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def sx(v):
        return ml + (v - x_min) / (x_max - x_min) * plot_w

    def sy(v):
        return mt + (y_max - v) / (y_max - y_min) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{ml:.1f}" y1="{mt + plot_h:.1f}" x2="{ml + plot_w:.1f}" '
        f'y2="{mt + plot_h:.1f}" stroke="black"/>',
        f'<line x1="{ml:.1f}" y1="{mt:.1f}" x2="{ml:.1f}" y2="{mt + plot_h:.1f}" '
        'stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{ml + plot_w / 2:.1f}" y="{mt - 15:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{ml + plot_w / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="18" y="{mt + plot_h / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {mt + plot_h / 2:.1f})">{y_label}</text>'
        )
    for frac in np.linspace(0.0, 1.0, 5):
        xv = x_min + frac * (x_max - x_min)
        yv = y_min + frac * (y_max - y_min)
        parts.append(
            f'<line x1="{sx(xv):.1f}" y1="{mt + plot_h:.1f}" x2="{sx(xv):.1f}" '
            f'y2="{mt + plot_h + 5:.1f}" stroke="black"/>'
            f'<text x="{sx(xv):.1f}" y="{mt + plot_h + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<line x1="{ml - 5:.1f}" y1="{sy(yv):.1f}" x2="{ml:.1f}" y2="{sy(yv):.1f}" '
            f'stroke="black"/>'
            f'<text x="{ml - 9:.1f}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    for i, (name, xs, ys) in enumerate(cleaned):
        color = _PALETTE[i % len(_PALETTE)]
        if xs.size:
            pts = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>'
            )
        ly = mt + 18 + 20 * i
        parts.append(
            f'<line x1="{ml + plot_w + 12:.1f}" y1="{ly:.1f}" '
            f'x2="{ml + plot_w + 36:.1f}" y2="{ly:.1f}" stroke="{color}" '
            'stroke-width="2"/>'
            f'<text x="{ml + plot_w + 42:.1f}" y="{ly + 4:.1f}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="JSON config file (keys mirror ExperimentConfig)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--out", dest="out_dir")
    sp.add_argument("--variants", help="comma-separated variant names")
    sp.add_argument("--lambda1", type=float)
    sp.add_argument("--lambda2", type=float)
    sp.add_argument("--lambday", dest="lambda_y", type=float)
    sp.add_argument("--noise-var", dest="noise_var", type=float)
    sp.add_argument("--plant", choices=("triple-mass-spring", "lotka-volterra"))
    sp.add_argument("--eps", help="interpolation weight(s); comma list for nonlinearity")


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        with open(args.config, "r", encoding="ascii") as fh:
            values.update(json.load(fh))
    for key in (
        "seed", "trials", "out_dir", "lambda1", "lambda2", "lambda_y",
        "noise_var", "plant",
    ):
        val = getattr(args, key, None)
        if val is not None:
            values[key] = val
    if args.variants:
        values["variants"] = tuple(v.strip() for v in args.variants.split(","))
    if args.eps and args.command != "nonlinearity":
        values["eps"] = float(args.eps)
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="deepckit-bench",
        description="Equivalence certification and cost benchmarks for the "
        "trajectory-library controller variants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("equivalence", "certify cross-variant agreement regimes"),
        ("benchmark", "Monte Carlo realized-cost comparison"),
        ("sweep", "lambda1 x lambda2 realized-cost surface"),
        ("nonlinearity", "cost vs nonlinearity interpolation weight"),
    ):
        sp = sub.add_parser(name, help=blurb)
        _add_common(sp)
        if name == "sweep":
            sp.add_argument("--lambda1-grid", default="1e-5,1e-2,1e1,1e4")
            sp.add_argument("--lambda2-grid", default="1e-5,1e-2,1e1,1e4")
    args = parser.parse_args(argv)
    cfg = _resolve_config(args)

    if args.command == "equivalence":
        path, ok = cmd_equivalence(cfg)
        print(f"wrote {path}")
        return 0 if ok else 1
    if args.command == "benchmark":
        path, rows = cmd_benchmark(cfg)
        for row in rows:
            print(
                f"{row.variant:>14s}: mean cost {row.mean_cost:10.3f}  "
                f"(+{row.increase_rate_pct:.1f}% vs ground truth, "
                f"{row.failures} failures)"
            )
        print(f"wrote {path}")
        return 0
    if args.command == "sweep":
        grid1 = [float(v) for v in args.lambda1_grid.split(",")]
        grid2 = [float(v) for v in args.lambda2_grid.split(",")]
        path = cmd_sweep(cfg, grid1, grid2)
        print(f"wrote {path}")
        return 0
    if args.command == "nonlinearity":
        eps_list = [float(v) for v in (args.eps or "0,0.25,0.5,0.75,1").split(",")]
        path = cmd_nonlinearity(cfg, eps_list)
        print(f"wrote {path}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
