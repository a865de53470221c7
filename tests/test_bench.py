import importlib.util
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from deepckit import bench, qp
from deepckit import variants as va
from deepckit.plants import (
    NonlinearPlant,
    PlantDiverged,
    lv_step,
    seeded_generator,
    standard_normal,
)


def fast_config(tmp_path, **overrides):
    """Desk-scale config so harness tests stay quick."""
    values = dict(
        T=60,
        t_ini=2,
        n_horizon=8,
        trials=2,
        seed=424242,
        out_dir=str(tmp_path / "out"),
        variants=("hybrid", "svd"),
        noise_var=0.01,
        slra_order=8,
    )
    values.update(overrides)
    return bench.ExperimentConfig(**values)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            bench.ExperimentConfig(trials=0)
        with pytest.raises(ValueError):
            bench.ExperimentConfig(plant="unknown")
        with pytest.raises(ValueError):
            bench.ExperimentConfig(variants=("nope",))
        with pytest.raises(ValueError):
            bench.ExperimentConfig(T=40, t_ini=4, n_horizon=40)

    def test_slack_variants_need_positive_lambda_y(self, tmp_path):
        # rejected up front, not in the first trial after config.json is written
        with pytest.raises(ValueError, match="hybrid variant requires lambda_y > 0"):
            bench.ExperimentConfig(lambda_y=0.0)
        with pytest.raises(ValueError, match="spc variant requires lambda_y > 0"):
            fast_config(tmp_path, variants=("basic", "spc"), lambda_y=0.0)
        assert fast_config(tmp_path, variants=("basic",), lambda_y=0.0).lambda_y == 0.0

    def test_denoiser_settings_validated_up_front(self, tmp_path):
        # rejected before config.json is written, not in svd-iter's preprocessing
        for eps in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError, match="slra_eps must be positive"):
                fast_config(tmp_path, slra_eps=eps)
        for order in (0, -2):
            with pytest.raises(ValueError, match="slra_order must be at least 1"):
                fast_config(tmp_path, slra_order=order)
        assert not (tmp_path / "out").exists()
        assert fast_config(tmp_path, slra_order=None).slra_order is None
        assert fast_config(tmp_path, slra_order=1, slra_eps=1e-3).slra_order == 1

    @pytest.mark.parametrize("field, value", [
        *((name, bad) for name in (
            "noise_var", "lambda1", "lambda2", "lambda_y", "u_min", "u_max",
            "q_scale", "r_scale", "x0_scale", "excitation_scale",
        ) for bad in (float("nan"), float("inf"))),
        ("q_scale", -1.0), ("r_scale", 0.0), ("r_scale", -0.1), ("excitation_scale", -1.0),
        # each of these wrote config.json and then raised TypeError, or ran
        # something else ("hybrid" was iterated by character)
        ("t_ini", 4.0), ("T", 200.0), ("seed", 1.5), ("slra_order", 2.5), ("n_horizon", "8"),
        ("variants", "hybrid"), ("eps", "0.5"), ("lambda1", True), ("out_dir", 5),
    ])
    def test_bad_value_rejected_before_config_json(self, tmp_path, field, value):
        values = {**asdict(fast_config(tmp_path)), field: value}
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(values))  # json writes NaN and Infinity
        with pytest.raises(ValueError, match="must be"):
            bench.main(["benchmark", "--config", str(config), "--trials", "1"])
        assert not (tmp_path / "out" / "config.json").exists()

    def test_integer_fields(self, tmp_path):
        # json reads true as True, which is 1 to Python: it ran one trial and
        # echoed true
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**asdict(fast_config(tmp_path)), "trials": True}))
        with pytest.raises(ValueError, match="trials must be an integer, got True"):
            bench.main(["benchmark", "--config", str(config)])
        assert not (tmp_path / "out" / "config.json").exists()
        # numpy integers are integers, and are echoed as JSON numbers
        cfg = fast_config(tmp_path, trials=np.int64(3), slra_order=np.int32(4))
        assert (type(cfg.trials), cfg.trials, type(cfg.slra_order)) == (int, 3, int)
        cfg.echo(tmp_path / "echo")
        assert json.loads((tmp_path / "echo" / "config.json").read_text())["trials"] == 3

    @pytest.mark.parametrize("content, message", [
        ('{"T": 60, "horizon": 8, "seeds": 1}', "unknown config keys: horizon, seeds"),
        ("[60, 8]", "a config file must be a JSON object"),
    ])
    def test_bad_config_file_rejected_before_config_json(self, tmp_path, content, message):
        # these raised TypeError from the dataclass or from dict.update
        config = tmp_path / "bad.json"
        config.write_text(content)
        with pytest.raises(ValueError, match=message):
            bench.main(["benchmark", "--config", str(config), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out" / "config.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("t_ini", 0), ("n_horizon", 0), ("slra_eps", float("inf")),
    ])
    def test_bad_window_rejected_before_sweep_writes_config_json(self, tmp_path, field, value):
        # these used to be caught only after config.json was written
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({**asdict(fast_config(tmp_path)), field: value}))
        with pytest.raises(ValueError, match="must be positive"):
            bench.main(["sweep", "--config", str(config)])
        assert not (tmp_path / "out" / "config.json").exists()

    @pytest.mark.parametrize("grid", ["-1", "nan", "inf", "1e-2,inf"])
    def test_bad_sweep_grid_rejected_before_config_json(self, tmp_path, grid):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(asdict(fast_config(tmp_path))))
        with pytest.raises(ValueError, match="lambda grids must be nonempty, finite"):
            bench.main(["sweep", "--config", str(config), f"--lambda1-grid={grid}"])
        assert not (tmp_path / "out" / "config.json").exists()

    def test_echo_and_hash(self, tmp_path):
        cfg = fast_config(tmp_path)
        cfg.echo(tmp_path / "out")
        data = json.loads((tmp_path / "out" / "config.json").read_text())
        assert data["seed"] == 424242
        assert len(cfg.config_hash()) == 12
        assert cfg.config_hash() == fast_config(tmp_path).config_hash()
        assert cfg.config_hash() != fast_config(tmp_path, seed=1).config_hash()

    def test_hash_ignores_out_dir(self, tmp_path):
        # two checkouts writing the same run to different places get one hash
        cfg = fast_config(tmp_path)
        moved = replace(cfg, out_dir=str(tmp_path / "elsewhere"))
        assert moved.config_hash() == cfg.config_hash()
        moved.echo(tmp_path / "echo")
        data = json.loads((tmp_path / "echo" / "config.json").read_text())
        assert data["out_dir"] == moved.out_dir


class TestMakeInstance:
    def test_deterministic(self, small_plant):
        a = bench.make_instance(small_plant, T=60, t_ini=2, n_horizon=8,
                                noise_var=0.01, u_lo=-1, u_hi=1, seed=5)
        b = bench.make_instance(small_plant, T=60, t_ini=2, n_horizon=8,
                                noise_var=0.01, u_lo=-1, u_hi=1, seed=5)
        np.testing.assert_array_equal(a[0].yf, b[0].yf)
        np.testing.assert_array_equal(a[1].y_ini, b[1].y_ini)
        np.testing.assert_array_equal(a[2], b[2])

    def test_distinct_seeds_differ(self, small_plant):
        a = bench.make_instance(small_plant, T=60, t_ini=2, n_horizon=8,
                                noise_var=0.0, u_lo=-1, u_hi=1, seed=5)
        b = bench.make_instance(small_plant, T=60, t_ini=2, n_horizon=8,
                                noise_var=0.0, u_lo=-1, u_hi=1, seed=6)
        assert np.abs(a[0].yf - b[0].yf).max() > 1e-6

    def test_state_consistent_with_window(self, small_plant):
        lib, online, x_true = bench.make_instance(
            small_plant, T=60, t_ini=3, n_horizon=8,
            noise_var=0.0, u_lo=-1, u_hi=1, seed=9)
        # replaying the online inputs from the implied start must reach x_true:
        # recover the start by brute force over the stored window
        u_seq = online.u_ini.reshape(3, 1)
        y_seq = online.y_ini.reshape(3, 1)
        # solve for x0 from the observability system
        rows, rhs = [], []
        for k in range(3):
            obs = small_plant.c @ np.linalg.matrix_power(small_plant.a, k)
            drive = np.zeros((1,))
            x_part = np.zeros(2)
            xk = np.zeros(2)
            for j in range(k):
                xk = small_plant.a @ xk + small_plant.b @ u_seq[j]
            rows.append(obs)
            rhs.append(y_seq[k] - small_plant.c @ xk)
        x0, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
        x = x0
        for k in range(3):
            x, _ = small_plant.step(x, u_seq[k])
        np.testing.assert_allclose(x, x_true, atol=1e-8)


class TestNonlinearRollout:
    def test_make_instance_and_realized_cost_match_lv_step_loop(self):
        # reference: the loop over lv_step, with y(k) the state before step k
        plant = NonlinearPlant(eps=0.5)
        seed, t_ini, n_horizon, noise_var, x0_scale, scale = 17, 4, 10, 0.01, 2.0, 0.1
        lib, online, x_true = bench.make_instance(
            plant, T=60, t_ini=t_ini, n_horizon=n_horizon, noise_var=noise_var,
            u_lo=-20.0, u_hi=20.0, seed=seed, x0_scale=x0_scale, excitation_scale=scale)
        rng = seeded_generator((seed ^ bench._ONLINE_SALT) & bench._MASK64)
        x = x0_scale * standard_normal(rng, 2)
        u_ini = scale * -20.0 + (scale * 20.0 - scale * -20.0) * rng.random((t_ini, 1))
        w_ini = np.sqrt(noise_var) * standard_normal(rng, (t_ini, 2))
        y_ini = np.empty((t_ini, 2))
        for k in range(t_ini):
            y_ini[k] = x + w_ini[k]
            x = lv_step(plant, x, u_ini[k, 0])
        np.testing.assert_array_equal(online.u_ini, u_ini.ravel())
        np.testing.assert_array_equal(online.y_ini, y_ini.ravel())
        np.testing.assert_array_equal(x_true, x)

        spec = va.ControlSpec(
            t_ini=t_ini, n_horizon=n_horizon, q_weight=np.eye(2), r_weight=0.5 * np.eye(1),
            y_ref=np.linspace(-1.0, 1.0, 2 * n_horizon))
        u = np.random.default_rng(0).uniform(-2.0, 2.0, n_horizon)
        y_ref = spec.y_ref.reshape(n_horizon, 2)
        cost, x = 0.0, x_true
        for k in range(n_horizon):
            dy = x - y_ref[k]
            cost += float(dy @ spec.q_weight @ dy + u[k:k + 1] @ spec.r_weight @ u[k:k + 1])
            x = lv_step(plant, x, u[k])
        assert va.realized_cost(plant, x_true, u, spec) == cost


# every CLI variant name, and the module functions it must reach in order
VARIANT_CALLS = {
    "basic": ["solve_basic_deepc"],
    "hybrid": ["solve_hybrid"],
    "svd": ["preprocess_svd", "solve_svd"],
    "ddspc": ["build_spc_library", "solve_dd_spc"],
    "svd-iter": ["preprocess_svd_iter", "solve_svd_iter"],
    "spc": ["solve_classical_spc"],
}
PREPROCESSORS = ("preprocess_svd", "build_spc_library", "preprocess_svd_iter")


def spy_on_variants(monkeypatch) -> list:
    """Replace each solver and pre-processing attribute of the module with a logging spy."""
    calls = []
    names = [n for n in dir(va) if n.startswith(("solve_", "preprocess_"))]
    for name in names + ["build_spc_library"]:
        def spy(*args, _name=name, _fn=getattr(va, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(va, name, spy)
    return calls


class TestVariantDispatch:
    def test_every_choice_reaches_its_module_attribute(self, tmp_path, small_plant, monkeypatch):
        assert set(bench.VARIANT_CHOICES) == set(VARIANT_CALLS)
        cfg = fast_config(tmp_path, noise_var=0.0, slra_order=2)
        instance = bench.make_instance(small_plant, T=60, t_ini=2, n_horizon=8,
                                       noise_var=0.0, u_lo=-1, u_hi=1, seed=5)
        spec = bench._make_spec(cfg, small_plant)
        calls = spy_on_variants(monkeypatch)
        for name, expected in VARIANT_CALLS.items():
            calls.clear()
            bench._solve_variant(name, small_plant, instance, spec, cfg, {})
            assert calls == expected, name

    def test_preprocessing_runs_once_per_instance(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        calls = spy_on_variants(monkeypatch)
        cfg = fast_config(tmp_path, trials=2, variants=bench.VARIANT_CHOICES, slra_order=2)
        bench.cmd_benchmark(cfg)
        for name in PREPROCESSORS:
            assert calls.count(name) == 2, name
        for name in bench.VARIANT_CHOICES:
            assert calls.count(VARIANT_CALLS[name][-1]) == 2, name

        calls.clear()
        bench.cmd_sweep(cfg, [1e-2, 1.0], [1e-2, 1.0])
        for name in PREPROCESSORS:
            assert calls.count(name) == 1, name
        for name in bench.VARIANT_CHOICES:
            assert calls.count(VARIANT_CALLS[name][-1]) == 4, name


def test_perfbench_wraps_only_existing_functions(monkeypatch):
    # the benchmark's wrappers look these names up; a deleted or renamed one
    # would break the traced run, not this suite
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("perfbench_instrument", path)
    instrument = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, instrument)  # its dataclasses look it up
    spec.loader.exec_module(instrument)
    for table in (instrument.TRACED, instrument.CHECKED):
        for owner, names in table.items():
            for name in names:
                assert callable(getattr(instrument.MODULES[owner], name)), f"{owner}.{name}"


class TestDenoiserWarnings:
    @pytest.mark.parametrize("message", [
        "overflow encountered in matmul",
        f"{va.SLRA_CAP_WARNING} (rel change 1.00e-03)",
    ])
    def test_every_warning_surfaces(self, message, tmp_path, small_plant, monkeypatch):
        real = va.preprocess_svd_iter

        def warns(*args, **kwargs):
            warnings.warn(message, RuntimeWarning)
            return real(*args, **kwargs)

        monkeypatch.setattr(va, "preprocess_svd_iter", warns)
        cfg = fast_config(tmp_path, noise_var=0.0, slra_order=2)
        instance = bench.make_instance(small_plant, T=60, t_ini=2, n_horizon=8,
                                       noise_var=0.0, u_lo=-1, u_hi=1, seed=5)
        spec = bench._make_spec(cfg, small_plant)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            bench._solve_variant("svd-iter", small_plant, instance, spec, cfg, {})
        surfaced = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert message in surfaced


class TestTypedFailures:
    @pytest.mark.parametrize("command", ["benchmark", "sweep"])
    def test_plain_value_error_in_rollout_raises(self, command, tmp_path, small_plant,
                                                 monkeypatch):
        # only a diverged plant becomes a NaN cell; any other ValueError is a bug
        def broken(*args, **kwargs):
            raise ValueError("shape mismatch")

        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        monkeypatch.setattr(va, "realized_cost", broken)
        cfg = fast_config(tmp_path, trials=1)
        with pytest.raises(ValueError, match="shape mismatch"):
            if command == "benchmark":
                bench.cmd_benchmark(cfg)
            else:
                bench.cmd_sweep(cfg, [1.0], [1.0])


class TestFailureAccounting:
    """A trial counts as a failure when it ends without a finite cost."""

    @staticmethod
    def force(monkeypatch, failing_solve, diverging_rollout, nan_rollout=None):
        """Make call ``failing_solve`` (from 1) of solve_hybrid raise VariantError,
        call ``diverging_rollout`` of realized_cost raise PlantDiverged, and call
        ``nan_rollout`` of it return NaN."""
        calls = {"solve": 0, "cost": 0}
        solve, cost = va.solve_hybrid, va.realized_cost

        def solve_hybrid(*args, **kwargs):
            calls["solve"] += 1
            sol = solve(*args, **kwargs)
            if calls["solve"] == failing_solve:
                failed = replace(sol.solver, status=qp.QpStatus.MAX_ITERATIONS)
                raise va.VariantError("hybrid", failed)
            return sol

        def realized_cost(*args, **kwargs):
            calls["cost"] += 1
            if calls["cost"] == diverging_rollout:
                raise PlantDiverged("forced")
            return float("nan") if calls["cost"] == nan_rollout else cost(*args, **kwargs)

        monkeypatch.setattr(va, "solve_hybrid", solve_hybrid)
        monkeypatch.setattr(va, "realized_cost", realized_cost)

    def test_benchmark_failures_column(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        # rollouts in order: trial 0 gt, hybrid, svd; trial 1 gt, svd (hybrid
        # failed); trial 2 gt, hybrid, svd
        self.force(monkeypatch, failing_solve=2, diverging_rollout=3, nan_rollout=8)
        path, rows = bench.cmd_benchmark(fast_config(tmp_path, trials=3))
        lines = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert {r[0]: (r[3], r[4]) for r in lines} == {
            "ground-truth": ("3", "0"), "hybrid": ("3", "1"), "svd": ("3", "2"),
        }
        assert [(r.trials, r.failures) for r in rows] == [(3, 0), (3, 1), (3, 2)]

    def test_nonlinearity_completed_plus_failures(self, tmp_path, monkeypatch):
        # rollouts in order: trial 0 gt (hybrid failed); trial 1 gt, hybrid
        self.force(monkeypatch, failing_solve=1, diverging_rollout=2)
        cfg = bench.ExperimentConfig(trials=2, seed=99, out_dir=str(tmp_path / "nl"),
                                     variants=("hybrid",))
        path = bench.cmd_nonlinearity(cfg, [1.0])
        lines = [line.split(",") for line in path.read_text().splitlines()[2:]]
        assert {r[1]: (int(r[3]), int(r[4])) for r in lines} == {
            "ground-truth": (1, 1), "hybrid": (1, 1),
        }


class TestEquivalenceCommand:
    def test_self_comparison_is_zero(self, tmp_path, small_plant):
        # identical solves deviate by exactly zero
        lib, online, _ = bench.make_instance(
            small_plant, T=60, t_ini=2, n_horizon=8,
            noise_var=0.01, u_lo=-1, u_hi=1, seed=11)
        from deepckit import variants as va

        spec = bench._make_spec(fast_config(tmp_path), small_plant)
        spec = replace(spec, lambda1=0.0, lambda2=30.0, lambda_y=100.0)
        s1 = va.solve_hybrid(lib, online, spec)
        s2 = va.solve_hybrid(lib, online, spec)
        assert bench._deviation(s1, s2, with_sigma=True) == (0.0, 0.0, 0.0)

    def test_report_written_and_passes(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        cfg = fast_config(tmp_path, trials=2)
        path, ok = bench.cmd_equivalence(cfg)
        assert ok
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert f"config_hash={cfg.config_hash()}" in lines[0]
        header = lines[1].split(",")
        assert header == ["regime", "pair", "max_du", "max_dy", "max_dsigma", "tolerance", "pass"]
        regimes = {row.split(",")[0].split("[")[0] for row in lines[2:]}
        assert regimes == {"fact1", "theorem2", "theorem3", "theorem1"}
        assert all(row.split(",")[-1] == "1" for row in lines[2:])


class TestBenchmarkCommand:
    def test_outputs_and_determinism(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        cfg = fast_config(tmp_path, trials=3)
        path, rows = bench.cmd_benchmark(cfg)
        names = [r.variant for r in rows]
        assert names == ["ground-truth", "hybrid", "svd"]
        assert all(r.failures == 0 for r in rows)
        gt = rows[0].mean_cost
        for r in rows[1:]:
            assert r.increase_rate_pct == pytest.approx(
                100 * (r.mean_cost - gt) / gt
            )
        first = path.read_bytes()
        assert (tmp_path / "out" / "timings.csv").exists()
        assert (tmp_path / "out" / "trajectory.svg").exists()
        # byte-identical rerun (timings excluded from the guarantee)
        path2, _ = bench.cmd_benchmark(cfg)
        assert path2.read_bytes() == first

    def test_noise_free_rates_are_tiny(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        cfg = fast_config(
            tmp_path, trials=2, noise_var=0.0,
            lambda1=0.0, lambda2=0.0, lambda_y=1e14,
            variants=("basic", "hybrid", "svd", "ddspc", "svd-iter"),
            slra_order=2,
        )
        _, rows = bench.cmd_benchmark(cfg)
        for r in rows:
            if r.variant != "ground-truth":
                assert abs(r.increase_rate_pct) <= 0.1


class TestSweepCommand:
    def test_single_cell_matches_benchmark_trial(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        cfg = fast_config(tmp_path, trials=1, variants=("hybrid",),
                          lambda_y=100.0)
        path = bench.cmd_sweep(cfg, [30.0], [30.0])
        row = path.read_text().splitlines()[2].split(",")
        assert row[0] == "hybrid"
        sweep_cost = float(row[3])

        cfg_b = fast_config(tmp_path, trials=1, variants=("hybrid",),
                            lambda1=30.0, lambda2=30.0, lambda_y=100.0,
                            out_dir=str(tmp_path / "out2"))
        _, rows = bench.cmd_benchmark(cfg_b)
        bench_cost = [r for r in rows if r.variant == "hybrid"][0].mean_cost
        assert sweep_cost == pytest.approx(bench_cost, rel=1e-6)

    def test_lambda_y_is_echoed_and_used(self, tmp_path, small_plant, monkeypatch):
        # the slack weight config.json records is the one the cells run with
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        costs = {}
        for lambda_y in (5.0, 100.0):
            cfg = fast_config(tmp_path, trials=1, variants=("hybrid",), lambda_y=lambda_y,
                              out_dir=str(tmp_path / f"ly{lambda_y:g}"))
            path = bench.cmd_sweep(cfg, [30.0], [30.0])
            echoed = json.loads((path.parent / "config.json").read_text())
            assert echoed["lambda_y"] == lambda_y
            costs[lambda_y] = float(path.read_text().splitlines()[2].split(",")[3])
        assert costs[5.0] != costs[100.0]

        cfg_b = fast_config(tmp_path, trials=1, variants=("hybrid",), lambda1=30.0,
                            lambda2=30.0, lambda_y=5.0, out_dir=str(tmp_path / "bench"))
        _, rows = bench.cmd_benchmark(cfg_b)
        hybrid = [r for r in rows if r.variant == "hybrid"][0]
        assert costs[5.0] == pytest.approx(hybrid.mean_cost, rel=1e-6)

    def test_grid_shape_and_sentinels(self, tmp_path, small_plant, monkeypatch):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        cfg = fast_config(tmp_path, trials=1, variants=("hybrid", "ddspc"))
        path = bench.cmd_sweep(cfg, [1e-5, 1.0], [1e-2, 1e2])
        rows = path.read_text().splitlines()[2:]
        assert len(rows) == 2 * 2 * 2
        for row in rows:
            cost = row.split(",")[3]
            assert cost == "nan" or float(cost) >= 0.0


class TestNonlinearityCommand:
    def test_linear_limit_and_csv(self, tmp_path):
        cfg = bench.ExperimentConfig(
            trials=2, seed=99, out_dir=str(tmp_path / "nl"),
            variants=("svd-iter",),
        )
        path = bench.cmd_nonlinearity(cfg, [1.0])
        rows = [r.split(",") for r in path.read_text().splitlines()[2:]]
        by_name = {r[1]: float(r[2]) for r in rows}
        assert set(by_name) == {"ground-truth", "svd-iter"}
        # linear regime with noise-free data: the structured variant matches
        # the model-based controller closely
        gt = by_name["ground-truth"]
        assert abs(by_name["svd-iter"] - gt) / gt <= 0.10

    def test_eps_validation(self, tmp_path):
        cfg = bench.ExperimentConfig(trials=1, out_dir=str(tmp_path / "nl2"))
        with pytest.raises(ValueError):
            bench.cmd_nonlinearity(cfg, [1.5])


class TestEmitSvg:
    def test_empty_series_valid_svg(self, tmp_path):
        path = tmp_path / "empty.svg"
        bench.emit_svg([], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "<line" in text  # axes still drawn

    def test_two_point_series_segment(self, tmp_path):
        path = tmp_path / "seg.svg"
        bench.emit_svg([("a", [0.0, 1.0], [0.0, 1.0])], path)
        pts = re.search(r'points="([^"]+)"', path.read_text()).group(1)
        assert len(pts.split()) == 2

    def test_round_trip_coordinates(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.linspace(0.0, 10.0, 17)
        y = rng.uniform(-4.0, 8.0, 17)
        path = tmp_path / "rt.svg"
        bench.emit_svg([("series", x, y)], path)
        pts = re.search(r'points="([^"]+)"', path.read_text()).group(1)
        coords = np.array([[float(v) for v in pair.split(",")] for pair in pts.split()])
        # invert the affine plot transform and recover the data
        sx = (coords[-1, 0] - coords[0, 0]) / (x[-1] - x[0])
        x_back = (coords[:, 0] - coords[0, 0]) / sx + x[0]
        np.testing.assert_allclose(x_back, x, atol=1e-2)
        y_at_max = y.argmax()
        y_at_min = y.argmin()
        assert coords[y_at_max, 1] == coords[:, 1].min()  # svg y grows downward
        assert coords[y_at_min, 1] == coords[:, 1].max()
        sy = (coords[y_at_min, 1] - coords[y_at_max, 1]) / (y.max() - y.min())
        y_back = y.max() - (coords[:, 1] - coords[y_at_max, 1]) / sy
        np.testing.assert_allclose(y_back, y, atol=1e-2 * (y.max() - y.min()))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.emit_svg([("bad", [0.0, 1.0], [0.0, np.inf])], tmp_path / "x.svg")

    def test_markup_in_text_is_escaped(self, tmp_path):
        path = tmp_path / "markup.svg"
        bench.emit_svg([("a<b & c", [0.0, 1.0], [0.0, 1.0])], path,
                       title="x > 1 & y", x_label="<t>", y_label='"y" & \'z\'')
        texts = [node.firstChild.data
                 for node in minidom.parse(str(path)).getElementsByTagName("text")]
        for text in ("a<b & c", "x > 1 & y", "<t>", '"y" & \'z\''):
            assert text in texts


class TestCli:
    def test_module_entry_point_imports_once(self):
        # an eager package import of bench makes runpy warn and run the CLI module twice
        src = str(Path(bench.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "deepckit.bench", "--help"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "usage: deepckit-bench" in proc.stdout

    def test_sweep_subcommand(self, tmp_path, small_plant, monkeypatch, capsys):
        monkeypatch.setattr(bench, "_make_plant", lambda cfg: small_plant)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "T": 60, "t_ini": 2, "n_horizon": 8, "trials": 1,
            "variants": ["hybrid"], "out_dir": str(tmp_path / "cli-out"),
        }))
        code = bench.main([
            "sweep", "--config", str(cfg_file), "--seed", "3",
            "--lambda1-grid", "1.0", "--lambda2-grid", "1.0",
        ])
        assert code == 0
        assert (tmp_path / "cli-out" / "sweep.csv").exists()
        assert "sweep.csv" in capsys.readouterr().out

    def test_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 1, "trials": 5}))
        import argparse

        args = bench.build_args_for_test = None  # no-op guard
        parser_args = ["benchmark", "--config", str(cfg_file), "--seed", "7"]
        # resolve via the private helper to avoid a full benchmark run
        ns = argparse.Namespace(
            command="benchmark", config=str(cfg_file), seed=7, trials=None,
            out_dir=None, variants=None, lambda1=None, lambda2=None,
            lambda_y=None, noise_var=None, plant=None, eps=None,
        )
        cfg = bench._resolve_config(ns)
        assert cfg.seed == 7 and cfg.trials == 5
