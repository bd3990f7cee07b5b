import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mimicsde import cli


def write_config(tmp_path: Path, cfg: dict) -> Path:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def base_sim_config(tmp_path: Path, **overrides) -> dict:
    cfg = {
        "kind": "simulate",
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "model": {"builtin": "heston",
                  "params": {"kappa": 1.5, "theta": 0.04, "zeta": 0.3, "rho": -0.5,
                             "r": 0.02, "q": 0.0}},
        "start": {"t": 0.0, "x": [0.0, 0.09]},
        "ensemble": {"n_paths": 100, "step": 0.03125, "horizon": 1.0,
                     "scheme": "full_truncation", "store_stride": 4},
    }
    cfg.update(overrides)
    return cfg


class TestSchema:
    def test_missing_seed_is_schema_violation(self, tmp_path, capsys):
        cfg = base_sim_config(tmp_path)
        del cfg["seed"]
        assert cli.run(cfg) == 2

    def test_unknown_kind_rejected(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="plot")
        assert cli.run(cfg) == 2

    def test_nonpositive_threshold_rejected(self, tmp_path):
        cfg = base_sim_config(tmp_path)
        cfg["thresholds"] = {"ks": -0.1}
        assert cli.run(cfg) == 2


class TestSimulateKind:
    def test_artifacts_and_exit_zero(self, tmp_path):
        cfg = base_sim_config(tmp_path)
        assert cli.run(cfg) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["support"]["violations"] == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert (out / "ensemble.csv").exists()

    def test_rerun_byte_identical_modulo_manifest(self, tmp_path):
        cfg = base_sim_config(tmp_path)
        assert cli.run(cfg) == 0
        first_csv = (tmp_path / "out" / "ensemble.csv").read_bytes()
        first_report = (tmp_path / "out" / "report.json").read_bytes()
        assert cli.run(cfg) == 0
        assert (tmp_path / "out" / "ensemble.csv").read_bytes() == first_csv
        assert (tmp_path / "out" / "report.json").read_bytes() == first_report


class TestCheckKinds:
    def test_validate_kind(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="validate")
        cfg["validator"] = {"n_samples": 512, "pair_budget": 512}
        assert cli.run(cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["validation"]["passed"] is True

    def test_martingale_kind_and_negative_control(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="martingale")
        cfg["ensemble"] = {"n_paths": 8000, "step": 2.0**-6, "horizon": 1.0,
                           "store_stride": 1}
        cfg["martingale"] = {
            "n_intervals": 3,
            "test_functions": [{"type": "linear", "weights": [0.0, 1.0]}],
        }
        assert cli.run(cfg) == 0
        # breaking the compensator drift must flip the exit status
        assert cli.run(cfg, break_generator="drift") == 1
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["passed"] is False
        assert report["broken_generator"] == "drift"

    def test_pde_kind(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["pde"] = {"dt": 1.0 / 64, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [33, 33], "horizon": 0.25}
        assert cli.run(cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["constant_data_error"] < 1e-8
        assert (tmp_path / "out" / "solution.csv").exists()

    def test_pde_rerun_byte_identical_modulo_manifest(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["pde"] = {"dt": 1.0 / 16, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [9, 9], "horizon": 0.25}
        out = tmp_path / "out"
        assert cli.run(cfg) == 0
        first = {name: (out / name).read_bytes() for name in ("solution.csv", "report.json")}
        report = json.loads(first["report.json"])
        for key in ("downwind_rows", "min_boundary_bd", "layer_min", "layer_max"):
            assert key in report
        assert cli.run(cfg) == 0
        for name, data in first.items():
            assert (out / name).read_bytes() == data, name

    def test_pde_kind_reports_inner_extrema(self, tmp_path):
        # in the paper's class (no downwind rows) the payoff's undershoot sits
        # at the outer nodes, where the extrapolation closure is not monotone;
        # the non-outer extrema leave it out
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["pde"] = {"dt": 1.0 / 16, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [9, 9], "horizon": 0.25}
        assert cli.run(cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["downwind_rows"] == 0
        for col in ("constant", "payoff"):
            assert report["layer_min"][col] <= report["inner_min"][col]
            assert report["inner_max"][col] <= report["layer_max"][col]
        assert report["layer_min"]["payoff"] < report["inner_min"]["payoff"]

    @pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson"])
    def test_pde_kind_killing_at_coarse_dt(self, tmp_path, scheme):
        # constant data with a constant killing rate c: the march is compared
        # with its own value ((1 + (1 - theta) c dt) / (1 - theta c dt))^n, not
        # with exp(c T), from which implicit Euler is 3.1e-6 away at dt = 1/16
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["model"]["params"]["with_killing"] = True
        cfg["pde"] = {"dt": 1.0 / 16, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [9, 9], "horizon": 0.25, "scheme": scheme}
        assert cli.run(cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["killing"] is True
        assert report["constant_data_error"] < 1e-12

    @pytest.mark.parametrize("c", [
        lambda t, x: -np.asarray(x)[:, 0] ** 2,  # zero at the origin, varies in space
        lambda t, x: np.full(np.asarray(x).shape[0], -float(t)),  # zero at t = 0
    ], ids=["space", "time"])
    def test_pde_kind_rejects_varying_killing(self, tmp_path, monkeypatch, c):
        # the constant-data check compares against the march's own value for
        # one rate c: a c that varies over the grid or in time must raise
        heston = cli.heston_model(1.5, 0.04, 0.3, -0.5)
        varying = dataclasses.replace(heston, c=c, time_independent=False)
        monkeypatch.setattr(cli, "_model_from_config", lambda cfg: varying)
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["pde"] = {"dt": 1.0 / 16, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [9, 9], "horizon": 0.25}
        with pytest.raises(ValueError, match="constant in space and time"):
            cli.run(cfg)

    def test_duality_kind_negative_control(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="duality")
        cfg["ensemble"] = {"n_paths": 4000, "step": 2.0**-7, "horizon": 0.25}
        cfg["pde"] = {"dt": 1.0 / 64, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [33, 33]}
        cfg["duality"] = {"horizon": 0.25,
                          "g": {"type": "radial_bump", "center": [0.0, 0.04],
                                "radius": 0.5}}
        assert cli.run(cfg) == 0
        assert cli.run(cfg, break_generator="drift") == 1

    def test_restart_kind(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="restart")
        cfg["ensemble"] = {"n_paths": 2000, "step": 2.0**-6, "horizon": 1.0}
        cfg["restart"] = {"level": 0.01, "t_cap": 0.5, "u": 0.25, "n_bins": 2,
                          "min_bin": 200, "ks_threshold": 0.1}
        assert cli.run(cfg) == 0

    def test_full_mimic_kind(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="full-mimic")
        cfg["ensemble"] = {"n_paths": 8000, "step": 2.0**-6, "horizon": 1.0,
                           "store_stride": 4}
        cfg["driver"] = {"kind": "markov_replay"}
        cfg["binning"] = {
            "times": [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0],
            "edges": [list(np.linspace(-1.5, 1.5, 13)),
                      [0.0] + list(0.5 * np.linspace(0.08, 1.0, 8) ** 1.3)],
            "kernel": "box", "min_count": 10,
        }
        cfg["compare_times"] = [0.5, 1.0]
        cfg["thresholds"] = {"ks": 0.04}
        assert cli.run(cfg) == 0
        out = tmp_path / "out"
        assert (out / "mimicked.csv").exists()
        assert (out / "mimicked.csv.meta.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["comparison"]["passed"] is True

    @pytest.mark.parametrize("kind", [k for k in cli.KINDS if k not in ("martingale", "duality")])
    def test_break_generator_rejected_without_checking_side(self, tmp_path, kind):
        # only martingale and duality have a checking side to corrupt; any
        # other kind must refuse the flag as misuse before any compute
        cfg = base_sim_config(tmp_path, kind=kind)
        assert cli.run(cfg, break_generator="drift") == 2
        assert not (tmp_path / "out" / "report.json").exists()


class TestMain:
    def test_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is most of the CLI's import time, and no layer needs it
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = "import mimicsde.cli, sys; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_main_runs_config_file(self, tmp_path):
        cfg = base_sim_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 0

    def test_threads_flag_accepted(self, tmp_path):
        cfg = base_sim_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path), "--threads", "1"]) == 0

    def test_manifest_records_thread_cap_not_applied(self, tmp_path, monkeypatch, caplog):
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
        cfg = base_sim_config(tmp_path)
        with caplog.at_level(logging.WARNING, logger="mimicsde.cli"):
            assert cli.run(cfg, threads=1) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["threads"] == 1
        assert manifest["threads_applied"] is False
        assert "not applied" in caplog.text
