import argparse
import ast
import dataclasses
import inspect
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy

from mimicsde import cli, martingale, rng, sdesim

from conftest import record_holder_pair_distances


def _src_env() -> dict:
    """The environment of a fresh interpreter that imports this package's source."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


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


# a project kind's binning that a few hundred driver paths fill
SMALL_BINNING = {"times": [0.25, 0.5], "edges": [[-1.0, -0.25, 0.25, 1.0], [0.0, 0.05, 0.1, 0.5]]}


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

    @pytest.mark.parametrize("section, key", [
        (None, "sed"), ("params", "kapa"), ("validator", "n_sample")], ids=str)
    def test_misspelt_key_rejected(self, tmp_path, section, key):
        # a typo must not fall back to a default: kapa would run kappa = 1.5
        cfg = base_sim_config(tmp_path, kind="validate")
        cfg["validator"] = {"n_samples": 64, "pair_budget": 64}
        target = {None: cfg, "params": cfg["model"]["params"],
                  "validator": cfg["validator"]}[section]
        target[key] = 3
        assert cli.run(cfg) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, section, good, bad", [
        ("pde", "duality", {"g": {"type": "constant", "value": 2.0}},
         {"g": {"type": "constant", "valu": 2.0}}),
        ("pde", "duality", {"g": {"value": 2.0}}, {"g": {"valu": 2.0}}),
        ("martingale", "martingale", {"test_functions": [{"type": "linear", "weights": [1, 0]}]},
         {"test_functions": [{"type": "linear", "weights": [1, 0], "weigths": [0, 1]}]}),
        ("martingale", "martingale", {"test_functions": [{"center": [0, 0.05], "radius": 1.0}]},
         {"test_functions": [{"centre": [0, 0.05], "radius": 1.0}]}),
    ], ids=["g-valu", "untyped-g-valu", "linear-weigths", "untyped-bump-centre"])
    def test_misspelt_typed_spec_rejected(self, tmp_path, kind, section, good, bad):
        # a payoff or test function is closed per type too: valu would run the payoff 1.0
        cfg = base_sim_config(tmp_path, kind=kind, **{section: good})
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        assert cli.run({**cfg, section: bad}) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    def test_empty_test_function_list_rejected(self, tmp_path):
        # no test function leaves no entry to fail, so the run would pass
        # vacuously, under a broken generator too
        cfg = base_sim_config(tmp_path, kind="martingale", martingale={"test_functions": []},
                              ensemble={"n_paths": 100, "step": 0.03125, "horizon": 1.0})
        assert cli.run(cfg) == 2
        assert cli.run(cfg, break_generator="drift") == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, section, bad", [
        ("project", "binning", {"times": [0.5], "edges": [[-1.0, 0.0, 1.0], [0.0, 0.5]],
                                "bandwidth": ["x", 0.1]}),
        ("restart", "restart", {"perturb": ["a", 0.0]}),
    ], ids=["bandwidth", "perturb"])
    def test_untyped_array_item_rejected(self, tmp_path, kind, section, bad):
        # a string bandwidth reached BinningSpec as a TypeError (now any
        # bandwidth key exits 2), a string perturbation the restart test as a
        # ValueError
        cfg = base_sim_config(tmp_path, kind=kind, **{section: bad})
        assert cli.run(cfg) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("option", [{"bandwidth": None}, {"bandwidth": [0.1, 0.02]},
                                        {"kernel": "gaussian"}],
                             ids=["bandwidth-null", "bandwidth-positive", "kernel-gaussian"])
    def test_removed_estimator_option_rejected(self, tmp_path, capsys, option):
        # the box-cell mean is the one estimator: any bandwidth key, and any
        # kernel but "box", is misuse rather than an option silently ignored
        cfg = base_sim_config(tmp_path, kind="project", binning=SMALL_BINNING)
        jsonschema.validate({**cfg, "binning": {**SMALL_BINNING, "kernel": "box"}},
                            cli.CONFIG_SCHEMA)
        assert cli.run({**cfg, "binning": {**SMALL_BINNING, **option}}) == 2
        assert capsys.readouterr().err.startswith("config schema violation")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_binning_time_off_the_time_grid_names_the_step(self, tmp_path, capsys):
        # a binning time need only be a node of the time grid, stored or not;
        # 0.01 is a node of neither the step-1/64 grid nor its stored grid
        cfg = base_sim_config(tmp_path, kind="project",
                              binning={**SMALL_BINNING, "times": [0.01]})
        cfg["ensemble"].update(step=2.0**-6, store_stride=4)
        assert cli.run(cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: binning time 0.01 is not a node of the time grid")
        assert "step 0.015625" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_bad_binning_fails_before_any_driver_path(self, tmp_path, capsys, monkeypatch):
        calls = []
        simulate = cli.simulate_ito_process
        monkeypatch.setattr(cli, "simulate_ito_process",
                            lambda *a, **k: calls.append(1) or simulate(*a, **k))
        edges = [SMALL_BINNING["edges"][0], [0.01, 0.05, 0.1, 0.5]]
        cfg = base_sim_config(tmp_path, kind="project",
                              binning={**SMALL_BINNING, "edges": edges})
        assert cli.run(cfg) == 2
        assert capsys.readouterr().err.startswith("config error: x_d edges must start at 0")
        assert calls == []
        # the counter counts: the same config with good edges simulates once
        assert cli.run(base_sim_config(tmp_path, kind="project", binning=SMALL_BINNING)) == 0
        assert calls == [1]

    @pytest.mark.parametrize("times", [[0.5, 0.25], [0.5, 0.5]], ids=["decreasing", "repeated"])
    def test_unordered_binning_times_fail_before_any_driver_path(self, tmp_path, capsys,
                                                                 monkeypatch, times):
        # the times become the built model's knots, which must increase strictly
        def simulate(*args, **kwargs):
            raise AssertionError("the driver ensemble was simulated")

        monkeypatch.setattr(cli, "simulate_ito_process", simulate)
        cfg = base_sim_config(tmp_path, kind="project", binning={**SMALL_BINNING, "times": times})
        assert cli.run(cfg) == 2
        assert capsys.readouterr().err.startswith(
            "config error: binning.times must be strictly increasing")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("failure", ["config-error", "runner-raises"])
    def test_rejected_run_leaves_no_earlier_report(self, tmp_path, capsys, monkeypatch, failure):
        # nor the earlier run's data, which a reader could take for this run's
        out = tmp_path / "out"
        assert cli.run(base_sim_config(tmp_path)) == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True
        assert (out / "manifest.json").exists() and (out / "ensemble.csv").exists()
        cfg = base_sim_config(tmp_path)
        if failure == "config-error":
            cfg["model"]["params"]["kappa"] = -1.0
            assert cli.run(cfg) == 2
            assert capsys.readouterr().err.startswith("config error: need kappa > 0")
        else:
            def runner(*args):
                raise RuntimeError("runner failed")

            monkeypatch.setitem(cli._RUNNERS, "simulate", runner)
            with pytest.raises(RuntimeError, match="runner failed"):
                cli.run(cfg)
        assert list(out.iterdir()) == []

    def test_run_keeps_the_gridded_model_it_reads(self, tmp_path):
        # a pde run into the directory of the project run that saved its model
        project = base_sim_config(tmp_path, kind="project", binning=SMALL_BINNING)
        project["ensemble"]["n_paths"] = 2000
        assert cli.run(project) == 0
        out = tmp_path / "out"
        model = {name: (out / name).read_bytes()
                 for name in ("mimicked.csv", "mimicked.csv.meta.json")}
        cfg = base_sim_config(tmp_path, kind="pde", model={"gridded": {
            "csv": str(out / "mimicked.csv")}}, pde={"dt": 1.0 / 16, "counts": [9, 9],
                                                     "horizon": 0.25})
        assert cli.run(cfg) == 0
        assert {name: (out / name).read_bytes() for name in model} == model
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("kind, section, bad, seed, message", [
        ("validate", "validator", {"n_samples": 8, "pair_budget": 1}, 12, "pair_budget=1"),
        ("restart", "restart", {"t_cap": 0.3}, 1,
         "t_cap = 0.3 makes t = 0.3 not a node of the time grid of step h = 0.0078125"),
    ], ids=["validator-pair-budget", "restart-off-grid-t-cap"])
    def test_config_rejected_by_the_library_is_misuse(self, tmp_path, capsys, monkeypatch, kind,
                                                      section, bad, seed, message):
        # the schema passes these; the library raises ValueError on them: at
        # seed 12 the near-boundary Hölder clause's one pair lies beyond
        # distance 1, so that clause scores no pair
        distances = record_holder_pair_distances(monkeypatch)
        cfg = base_sim_config(tmp_path, kind=kind, seed=seed, **{section: bad})
        cfg["ensemble"] = {"n_paths": 100, "step": 2.0**-7, "horizon": 1.0}
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        assert cli.run(cfg) == 2
        if kind == "validate":
            assert len(distances) == 1 and distances[0].shape == (1,) and distances[0][0] > 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out" / "report.json").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("driver", [{"hi_factor": 3.0},
                                        {"kind": "markov_replay", "switch_rate": 1.0}],
                             ids=["no-kind", "markov-replay"])
    def test_regime_parameter_without_its_driver_rejected(self, tmp_path, driver):
        # the project kind would step the model driver and ignore the parameter
        cfg = base_sim_config(tmp_path, kind="project", binning=SMALL_BINNING)
        jsonschema.validate({**cfg, "driver": {**driver, "kind": "regime_switching"}},
                            cli.CONFIG_SCHEMA)
        assert cli.run({**cfg, "driver": driver}) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, section", [("simulate", "ensemble"), ("project", "binning")])
    def test_missing_section_is_misuse(self, tmp_path, capsys, kind, section):
        # the kind reads the section with no fallback: it used to end in a
        # KeyError traceback with exit 1, which means a failed check
        cfg = base_sim_config(tmp_path, kind=kind)
        cfg.pop(section, None)
        assert cli.run(cfg) == 2
        assert f"'{section}' is a required property" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("missing", ["csv", "sidecar"])
    def test_unreadable_gridded_model_is_misuse(self, tmp_path, capsys, missing):
        # the loader reads the sidecar, then the CSV; either one absent used to
        # end in a FileNotFoundError traceback with exit 1
        files = {"csv": tmp_path / "mimicked.csv",
                 "sidecar": tmp_path / "mimicked.csv.meta.json"}
        files["csv"].write_text("t_index\n")
        files["sidecar"].write_text(json.dumps({
            "times": [0.5], "edges": [[-1.0, 0.0, 1.0], [0.0, 0.5]], "kernel": "box",
            "bandwidth": None, "min_count": 1.0}))
        files[missing].unlink()
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["model"] = {"gridded": {"csv": str(files["csv"])}}
        assert cli.run(cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read the gridded model")
        assert str(files[missing]) in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("key, value", [("params", {"kappa": 9}), ("builtin", "heston")])
    def test_gridded_model_takes_no_builtin_or_params(self, tmp_path, key, value):
        # the gridded loader would ignore kappa = 9 without a word
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["model"] = {"gridded": {"csv": str(tmp_path / "mimicked.csv")}}
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        cfg["model"][key] = value
        assert cli.run(cfg) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, section, message", [
        ("pde", {"pde": {"counts": [9]}}, "pde.counts has 1 entries"),
        ("pde", {"pde": {"counts": [9, 9, 9]}}, "pde.counts has 3 entries"),
        ("duality", {"pde": {"counts": [9, 9, 9]}}, "pde.counts has 3 entries"),
        ("martingale", {"martingale": {"test_functions": [
            {"type": "boundary_bump", "center_prime": [0.0, 0.0], "radius": 0.6}]}},
         "boundary_bump's center_prime has 2 entries"),
        ("pde", {"duality": {"g": {"type": "radial_bump", "center": [0.1], "radius": 0.5}}},
         "radial_bump's center has 1 entries"),
    ], ids=["pde-counts-1", "pde-counts-3", "duality-counts-3", "martingale-boundary-bump",
            "pde-payoff-center-1"])
    def test_dimension_mismatch_is_misuse(self, tmp_path, capsys, kind, section, message):
        # Heston has d = 2: a grid or a test point of another length used to
        # end in an IndexError, or to march a bump in x_1 alone and exit 0
        cfg = base_sim_config(tmp_path, kind=kind, **section)
        cfg["ensemble"] = {"n_paths": 200, "step": 2.0**-5, "horizon": 0.25}
        cfg.setdefault("pde", {}).update(dt=1.0 / 16, horizon=0.25)
        cfg["pde"].setdefault("counts", [9, 9])
        assert cli.run(cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, section, message", [
        ("project", {"binning": {**SMALL_BINNING, "edges": []}}, "at least one edge array"),
        ("pde", {"pde": {"dt": 1.0 / 16, "horizon": 0.25, "counts": []}}, "at least one axis"),
        ("full-mimic", {"binning": SMALL_BINNING, "compare_times": []},
         "at least one comparison time"),
        ("martingale", {"ensemble": {"n_paths": 200, "step": 0.125, "horizon": 0.25}},
         "2 steps cannot bound 4 sub-intervals"),
    ], ids=["binning-edges", "pde-counts", "compare-times", "martingale-two-steps"])
    def test_empty_or_too_short_is_misuse(self, tmp_path, capsys, kind, section, message):
        # the first two used to end in an IndexError traceback, the last two
        # to exit 0 after comparing nothing or testing fewer intervals
        cfg = base_sim_config(tmp_path, kind=kind,
                              ensemble={"n_paths": 400, "step": 2.0**-5, "horizon": 0.5})
        cfg.update(section)
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        assert cli.run(cfg) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("start_x, shift", [
        ([0.0, 0.9], None), ([2.0, 0.09], None), ([0.0, 0.09], [0.0, 0.5])],
        ids=["above-x-max", "beyond-extent", "shifted-above-x-max"])
    def test_duality_point_outside_the_pde_box_is_misuse(self, tmp_path, capsys, monkeypatch,
                                                          start_x, shift):
        # the solution is clamped outside its box, so the score was spurious:
        # (0, 0.9) read PDE 0.2461 against MC 0.0032, (2, 0.09) read 0 against 0.
        # The box is checked first: no path is simulated and nothing is solved
        ran = []
        monkeypatch.setattr(sdesim, "_euler_paths", lambda *a, **k: ran.append("paths"))
        monkeypatch.setattr(cli, "solve_two_grid", lambda *a, **k: ran.append("solve"))
        cfg = base_sim_config(tmp_path, kind="duality", start={"t": 0.0, "x": start_x})
        cfg["ensemble"] = {"n_paths": 200, "step": 2.0**-5, "horizon": 0.25}
        cfg["pde"] = {"dt": 1.0 / 16, "counts": [9, 9], "horizon": 0.25}
        if shift is not None:
            cfg["duality"] = {"pde_eval_shift": shift}
        assert cli.run(cfg) == 2
        assert "lies outside the PDE box [-1.5, 1.5] x [0, 0.5]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()
        assert ran == []


def _with(cfg: dict, path: tuple, value) -> dict:
    """``cfg`` with the entry at ``path`` set to ``value`` (removed if None)."""
    *parents, key = path
    target = cfg
    for k in parents:
        target = target[k]
    if value is None:
        target.pop(key, None)
    else:
        target[key] = value
    return cfg


# every config TestSchema rejects by the schema, as a function of tmp_path
SCHEMA_VIOLATIONS = {
    "missing-seed": lambda p: _with(base_sim_config(p), ("seed",), None),
    "unknown-kind": lambda p: base_sim_config(p, kind="plot"),
    "nonpositive-threshold": lambda p: base_sim_config(p, thresholds={"ks": -0.1}),
    **{f"misspelt-{key}": lambda p, path=path: _with(
        base_sim_config(p, kind="validate", validator={"n_samples": 64, "pair_budget": 64}),
        path, 3)
       for key, path in [("sed", ("sed",)), ("kapa", ("model", "params", "kapa")),
                         ("n_sample", ("validator", "n_sample"))]},
    **{f"misspelt-{case}": lambda p, kind=kind, section=section, bad=bad: base_sim_config(
        p, kind=kind, **{section: bad})
       for case, kind, section, bad in [
           ("g-valu", "pde", "duality", {"g": {"type": "constant", "valu": 2.0}}),
           ("untyped-g-valu", "pde", "duality", {"g": {"valu": 2.0}}),
           ("linear-weigths", "martingale", "martingale", {"test_functions": [
               {"type": "linear", "weights": [1, 0], "weigths": [0, 1]}]}),
           ("untyped-bump-centre", "martingale", "martingale", {"test_functions": [
               {"centre": [0, 0.05], "radius": 1.0}]})]},
    "empty-test-functions": lambda p: base_sim_config(
        p, kind="martingale", martingale={"test_functions": []},
        ensemble={"n_paths": 100, "step": 0.03125, "horizon": 1.0}),
    "untyped-bandwidth": lambda p: base_sim_config(p, kind="project", binning={
        "times": [0.5], "edges": [[-1.0, 0.0, 1.0], [0.0, 0.5]], "bandwidth": ["x", 0.1]}),
    "untyped-perturb": lambda p: base_sim_config(p, kind="restart",
                                                 restart={"perturb": ["a", 0.0]}),
    **{f"removed-{case}": lambda p, option=option: base_sim_config(
        p, kind="project", binning={**SMALL_BINNING, **option})
       for case, option in [("bandwidth-null", {"bandwidth": None}),
                            ("bandwidth-positive", {"bandwidth": [0.1, 0.02]}),
                            ("kernel-gaussian", {"kernel": "gaussian"})]},
    **{f"regime-parameter-{case}": lambda p, driver=driver: base_sim_config(
        p, kind="project", binning=SMALL_BINNING, driver=driver)
       for case, driver in [("no-kind", {"hi_factor": 3.0}),
                            ("markov-replay", {"kind": "markov_replay", "switch_rate": 1.0})]},
    **{f"missing-{section}": lambda p, kind=kind, section=section: _with(
        base_sim_config(p, kind=kind), (section,), None)
       for kind, section in [("simulate", "ensemble"), ("project", "binning")]},
    **{f"gridded-with-{key}": lambda p, key=key, value=value: base_sim_config(
        p, kind="pde", model={"gridded": {"csv": str(p / "mimicked.csv")}, key: value})
       for key, value in [("params", {"kappa": 9}), ("builtin", "heston")]},
    # settings no run set, now gone from the schema and their callees
    "removed-sidecar": lambda p: base_sim_config(p, kind="pde", model={"gridded": {
        "csv": str(p / "mimicked.csv"), "sidecar": str(p / "mimicked.csv.meta.json")}}),
    "removed-t_max": lambda p: base_sim_config(p, kind="validate", validator={"t_max": 1.0}),
    "removed-xd_stretch": lambda p: base_sim_config(p, kind="pde", pde={"xd_stretch": 2.0}),
    "removed-p_start_hi": lambda p: base_sim_config(p, kind="project", binning=SMALL_BINNING,
                                                    driver={"kind": "regime_switching",
                                                            "p_start_hi": 0.5}),
    "removed-fail_crit": lambda p: base_sim_config(p, kind="martingale",
                                                   martingale={"fail_crit": 5.0}),
}


@pytest.mark.parametrize("case", SCHEMA_VIOLATIONS)
def test_schema_violation_message_is_jsonschemas(tmp_path, capsys, case):
    # the prebuilt validator reports the error jsonschema.validate would raise
    cfg = SCHEMA_VIOLATIONS[case](tmp_path)
    with pytest.raises(jsonschema.ValidationError) as raised:
        jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
    assert cli.run(cfg) == 2
    assert capsys.readouterr().err == f"config schema violation: {raised.value.message}\n"


def test_config_schema_is_a_draft7_schema():
    # cli.run validates with a prebuilt validator, which does not check the schema itself
    jsonschema.Draft7Validator.check_schema(cli.CONFIG_SCHEMA)


def _leaf_keys(schema: dict, prefix: str = "") -> list:
    """Dotted paths of the keys under ``schema`` that hold no ``properties`` of their own."""
    return [leaf for key, sub in schema["properties"].items()
            for leaf in (_leaf_keys(sub, f"{prefix}{key}.") if "properties" in sub
                         else [prefix + key])]


def test_configuration_surface_is_pinned():
    # every config key and run option a user can set: adding or dropping one
    # is an edit to these lists, reviewed as a pin edit is
    assert sorted(_leaf_keys(cli.CONFIG_SCHEMA)) == [
        "binning.edges", "binning.kernel", "binning.max_masked_fraction", "binning.min_count",
        "binning.times", "compare_times", "driver.hi_factor", "driver.kind",
        "driver.switch_rate", "duality.g", "duality.horizon", "duality.pde_eval_shift",
        "ensemble.horizon", "ensemble.n_paths", "ensemble.scheme", "ensemble.step",
        "ensemble.store_stride", "kind", "martingale.n_intervals", "martingale.test_functions",
        "martingale.z_crit", "model.builtin", "model.gridded.csv", "model.params.kappa",
        "model.params.q", "model.params.r", "model.params.rho", "model.params.theta",
        "model.params.with_killing", "model.params.zeta", "output_dir", "pde.counts", "pde.dt",
        "pde.horizon", "pde.scheme", "pde.x_max", "pde.x_prime_extent", "restart.ks_threshold",
        "restart.level", "restart.min_bin", "restart.n_bins", "restart.perturb", "restart.t_cap",
        "restart.u", "seed", "start.t", "start.x", "thresholds.gap_z", "thresholds.ks",
        "thresholds.w1", "validator.alphas", "validator.n_samples", "validator.pair_budget"]
    sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["run"]
    assert sorted(s for a in sub.choices["run"]._actions for s in a.option_strings) == [
        "--break-generator", "--config", "--help", "-h"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(f, ast.Name) and f.id == "dataclass"
               or isinstance(f, ast.Attribute) and f.attr == "dataclass"
               for f in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list))


def _settable_values(node: ast.AST, prefix: str) -> dict:
    """{qualified name: its defaulted parameters or dataclass fields} under ``node``."""
    found = {}
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            a = child.args
            positional = a.posonlyargs + a.args
            values = [p.arg for p in positional[len(positional) - len(a.defaults):]]
            values += [p.arg for p, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
        elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
            values = [s.target.id for s in child.body if isinstance(s, ast.AnnAssign)]
        else:
            found.update(_settable_values(child, prefix))
            continue
        if values:
            found[prefix + child.name] = " ".join(values)
        found.update(_settable_values(child, prefix + child.name + "."))
    return found


# each function's defaulted parameters and each dataclass's fields in src/mimicsde
SETTABLE_VALUES = {
    "cli.run": "break_generator",
    "cli.main": "argv",
    "coeffs.RegularityBudget": "delta K nu alpha",
    "coeffs.CoefficientModel": "d a b c budget knots",
    "coeffs.heston_model": "r q with_killing",
    "coeffs.ConditionCheck": "name passed observed bound kind witness details",
    "coeffs.ValidationReport": "conditions declared empirical",
    "coeffs.validate_coefficients": "n_samples pair_budget seed alphas",
    "geometry.SpaceTimePoint": "t x",
    "geometry.Region": "t0 t1 lower upper",
    "geometry.region_points": "stratify_from",
    "martingale.TestFunction": "name d jet dt xd_hess check_points",
    "martingale.radial_bump": "name",
    "martingale.martingale_increments": "scheme",
    "martingale.AdaptedProbe": "name fn",
    "martingale.MartingaleTestEntry": "probe t_lo t_hi mean se z n_test status",
    "martingale.MartingaleReport": "test_function entries z_crit",
    "martingale.martingale_test": "scheme n_intervals z_crit",
    "martingale.ItoResidualReport": "step mean_abs_residual rms_residual max_abs_residual",
    "martingale.RestartBinEntry": "g bin_lo bin_hi count ks passed",
    "martingale.RestartReport": "n_hits n_capped entries merged_bins ks_threshold",
    "martingale.strong_markov_restart_test": "scheme n_bins min_bin ks_threshold perturb",
    "pde.Grid": "dt axes",
    "pde.PdeSolution": "grid values layer_min layer_max meta",
    "pde.solve_cauchy": "scheme",
    "pde.solve_terminal_value": "scheme",
    "pde.DualityReport": "pde_value mc_mean mc_se grid_error gap tolerance interpolated passed",
    "pde.TwoGridValue": "fine coarse",
    "pde.solve_two_grid": "scheme",
    "projection.BinningSpec": "times edges min_count",
    "projection.MimickedCoefficients": (
        "spec b_hat d_hat occupancy mask n_paths clip fill_distance"),
    "projection.build_mimicking_model": "max_masked_fraction",
    "projection.MarginalComparison": "entries thresholds",
    "projection.compare_marginals": "g_list seed thresholds",
    "sdesim.TimeGrid": "start end step",
    "sdesim.DriverSums": "occupancy beta xi2 spec",
    "sdesim.PathEnsemble": (
        "grid states pre_clip_min_xd n_clipped_steps n_internal_steps drivers integrability_mean "
        "boundary_row_violations"),
    "sdesim.ItoDriver": "d coeffs advance_aux init_aux",
    "sdesim.regime_switching_driver": "hi_factor switch_rate",
    "sdesim._euler_paths": "observe",
    "sdesim._simulate": "observe",
    "sdesim.simulate_sde": "scheme store_stride observe",
    "sdesim.discounted_mean": "scheme",
    "sdesim.simulate_ito_process": "store_stride",
    "sdesim.SupportReport": (
        "violations max_negative_excursion_pre_clip p99_negative_excursion_pre_clip clip_fraction "
        "boundary_row_violations"),
}


def test_settable_values_are_pinned():
    # adding or dropping a default or a dataclass field is an edit to this
    # mapping, reviewed as a pin edit is, and the count is read off it
    src = Path(cli.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        found.update(_settable_values(ast.parse(path.read_text()), path.stem + "."))
    assert found == SETTABLE_VALUES
    assert sum(len(v.split()) for v in found.values()) == 150


# each config section the CLI forwards as keyword arguments: the call it
# configures, the keys its runner reads itself, and the CLI's own defaults
_ENSEMBLE_SIZES = ("n_paths", "step", "horizon")
FORWARDED = {
    "model.params": (cli.heston_model, (), cli._HESTON),
    "pde": (cli.Grid.build, ("scheme", "horizon"), cli._GRID),
    "driver": (cli.regime_switching_driver, ("kind",), {}),
    "binning": (cli.BinningSpec, ("kernel", "max_masked_fraction"), {}),
    "validator": (cli.validate_coefficients, (), {}),
    "martingale": (cli.martingale_test, ("test_functions",), {}),
    "restart": (cli.strong_markov_restart_test, (), cli._RESTART),
    "ensemble>simulate_sde": (cli.simulate_sde, _ENSEMBLE_SIZES, {}),
    "ensemble>simulate_ito_process": (cli.simulate_ito_process, (*_ENSEMBLE_SIZES, "scheme"), {}),
    **{f"ensemble>{f.__name__}": (f, (*_ENSEMBLE_SIZES, "store_stride"), {})
       for f in (cli.martingale_test, cli.discounted_mean, cli.strong_markov_restart_test)},
}


@pytest.mark.parametrize("case", FORWARDED)
def test_forwarded_keys_are_parameters_of_the_callee(case):
    # a library rename must fail here, not as a TypeError that run() does not
    # map to exit 2
    callee, own, defaults = FORWARDED[case]
    schema = cli.CONFIG_SCHEMA
    for key in case.partition(">")[0].split("."):
        schema = schema["properties"][key]
    keys = set(schema["properties"]) - set(own)
    assert keys and keys | set(defaults) <= set(inspect.signature(callee).parameters)


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
        # the stream's id and the versions that fix its bits: numpy the
        # Philox words, scipy the ndtri normals
        assert manifest["rng_stream"] == rng.STREAM == "philox4x64-ndtri/1"
        assert (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
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

    def test_martingale_kind_ignores_store_stride(self, tmp_path):
        # the check stores endpoints only, so the stride changes no byte of the report
        runs = []
        for stride in (1, 4):
            cfg = base_sim_config(tmp_path / str(stride), kind="martingale")
            cfg["ensemble"]["store_stride"] = stride
            status = cli.run(cfg)
            runs.append((status, (tmp_path / str(stride) / "out" / "report.json").read_bytes()))
        assert runs[0] == runs[1]

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
    def test_pde_kind_rejects_varying_killing(self, tmp_path, monkeypatch, capsys, c):
        # the constant-data check compares against the march's own value for
        # one rate c: a c that varies over the grid or in time is misuse
        heston = cli.heston_model(1.5, 0.04, 0.3, -0.5)
        varying = dataclasses.replace(heston, c=c, knots=None)
        monkeypatch.setattr(cli, "_model_from_config", lambda cfg: varying)
        cfg = base_sim_config(tmp_path, kind="pde")
        cfg["pde"] = {"dt": 1.0 / 16, "x_prime_extent": 1.5, "x_max": 0.5,
                      "counts": [9, 9], "horizon": 0.25}
        assert cli.run(cfg) == 2
        assert "constant in space and time" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_pde_kind_constant_payoff(self, tmp_path):
        # the march is linear, so a constant payoff of 2 is twice the
        # constant-data column, bit for bit in every extremum
        cfg = base_sim_config(tmp_path, kind="pde", duality={"g": {"type": "constant",
                                                                   "value": 2.0}})
        cfg["model"]["params"]["with_killing"] = True
        cfg["pde"] = {"dt": 1.0 / 16, "counts": [9, 9], "horizon": 0.25}
        assert cli.run(cfg) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        for key in ("layer_min", "layer_max", "inner_min", "inner_max"):
            assert report[key]["payoff"] == 2.0 * report[key]["constant"], key
        assert report["layer_min"]["constant"] < 1.0  # the killing acted
        u = np.loadtxt(tmp_path / "out" / "solution.csv", delimiter=",", skiprows=1)[:, -1]
        np.testing.assert_allclose(u, 2.0 * report["layer_min"]["constant"], rtol=1e-14)

    def test_duality_kind_rejects_a_start_after_zero(self, tmp_path, capsys):
        # both sides start at t = 0, so start.t = 0.25 would score v(0, x)
        cfg = base_sim_config(tmp_path, kind="duality", start={"t": 0.25, "x": [0.0, 0.09]})
        cfg["ensemble"] = {"n_paths": 200, "step": 2.0**-5, "horizon": 0.25}
        cfg["pde"] = {"dt": 1.0 / 16, "counts": [9, 9], "horizon": 0.25}
        assert cli.run(cfg) == 2
        assert capsys.readouterr().err.startswith("config error: the duality kind starts at "
                                                  "t = 0; start.t = 0.25")
        assert not (tmp_path / "out" / "report.json").exists()

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
        # the wrong-start control reads the solution at a shifted start
        cfg["duality"]["pde_eval_shift"] = [0.0, 0.05]
        assert cli.run(cfg) == 1

    def test_restart_kind(self, tmp_path):
        cfg = base_sim_config(tmp_path, kind="restart")
        cfg["ensemble"] = {"n_paths": 2000, "step": 2.0**-6, "horizon": 1.0}
        cfg["restart"] = {"level": 0.01, "t_cap": 0.5, "u": 0.25, "n_bins": 2,
                          "min_bin": 200, "ks_threshold": 0.1}
        assert cli.run(cfg) == 0

    def test_restart_kind_runs_the_ensemble_scheme(self, tmp_path, monkeypatch):
        # the two schemes' reports agree at this size, so the scheme is read
        # where the Euler kernel runs it, in the test's first pass and its restart
        schemes = []
        kernel = sdesim._euler_paths

        def spy(*args, **kwargs):
            schemes.append(inspect.signature(kernel).bind(*args, **kwargs).arguments["scheme"])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(sdesim, "_euler_paths", spy)
        monkeypatch.setattr(martingale, "_euler_paths", spy)
        cfg = base_sim_config(tmp_path, kind="restart")
        cfg["ensemble"] = {"n_paths": 400, "step": 2.0**-5, "horizon": 1.0,
                           "scheme": "absorbed_euler"}
        cfg["restart"] = {"level": 0.06, "t_cap": 0.25, "u": 0.125, "n_bins": 2,
                          "min_bin": 50, "ks_threshold": 0.5}
        assert cli.run(cfg) == 0
        del cfg["ensemble"]["scheme"]
        assert cli.run(cfg) == 0
        assert schemes == ["absorbed_euler"] * 2 + ["full_truncation"] * 2

    def test_project_driver_ensemble_ignores_the_scheme(self, tmp_path):
        # the driver ensemble always steps absorbed Euler, so ensemble.scheme
        # leaves the estimated lattice as it is
        written = []
        for scheme in sdesim.SCHEMES:
            out = tmp_path / scheme
            cfg = base_sim_config(tmp_path, kind="project", output_dir=str(out),
                                  binning=SMALL_BINNING)
            cfg["ensemble"] = {"n_paths": 400, "step": 2.0**-5, "horizon": 0.5, "scheme": scheme}
            assert cli.run(cfg) == 0
            written.append((out / "mimicked.csv").read_bytes())
        assert len(sdesim.SCHEMES) == 2 and written[0] == written[1]

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
        code = "import mimicsde.cli, sys; assert 'scipy.stats' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True, timeout=120)

    def test_main_runs_config_file(self, tmp_path):
        cfg = base_sim_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["run", "--config", str(path)]) == 0

    def test_config_file_not_json_is_misuse(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"kind": "simulate",')
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path, capsys):
        # the flag could never take effect: threadpoolctl is no dependency
        path = write_config(tmp_path, base_sim_config(tmp_path))
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", "--config", str(path), "--threads", "1"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_records_heap_thresholds(self, tmp_path):
        assert cli.run(base_sim_config(tmp_path)) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        # glibc has mallopt; another C library leaves its allocator as it is
        assert manifest["heap_applied"] is (platform.libc_ver()[0] == "glibc")
        assert (manifest["heap_mmap_threshold"], manifest["heap_trim_threshold"]) == (2**25, 2**26)
        assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0

    def test_run_without_mallopt_is_byte_identical(self, tmp_path):
        # (n, 2, 2) step arrays of 256 KiB, above glibc's default mmap threshold
        applied = base_sim_config(tmp_path / "applied")
        applied["ensemble"]["n_paths"] = 8192
        assert cli.run(applied) == 0
        # a fresh process, so the allocator keeps glibc's default thresholds
        plain = {**applied, "output_dir": str(tmp_path / "plain" / "out")}
        code = ("import ctypes, json, sys; ctypes.CDLL = lambda name: object(); "
                "from mimicsde import cli; sys.exit(cli.run(json.loads(sys.argv[1])))")
        subprocess.run([sys.executable, "-c", code, json.dumps(plain)], env=_src_env(),
                       check=True, timeout=120)
        manifest = json.loads((tmp_path / "plain" / "out" / "manifest.json").read_text())
        assert manifest["heap_applied"] is False
        for name in ("report.json", "ensemble.csv"):
            assert ((tmp_path / "plain" / "out" / name).read_bytes()
                    == (tmp_path / "applied" / "out" / name).read_bytes())
