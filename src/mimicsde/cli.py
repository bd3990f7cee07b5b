"""Experiment orchestration: one JSON config in, one directory of artifacts out.

Every run validates its config against the JSON schema below before any
compute, executes one pipeline, writes CSV data artifacts plus a
``report.json``, and records a ``manifest.json`` with the config hash, package
version, wall-clock time, and whether a ``--threads`` cap took effect.  Exit
status: 0 when all asserted checks pass, 1 on a check failure (the report is
still written), 2 on misuse: a schema violation, or ``--break-generator`` on a
kind other than martingale and duality.

The runners share one set of stages: :func:`run` resolves the model and its
checking copy once; ``_start``, ``_time_grid`` and ``_ensemble`` read the start
point and time grid and simulate a model over it; ``_projection_stage``
estimates, builds, saves and validates the mimicking model; ``_coordinates``
and ``_DEFAULT_PAYOFF`` are the shared test statistics and terminal payoff.
The ``pde`` kind is one march: its constant-data check and terminal-value solve
are two columns of one time-reversed march that assembles each step's stages once.

Seeds are mandatory — there are no entropy defaults — so re-running a config
reproduces byte-identical CSV artifacts (the manifest timestamp aside).  The
``--break-generator`` flag deliberately corrupts the generator used on the
*checking* side of the martingale and duality pipelines, the only kinds that
take it; it exists so the suite can demonstrate its own negative controls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .coeffs import heston_model, load_gridded_model, strip_generator_term, validate_coefficients
from .geometry import SpaceTimePoint
from .martingale import (
    boundary_bump,
    constant_probe,
    left_coordinate_probe,
    linear_function,
    martingale_test,
    radial_bump,
    strong_markov_restart_test,
)
from .pde import THETA, Grid, _march, duality_check, killing_on_grid, time_reversed_model
from .projection import (
    BinningSpec,
    build_mimicking_model,
    compare_marginals,
    estimate_mimicking_coefficients,
    save_mimicked,
)
from .sdesim import (
    TimeGrid,
    ensemble_to_csv,
    model_driver,
    regime_switching_driver,
    simulate_ito_process,
    simulate_sde,
    support_check,
)

_log = logging.getLogger(__name__)

# terminal payoff of the pde and duality kinds when the config names none
_DEFAULT_PAYOFF = {"type": "radial_bump", "center": [0.0, 0.04], "radius": 0.5}


def _model_from_config(cfg: dict):
    spec = cfg.get("model", {})
    if "gridded" in spec:
        g = spec["gridded"]
        return load_gridded_model(g["csv"], g.get("sidecar"))
    params = dict(spec.get("params", {}))
    return heston_model(
        kappa=params.get("kappa", 1.5), theta=params.get("theta", 0.04),
        zeta=params.get("zeta", 0.3), rho=params.get("rho", -0.5),
        r=params.get("r", 0.02), q=params.get("q", 0.0),
        with_killing=params.get("with_killing", False),
    )


def _test_function_from_spec(spec: dict):
    kind = spec.get("type", "radial_bump")
    if kind == "linear":
        return linear_function(spec["weights"])
    if kind == "radial_bump":
        return radial_bump(spec["center"], spec["radius"])
    if kind == "boundary_bump":
        return boundary_bump(spec["center_prime"], spec["radius"])
    raise ValueError(f"unknown test function type {kind!r}")


def _payoff_from_spec(spec: dict):
    kind = spec.get("type", "constant")
    if kind == "constant":
        val = float(spec.get("value", 1.0))
        return lambda x: np.full(np.asarray(x).shape[0], val)
    tf = _test_function_from_spec(spec)
    return lambda x: tf.jet(0.0, x)[0]


def _grid_from_config(pcfg: dict) -> Grid:
    return Grid.build(
        dt=pcfg.get("dt", 1.0 / 256),
        x_prime_extent=pcfg.get("x_prime_extent", 1.5),
        x_max=pcfg.get("x_max", 0.5),
        counts=pcfg.get("counts", [65, 65]),
        xd_stretch=pcfg.get("xd_stretch", 1.0),
    )


def _start(cfg: dict) -> SpaceTimePoint:
    s = cfg.get("start", {"t": 0.0, "x": [0.0, 0.09]})
    return SpaceTimePoint(s.get("t", 0.0), tuple(s["x"]))


def _time_grid(cfg: dict, start: SpaceTimePoint) -> TimeGrid:
    e = cfg["ensemble"]
    return TimeGrid(start.t, start.t + e["horizon"], e["step"])


def _ensemble(cfg: dict, model, start: SpaceTimePoint, seed: int):
    e = cfg["ensemble"]
    return simulate_sde(model, start, _time_grid(cfg, start), e["n_paths"], seed,
                        scheme=e.get("scheme", "full_truncation"),
                        store_stride=e.get("store_stride", 1))


def _coordinates(d: int) -> list:
    """The coordinate functions x_1, ..., x_d, as named test statistics."""
    return [(f"x_{i+1}", lambda x, i=i: x[:, i]) for i in range(d)]


def _driver_from_config(cfg: dict, model):
    d = cfg.get("driver", {"kind": "markov_replay"})
    if d.get("kind", "markov_replay") == "markov_replay":
        return model_driver(model)
    return regime_switching_driver(
        model, hi_factor=d.get("hi_factor", 1.5),
        switch_rate=d.get("switch_rate", 2.0),
        p_start_hi=d.get("p_start_hi", 0.5),
    )


def _binning_from_config(cfg: dict) -> BinningSpec:
    b = cfg["binning"]
    return BinningSpec(
        times=tuple(b["times"]),
        edges=tuple(np.asarray(e, dtype=float) for e in b["edges"]),
        kernel=b.get("kernel", "box"),
        bandwidth=tuple(b["bandwidth"]) if b.get("bandwidth") else None,
        min_count=b.get("min_count", 20.0),
    )


def _projection_stage(cfg, out, seed, model, start):
    """Driver ensemble -> estimated coefficients -> built model, saved and validated;
    returns the driver ensemble, the built model and the report fields they share."""
    e = cfg["ensemble"]
    ens = simulate_ito_process(_driver_from_config(cfg, model), np.asarray(start.x),
                               _time_grid(cfg, start), e["n_paths"], seed,
                               record_drivers=True, store_stride=e.get("store_stride", 1))
    mc = estimate_mimicking_coefficients(ens, _binning_from_config(cfg))
    cap = cfg["binning"].get("max_masked_fraction", 0.9)
    built = build_mimicking_model(mc, max_masked_fraction=cap)
    save_mimicked(mc, out / "mimicked.csv", out / "mimicked.csv.meta.json")
    vrep = validate_coefficients(built, seed=seed, n_samples=1024, pair_budget=1024)
    return ens, built, {"masked_fraction": mc.masked_fraction,
                        "built_model_validation": vrep.to_json()}


def _run_simulate(cfg, out, seed, model, check_model):
    ens = _ensemble(cfg, model, _start(cfg), seed)
    with open(out / "ensemble.csv", "w", newline="") as fh:
        ensemble_to_csv(ens, fh)
    rep = support_check(ens)
    return rep.violations == 0, {"support": rep.to_json()}


def _run_validate(cfg, out, seed, model, check_model):
    v = cfg.get("validator", {})
    rep = validate_coefficients(model, seed=seed, n_samples=v.get("n_samples", 4096),
                                pair_budget=v.get("pair_budget", 4096),
                                t_max=v.get("t_max", 1.0), alphas=v.get("alphas"))
    return rep.passed, {"validation": rep.to_json()}


def _run_martingale(cfg, out, seed, model, check_model):
    ens = _ensemble(cfg, model, _start(cfg), seed)
    m = cfg.get("martingale", {})
    specs = m.get("test_functions", [
        {"type": "linear", "weights": [1.0, 0.0]},
        {"type": "radial_bump", "center": [0.0, 0.05], "radius": 1.0},
        {"type": "boundary_bump", "center_prime": [0.0], "radius": 0.6},
    ])
    probes = [constant_probe()] + [left_coordinate_probe(i) for i in range(model.d)]
    reports = martingale_test(ens, check_model, [_test_function_from_spec(s) for s in specs],
                              probes, n_intervals=m.get("n_intervals", 4),
                              z_crit=m.get("z_crit", 3.0), fail_crit=m.get("fail_crit", 5.0))
    return all(r.passed for r in reports), {"martingale": [r.to_json() for r in reports]}


def _run_project(cfg, out, seed, model, check_model):
    ens, _, fields = _projection_stage(cfg, out, seed, model, _start(cfg))
    return True, {**fields, "integrability_mean": ens.integrability_mean}


def _run_pde(cfg, out, seed, model, check_model):
    p = cfg.get("pde", {})
    grid = _grid_from_config(p)
    horizon = p.get("horizon", 0.5)
    scheme = p.get("scheme", "implicit_euler")

    march_times = np.linspace(0.0, horizon, int(round(horizon / grid.dt)) + 1)
    has_killing, rate = killing_on_grid(model, grid, march_times)
    if rate is None:
        raise ValueError("the constant-data check needs a killing rate c that is constant "
                         "in space and time; c varies over the grid nodes or march times")
    # one time-reversed march: column 1 ends at v(0, .); column 0 is constant
    # data, whose value is exact at any dt because the constant rate survives
    # reversal: each theta-step multiplies by (1 + (1 - theta) c dt) / (1 - theta c dt)
    g = _payoff_from_spec(cfg.get("duality", {}).get("g", _DEFAULT_PAYOFF))
    nodes = grid.nodes()
    block = np.column_stack([np.ones(grid.n_nodes), g(nodes)])
    sol_const, sol = _march(time_reversed_model(model, horizon), None, block, grid, horizon,
                            scheme, "ends")
    theta = THETA[scheme]
    expected = ((1.0 + (1.0 - theta) * rate * grid.dt)
                / (1.0 - theta * rate * grid.dt)) ** (march_times.size - 1)
    const_err = float(np.abs(sol_const.values[-1] - expected).max())

    with open(out / "solution.csv", "w", newline="") as fh:
        fh.write("t," + ",".join(f"x_{j+1}" for j in range(grid.d)) + ",u\n")
        for x, u in zip(nodes, sol.values[-1].ravel()):
            fh.write(",".join(map(repr, [0.0, *map(float, x), float(u)])) + "\n")
    ok = const_err <= 1e-8
    # where the march left the paper's class (b_d < 0 on the boundary layer)
    # and what that did to each column's range, over all nodes and over the
    # non-outer nodes the extrapolation closure does not reach; reported, not gated
    cols = {"constant": sol_const, "payoff": sol}
    return ok, {"constant_data_error": const_err, "killing": has_killing,
                "scheme": scheme, "downwind_rows": sol.meta["downwind_rows"],
                "min_boundary_bd": sol.meta["min_boundary_bd"],
                "layer_min": {k: float(s.layer_min.min()) for k, s in cols.items()},
                "layer_max": {k: float(s.layer_max.max()) for k, s in cols.items()},
                "inner_min": {k: s.meta["inner_min"] for k, s in cols.items()},
                "inner_max": {k: s.meta["inner_max"] for k, s in cols.items()}}


def _run_duality(cfg, out, seed, model, check_model):
    dcfg = cfg.get("duality", {})
    p = cfg.get("pde", {})
    grid = _grid_from_config(p)
    horizon = dcfg.get("horizon", p.get("horizon", 0.5))
    g = _payoff_from_spec(dcfg.get("g", _DEFAULT_PAYOFF))
    e = cfg.get("ensemble", {"n_paths": 20000, "step": 2.0**-9, "horizon": horizon})
    # the break corrupts only the solver side; the simulation stays faithful
    rep = duality_check(
        check_model, g, np.asarray(_start(cfg).x), horizon, grid,
        mc_paths=e["n_paths"], mc_step=e["step"], mc_seed=seed,
        mc_scheme=e.get("scheme", "full_truncation"),
        scheme=p.get("scheme", "implicit_euler"),
        pde_eval_shift=dcfg.get("pde_eval_shift"),
        mc_model=model,
    )
    return rep.passed, {"duality": rep.to_json()}


def _run_restart(cfg, out, seed, model, check_model):
    r = cfg.get("restart", {})
    e = cfg.get("ensemble", {"n_paths": 10000, "step": 2.0**-7})
    rep = strong_markov_restart_test(
        model, _start(cfg),
        level=r.get("level", 0.01), t_cap=r.get("t_cap", 0.5), u=r.get("u", 0.25),
        g_list=_coordinates(model.d),
        n_paths=e["n_paths"], h=e["step"], seed=seed,
        n_bins=r.get("n_bins", 4), min_bin=r.get("min_bin", 200),
        ks_threshold=r.get("ks_threshold", 0.05),
        perturb=r.get("perturb"),
    )
    return rep.passed, {"restart": rep.to_json()}


def _run_full_mimic(cfg, out, seed, model, check_model):
    start = _start(cfg)
    ens, built, fields = _projection_stage(cfg, out, seed, model, start)
    mimic = _ensemble(cfg, built, start, seed + 1)
    comparison = compare_marginals(
        ens, mimic, cfg.get("compare_times", [0.25, 0.5, 1.0]),
        g_list=_coordinates(ens.d), seed=seed, thresholds=cfg.get("thresholds"),
    )
    return comparison.passed, {"comparison": comparison.to_json(), **fields}


_RUNNERS = {"simulate": _run_simulate, "validate": _run_validate,
            "martingale": _run_martingale, "project": _run_project, "pde": _run_pde,
            "duality": _run_duality, "restart": _run_restart, "full-mimic": _run_full_mimic}
KINDS = tuple(_RUNNERS)
# the kinds with a checking side for --break-generator to corrupt
_CHECKING_KINDS = ("martingale", "duality")

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["kind", "seed", "output_dir"],
    "properties": {
        "kind": {"enum": list(KINDS)},
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "model": {
            "type": "object",
            "properties": {
                "builtin": {"enum": ["heston"]},
                "params": {"type": "object"},
                "gridded": {
                    "type": "object",
                    "required": ["csv"],
                    "properties": {"csv": {"type": "string"}, "sidecar": {"type": "string"}},
                },
            },
        },
        "start": {
            "type": "object",
            "required": ["x"],
            "properties": {
                "t": {"type": "number", "minimum": 0},
                "x": {"type": "array", "items": {"type": "number"}, "minItems": 1},
            },
        },
        "ensemble": {
            "type": "object",
            "required": ["n_paths", "step", "horizon"],
            "properties": {
                "n_paths": {"type": "integer", "minimum": 1},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "scheme": {"enum": ["full_truncation", "absorbed_euler"]},
                "store_stride": {"type": "integer", "minimum": 1},
            },
        },
        "driver": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["markov_replay", "regime_switching"]},
                "hi_factor": {"type": "number", "exclusiveMinimum": 0},
                "switch_rate": {"type": "number", "minimum": 0},
                "p_start_hi": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "binning": {
            "type": "object",
            "required": ["times", "edges"],
            "properties": {
                "times": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "edges": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "kernel": {"enum": ["box", "gaussian"]},
                "bandwidth": {"type": ["array", "null"]},
                "min_count": {"type": "number", "exclusiveMinimum": 0},
                "max_masked_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "pde": {
            "type": "object",
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "x_prime_extent": {"type": "number", "exclusiveMinimum": 0},
                "x_max": {"type": "number", "exclusiveMinimum": 0},
                "counts": {"type": "array", "items": {"type": "integer", "minimum": 3}},
                "xd_stretch": {"type": "number", "minimum": 1},
                "scheme": {"enum": ["implicit_euler", "crank_nicolson"]},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "martingale": {
            "type": "object",
            "properties": {
                "n_intervals": {"type": "integer", "minimum": 2},
                "z_crit": {"type": "number", "exclusiveMinimum": 0},
                "fail_crit": {"type": "number", "exclusiveMinimum": 0},
                "test_functions": {"type": "array"},
            },
        },
        "duality": {"type": "object"},
        "restart": {
            "type": "object",
            "properties": {
                "level": {"type": "number"},
                "t_cap": {"type": "number", "exclusiveMinimum": 0},
                "u": {"type": "number", "exclusiveMinimum": 0},
                "n_bins": {"type": "integer", "minimum": 1},
                "min_bin": {"type": "integer", "minimum": 1},
                "ks_threshold": {"type": "number", "exclusiveMinimum": 0},
                "perturb": {"type": ["array", "null"]},
            },
        },
        "thresholds": {
            "type": "object",
            "properties": {
                "ks": {"type": "number", "exclusiveMinimum": 0},
                "gap_z": {"type": "number", "exclusiveMinimum": 0},
                "w1": {"type": ["number", "null"]},
            },
        },
        "compare_times": {"type": "array", "items": {"type": "number"}},
        "validator": {"type": "object"},
    },
}


def run(config: dict, threads: int | None = None, break_generator: str | None = None) -> int:
    """Validate the config, execute its pipeline, write artifacts, return exit status."""
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        print(f"config schema violation: {exc.message}", file=sys.stderr)
        return 2
    kind = config["kind"]
    if break_generator is not None and kind not in _CHECKING_KINDS:
        print(f"--break-generator applies to the {' and '.join(_CHECKING_KINDS)} kinds, "
              f"not {kind!r}", file=sys.stderr)
        return 2

    threads_applied = False
    if threads is not None:
        try:
            import threadpoolctl
        except ImportError:
            # results are thread-count independent; the cap is best-effort
            _log.warning("--threads %d not applied: threadpoolctl is not installed", threads)
        else:
            threadpoolctl.threadpool_limits(threads)
            threads_applied = True

    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    model = _model_from_config(config)
    check_model = strip_generator_term(model, break_generator) if break_generator else model
    ok, payload = _RUNNERS[kind](config, out, config["seed"], model, check_model)
    wallclock = time.monotonic() - t_start

    report = {"kind": kind, "passed": bool(ok), **payload}
    if kind in _CHECKING_KINDS:
        report["broken_generator"] = break_generator
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    manifest = {
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "wallclock_s": wallclock,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "threads": threads,
        "threads_applied": threads_applied,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mimicsde",
                                     description="degenerate half-space diffusion pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a pipeline from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--threads", type=int, default=None,
                      help="cap worker threads (results are unaffected)")
    runp.add_argument("--break-generator", choices=["drift", "diffusion"], default=None,
                      help="negative control: corrupt the checking-side generator "
                           "(martingale and duality kinds only)")
    args = parser.parse_args(argv)
    with open(args.config) as fh:
        config = json.load(fh)
    return run(config, threads=args.threads, break_generator=args.break_generator)


if __name__ == "__main__":
    sys.exit(main())
