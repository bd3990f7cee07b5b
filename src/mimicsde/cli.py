"""Experiment orchestration: one JSON config in, one directory of artifacts out.

Every run validates its config against the JSON schema below before any
compute, executes one pipeline, writes CSV data artifacts plus a
``report.json``, and records a ``manifest.json`` with the config hash, package
version, random stream id with the numpy and scipy versions that fix its bits,
wall-clock time, the pipeline's minor page faults, and whether glibc's mmap
and trim thresholds were raised so that each Euler step's arrays are reused
from the heap rather than mapped afresh (``heap_applied``, with both
thresholds; results are unaffected).  Exit
status: 0 when all asserted checks pass, 1 on a check failure (the report is
still written), 2 on misuse: a schema violation (an unknown key included, in
a typed payoff or test function too, a gridded model next to ``builtin`` or
``params``, a regime-switching ``driver`` parameter without ``"kind":
"regime_switching"``, or a kind without a section it has no fallback for:
``ensemble`` for simulate, martingale, project and full-mimic, ``binning`` for
project and full-mimic), ``--break-generator`` on a kind other than
martingale and duality, a config file that is not JSON, or a config the
library rejects with a ``ValueError``: among them an empty ``binning.edges``,
``pde.counts`` or ``compare_times``, a martingale time grid of fewer steps
than ``n_intervals``, a duality run whose ``start.t`` is not 0 (both of its
sides start at t = 0) or a gridded model whose files cannot be read
(``config error: ...`` on stderr; no report or manifest).  Once the schema
and ``--break-generator`` checks pass, every artifact a run writes that an
earlier run left in ``output_dir`` is deleted, save the gridded model this run
reads (``model.gridded.csv`` and its sidecar ``<csv>.meta.json``), so a run
that is then rejected, or that raises, leaves no earlier report or data behind.

Config keys are the keyword names of the call each section configures, so a
default lives in that call's signature: ``model.params`` goes to
``heston_model``; ``pde`` less ``scheme`` and ``horizon`` to ``Grid.build``;
``driver`` less ``kind`` to ``regime_switching_driver``; ``binning`` less
``kernel`` and ``max_masked_fraction`` to ``BinningSpec``; ``validator`` to
``validate_coefficients``; ``martingale`` less ``test_functions`` to
``martingale_test``; ``restart`` to ``strong_markov_restart_test``; and
``ensemble.scheme`` and ``store_stride`` to the simulators.  The estimator is
the box-cell mean alone: ``binning.kernel`` accepts only ``"box"``
(``"gaussian"`` exits 2), and ``binning.bandwidth`` is no longer a key, so a
config that names it exits 2.  The driver
ensemble of project and full-mimic always steps absorbed Euler
(:func:`.sdesim.simulate_ito_process` takes no scheme), so ``ensemble.scheme``
reaches only full-mimic's mimic ensemble.  That ensemble sums its drivers
into the lattice cells as it steps, so ``binning`` is validated before any
driver path is simulated: ``binning.times`` must be strictly increasing (they
become the built model's knots), and each must be a node of the time
grid, stored or not (``store_stride`` thins the stored states alone).  The CLI's own
defaults are those no signature holds or that differ on purpose, each with its
reason where it is set: the Heston parameters (r = 0.02, not 0), the PDE grid,
the restart's ``level``, ``t_cap`` and ``u``, and ``max_masked_fraction`` 0.9
(not 0.5); and what no library call chooses: the start point, the payoff, the
martingale test functions, ``compare_times``, the pde kind's horizon and scheme
(it runs the march, which takes no defaults), and the duality and restart
ensembles.

The runners share one set of stages: :func:`run` resolves the model and its
checking copy once; ``_start``, ``_time_grid`` and ``_ensemble`` read the start
point and time grid and simulate a model over it (the martingale kind's one
simulation, in :func:`.martingale.martingale_test`, stores endpoints only and
does not read ``ensemble.store_stride``; the restart kind reads
``ensemble.n_paths``, ``step`` and ``scheme`` only, over the horizon
``t_cap + u``, so it ignores ``ensemble.horizon`` and ``store_stride``);
``_projection_stage`` estimates, builds, saves and validates the mimicking
model; ``_coordinates`` and ``_DEFAULT_PAYOFF`` are the shared test statistics
and terminal payoff.
The ``pde`` kind is one march: its constant-data check and terminal-value solve
are two columns of one time-reversed march, and the check takes its one killing rate
from the range of c the march applied (``meta`` ``c_min``, ``c_max``), raising if it varies.
It reads its terminal payoff from ``duality.g`` (default: radial bump at (0, 0.04), radius 0.5).

Seeds are mandatory — there are no entropy defaults — so re-running a config
reproduces byte-identical CSV artifacts (the manifest timestamp aside), each
written by :func:`.sdesim.write_csv`.  The ``--break-generator`` flag
deliberately corrupts the generator used on the *checking* side of the
martingale and duality pipelines, the only kinds that take it; it exists so
the suite can demonstrate its own negative controls.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__, pde, rng, sdesim
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
from .pde import THETA, Grid, _march, solve_two_grid, time_reversed_model
from .projection import (
    BinningSpec,
    build_mimicking_model,
    compare_marginals,
    estimate_mimicking_coefficients,
    save_mimicked,
)
from .sdesim import (
    TimeGrid,
    discounted_mean,
    ensemble_to_csv,
    model_driver,
    regime_switching_driver,
    simulate_ito_process,
    simulate_sde,
    support_check,
    write_csv,
)

# heston_model requires these; r = 0.02, where it has 0, is the acceptance suite's rate
_HESTON = {"kappa": 1.5, "theta": 0.04, "zeta": 0.3, "rho": -0.5, "r": 0.02}
# Grid.build and strong_markov_restart_test require these
_GRID = {"dt": 1.0 / 256, "x_prime_extent": 1.5, "x_max": 0.5, "counts": [65, 65]}
_RESTART = {"level": 0.01, "t_cap": 0.5, "u": 0.25}
# terminal payoff of the pde and duality kinds when the config names none
_DEFAULT_PAYOFF = {"type": "radial_bump", "center": [0.0, 0.04], "radius": 0.5}
# glibc's mallopt parameters and the values where its own dynamic mmap threshold
# stops (32 MiB on 64-bit, trim twice that): at the default 128 KiB every
# (n, d) and (n, d, d) step array is mapped, zero-filled and unmapped afresh
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20
# every file a run writes, cleared before it computes
_ARTIFACTS = ("report.json", "manifest.json", "ensemble.csv", "mimicked.csv",
              "mimicked.csv.meta.json", "solution.csv")


def _model_from_config(cfg: dict):
    spec = cfg.get("model", {})
    if "gridded" in spec:
        g = spec["gridded"]
        try:
            return load_gridded_model(g["csv"])
        except OSError as exc:  # a missing or unreadable file is misuse, like a bad value
            raise ValueError(f"cannot read the gridded model: {exc}") from exc
    return heston_model(**{**_HESTON, **spec.get("params", {})})


def _test_function_from_spec(spec: dict, d: int):
    """The test function ``spec`` names, on R^d; a point of another length is misuse."""
    kind = spec.get("type", "radial_bump")
    key = {"linear": "weights", "radial_bump": "center"}.get(kind, "center_prime")
    want = d if key != "center_prime" else d - 1
    if len(spec[key]) != want:
        raise ValueError(f"{kind}'s {key} has {len(spec[key])} entries; "
                         f"the model's dimension {d} needs {want}")
    if kind == "linear":
        return linear_function(spec["weights"])
    if kind == "radial_bump":
        return radial_bump(spec["center"], spec["radius"])
    return boundary_bump(spec["center_prime"], spec["radius"])


def _payoff_from_spec(spec: dict, d: int):
    if spec.get("type", "constant") == "constant":
        val = float(spec["value"])
        return lambda x: np.full(np.asarray(x).shape[0], val)
    tf = _test_function_from_spec(spec, d)
    return lambda x: tf.jet(0.0, x)[0]


def _without(section: dict, *keys: str) -> dict:
    """``section`` less the keys its runner reads itself."""
    return {k: v for k, v in section.items() if k not in keys}


def _only(section: dict, *keys: str) -> dict:
    """The entries of ``section`` that are keys in ``keys``."""
    return {k: section[k] for k in keys if k in section}


def _grid(cfg: dict, d: int) -> Grid:
    grid = Grid.build(**{**_GRID, **_without(cfg.get("pde", {}), "scheme", "horizon")})
    if grid.d != d:  # before a payoff reads the nodes
        raise ValueError(f"pde.counts has {grid.d} entries; the model's dimension is {d}")
    return grid


def _start(cfg: dict) -> SpaceTimePoint:
    s = cfg.get("start", {"t": 0.0, "x": [0.0, 0.09]})
    return SpaceTimePoint(s.get("t", 0.0), tuple(s["x"]))


def _time_grid(cfg: dict, start: SpaceTimePoint) -> TimeGrid:
    e = cfg["ensemble"]
    return TimeGrid(start.t, start.t + e["horizon"], e["step"])


def _ensemble(cfg: dict, model, start: SpaceTimePoint, seed: int):
    e = cfg["ensemble"]
    return simulate_sde(model, start, _time_grid(cfg, start), e["n_paths"], seed,
                        **_only(e, "scheme", "store_stride"))


def _coordinates(d: int) -> list:
    """The coordinate functions x_1, ..., x_d, as named test statistics."""
    return [(f"x_{i+1}", lambda x, i=i: x[:, i]) for i in range(d)]


def _projection_stage(cfg, out, seed, model, start):
    """Driver ensemble -> estimated coefficients -> built model, saved and validated;
    returns the driver ensemble, the built model and the report fields they share."""
    e, b, d = cfg["ensemble"], cfg["binning"], cfg.get("driver", {})
    spec = BinningSpec(**_without(b, "kernel", "max_masked_fraction"))
    if not np.all(np.diff(spec.times) > 0):  # the built model's knots
        raise ValueError(f"binning.times must be strictly increasing, got {list(spec.times)}")
    driver = (regime_switching_driver(model, **_without(d, "kind"))
              if d.get("kind") == "regime_switching" else model_driver(model))
    ens = simulate_ito_process(driver, np.asarray(start.x), _time_grid(cfg, start),
                               e["n_paths"], seed, spec, **_only(e, "store_stride"))
    mc = estimate_mimicking_coefficients(ens)
    # a pipeline fills and reports its masked cells, so it accepts more than the
    # library's 0.5, which a lattice loaded as model.gridded must still meet
    built = build_mimicking_model(mc, max_masked_fraction=b.get("max_masked_fraction", 0.9))
    save_mimicked(mc, out / "mimicked.csv")
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
    rep = validate_coefficients(model, seed=seed, **cfg.get("validator", {}))
    return rep.passed, {"validation": rep.to_json()}


def _run_martingale(cfg, out, seed, model, check_model):
    start, e = _start(cfg), cfg["ensemble"]
    m = cfg.get("martingale", {})
    specs = m.get("test_functions", [
        {"type": "linear", "weights": [1.0, 0.0]},
        {"type": "radial_bump", "center": [0.0, 0.05], "radius": 1.0},
        {"type": "boundary_bump", "center_prime": [0.0], "radius": 0.6},
    ])
    probes = [constant_probe()] + [left_coordinate_probe(i) for i in range(model.d)]
    tests = [_test_function_from_spec(s, model.d) for s in specs]
    reports = martingale_test(model, check_model, tests, probes, start, _time_grid(cfg, start),
                              e["n_paths"], seed, **_only(e, "scheme"),
                              **_without(m, "test_functions"))
    return all(r.passed for r in reports), {"martingale": [r.to_json() for r in reports]}


def _run_project(cfg, out, seed, model, check_model):
    ens, _, fields = _projection_stage(cfg, out, seed, model, _start(cfg))
    return True, {**fields, "integrability_mean": ens.integrability_mean}


def _run_pde(cfg, out, seed, model, check_model):
    p = cfg.get("pde", {})
    grid = _grid(cfg, model.d)
    horizon = p.get("horizon", 0.5)
    scheme = p.get("scheme", "implicit_euler")

    # one time-reversed march: column 1 ends at v(0, .); column 0 is constant
    # data, whose value is exact at any dt because the constant rate survives
    # reversal: each theta-step multiplies by (1 + (1 - theta) c dt) / (1 - theta c dt)
    g = _payoff_from_spec(cfg.get("duality", {}).get("g", _DEFAULT_PAYOFF), model.d)
    nodes = grid.nodes()
    block = np.column_stack([np.ones(grid.n_nodes), g(nodes)])
    sol_const, sol = _march(time_reversed_model(model, horizon), block, grid, horizon, scheme)
    rate = sol.meta["c_min"]
    if rate != sol.meta["c_max"]:
        raise ValueError("the constant-data check needs a killing rate c that is constant "
                         "in space and time; the march applied c from "
                         f"{rate:.6g} to {sol.meta['c_max']:.6g}")
    theta = THETA[scheme]
    expected = ((1.0 + (1.0 - theta) * rate * grid.dt)
                / (1.0 - theta * rate * grid.dt)) ** sol.meta["n_steps"]
    const_err = float(np.abs(sol_const.values - expected).max())

    with open(out / "solution.csv", "w", newline="") as fh:
        write_csv(fh, ["t", *(f"x_{j+1}" for j in range(grid.d)), "u"],
                  [[np.zeros(grid.n_nodes), *nodes.T, sol.values.ravel()]])
    ok = const_err <= 1e-8
    # where the march left the paper's class (b_d < 0 on the boundary layer)
    # and what that did to each column's range, over all nodes and over the
    # non-outer nodes the extrapolation closure does not reach; reported, not gated
    cols = {"constant": sol_const, "payoff": sol}
    return ok, {"constant_data_error": const_err, "killing": rate != 0.0,
                "scheme": scheme, "downwind_rows": sol.meta["downwind_rows"],
                "min_boundary_bd": sol.meta["min_boundary_bd"],
                "layer_min": {k: s.layer_min for k, s in cols.items()},
                "layer_max": {k: s.layer_max for k, s in cols.items()},
                "inner_min": {k: s.meta["inner_min"] for k, s in cols.items()},
                "inner_max": {k: s.meta["inner_max"] for k, s in cols.items()}}


def _run_duality(cfg, out, seed, model, check_model):
    dcfg = cfg.get("duality", {})
    p = cfg.get("pde", {})
    horizon = dcfg.get("horizon", p.get("horizon", 0.5))
    g = _payoff_from_spec(dcfg.get("g", _DEFAULT_PAYOFF), model.d)
    e = cfg.get("ensemble", {"n_paths": 20000, "step": 2.0**-9})
    start = _start(cfg)
    if start.t != 0.0:  # discounted_mean and solve_two_grid both start at t = 0
        raise ValueError(f"the duality kind starts at t = 0; start.t = {start.t:g} is not 0")
    x = np.asarray(start.x)
    grid = _grid(cfg, model.d)
    # pde_eval_shift moves only the point the solution is read at: a wrong-start
    # control; it must lie in the box, checked before any path or solve
    x_pde = grid.check_inside(x + np.asarray(dcfg.get("pde_eval_shift", 0.0)))
    mc_mean, mc_se = discounted_mean(model, g, x, horizon, e["n_paths"], e["step"], seed,
                                     **_only(e, "scheme"))
    # the break corrupts only the solver side; the simulation stays faithful
    pde_side = solve_two_grid(check_model, g, horizon, grid, **_only(p, "scheme"))
    rep = pde_side.report(x_pde, mc_mean, mc_se)
    return rep.passed, {"duality": rep.to_json()}


def _run_restart(cfg, out, seed, model, check_model):
    e = cfg.get("ensemble", {"n_paths": 10000, "step": 2.0**-7})
    rep = strong_markov_restart_test(
        model, _start(cfg), g_list=_coordinates(model.d), n_paths=e["n_paths"], h=e["step"],
        seed=seed, **_only(e, "scheme"), **{**_RESTART, **cfg.get("restart", {})})
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

_NUMBERS = {"type": "array", "items": {"type": "number"}, "minItems": 1}
# each test function type's keys, all required
_TEST_FUNCTION_KEYS = {
    "linear": {"weights": _NUMBERS},
    "radial_bump": {"center": _NUMBERS, "radius": {"type": "number"}},
    "boundary_bump": {"center_prime": _NUMBERS, "radius": {"type": "number"}},
}


def _typed_schema(default: str, keys: dict) -> dict:
    """A closed object schema per ``type``, all its keys required; ``default`` needs no ``type``."""
    return {"oneOf": [{"type": "object", "additionalProperties": False,
                       "required": [*fields] + ([] if kind == default else ["type"]),
                       "properties": {"type": {"const": kind}, **fields}}
                      for kind, fields in keys.items()]}


# the sections a kind reads with no fallback
_REQUIRED_BY_KIND = {"ensemble": ["simulate", "martingale", "project", "full-mimic"],
                     "binning": ["project", "full-mimic"]}

CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["kind", "seed", "output_dir"],
    "allOf": [{"if": {"properties": {"kind": {"enum": kinds}}}, "then": {"required": [section]}}
              for section, kinds in _REQUIRED_BY_KIND.items()],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(KINDS)},
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
        "model": {
            "type": "object",
            "additionalProperties": False,
            # a gridded model takes no built-in name or parameters
            "not": {"required": ["gridded"],
                    "anyOf": [{"required": ["builtin"]}, {"required": ["params"]}]},
            "properties": {
                "builtin": {"enum": ["heston"]},
                "params": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        **{k: {"type": "number"}
                           for k in ("kappa", "theta", "zeta", "rho", "r", "q")},
                        "with_killing": {"type": "boolean"},
                    },
                },
                "gridded": {
                    "type": "object",
                    "required": ["csv"],
                    "additionalProperties": False,
                    "properties": {"csv": {"type": "string"}},
                },
            },
        },
        "start": {
            "type": "object",
            "required": ["x"],
            "additionalProperties": False,
            "properties": {
                "t": {"type": "number", "minimum": 0},
                "x": _NUMBERS,
            },
        },
        "ensemble": {
            "type": "object",
            "required": ["n_paths", "step", "horizon"],
            "additionalProperties": False,
            "properties": {
                "n_paths": {"type": "integer", "minimum": 1},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "scheme": {"enum": list(sdesim.SCHEMES)},
                "store_stride": {"type": "integer", "minimum": 1},
            },
        },
        "driver": {
            "type": "object",
            "additionalProperties": False,
            # the regime-switching parameters need their driver
            "if": {"anyOf": [{"required": [k]} for k in ("hi_factor", "switch_rate")]},
            "then": {"required": ["kind"], "properties": {"kind": {"const": "regime_switching"}}},
            "properties": {
                "kind": {"enum": ["markov_replay", "regime_switching"]},
                "hi_factor": {"type": "number", "exclusiveMinimum": 0},
                "switch_rate": {"type": "number", "minimum": 0},
            },
        },
        "binning": {
            "type": "object",
            "required": ["times", "edges"],
            "additionalProperties": False,
            "properties": {
                "times": _NUMBERS,
                "edges": {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                "kernel": {"const": "box"},
                "min_count": {"type": "number", "exclusiveMinimum": 0},
                "max_masked_fraction": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "pde": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "x_prime_extent": {"type": "number", "exclusiveMinimum": 0},
                "x_max": {"type": "number", "exclusiveMinimum": 0},
                "counts": {"type": "array", "items": {"type": "integer", "minimum": 3}},
                "scheme": {"enum": list(pde.SCHEMES)},
                "horizon": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "martingale": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_intervals": {"type": "integer", "minimum": 2},
                "z_crit": {"type": "number", "exclusiveMinimum": 0},
                "test_functions": {"type": "array", "minItems": 1,
                                   "items": _typed_schema("radial_bump", _TEST_FUNCTION_KEYS)},
            },
        },
        "duality": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "g": _typed_schema("constant", {"constant": {"value": {"type": "number"}},
                                                **_TEST_FUNCTION_KEYS}),
                "pde_eval_shift": {"type": ["number", "array"], "items": {"type": "number"}},
            },
        },
        "restart": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "level": {"type": "number"},
                "t_cap": {"type": "number", "exclusiveMinimum": 0},
                "u": {"type": "number", "exclusiveMinimum": 0},
                "n_bins": {"type": "integer", "minimum": 1},
                "min_bin": {"type": "integer", "minimum": 1},
                "ks_threshold": {"type": "number", "exclusiveMinimum": 0},
                "perturb": {"type": ["array", "null"], "items": {"type": "number"}},
            },
        },
        "thresholds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "ks": {"type": "number", "exclusiveMinimum": 0},
                "gap_z": {"type": "number", "exclusiveMinimum": 0},
                "w1": {"type": ["number", "null"]},
            },
        },
        "compare_times": {"type": "array", "items": {"type": "number"}},
        "validator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_samples": {"type": "integer", "minimum": 1},
                "pair_budget": {"type": "integer", "minimum": 1},
                "alphas": {"type": "array", "items": {"type": "number"}},
            },
        },
    },
}

# built once: jsonschema.validate re-checks the schema against its meta-schema
# on every call, which is most of that call's cost
_CONFIG_VALIDATOR = jsonschema.Draft7Validator(CONFIG_SCHEMA)


def _keep_arrays_on_heap() -> bool:
    """Raise glibc's mmap and trim thresholds; False where libc has no ``mallopt``."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


def run(config: dict, break_generator: str | None = None) -> int:
    """Validate the config, execute its pipeline, write artifacts, return exit status."""
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        print(f"config schema violation: {error.message}", file=sys.stderr)
        return 2
    kind = config["kind"]
    if break_generator is not None and kind not in _CHECKING_KINDS:
        print(f"--break-generator applies to the {' and '.join(_CHECKING_KINDS)} kinds, "
              f"not {kind!r}", file=sys.stderr)
        return 2

    heap_applied = _keep_arrays_on_heap()
    out = Path(config["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    gridded = config.get("model", {}).get("gridded", {}).get("csv")
    read = {Path(f).resolve() for f in (gridded, f"{gridded}.meta.json")} if gridded else set()
    for stale in _ARTIFACTS:
        if (out / stale).resolve() not in read:
            (out / stale).unlink(missing_ok=True)
    t_start = time.monotonic()
    faults_start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        model = _model_from_config(config)
        check_model = strip_generator_term(model, break_generator) if break_generator else model
        ok, payload = _RUNNERS[kind](config, out, config["seed"], model, check_model)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    wallclock = time.monotonic() - t_start
    minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults_start

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
        "rng_stream": rng.STREAM,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "wallclock_s": wallclock,
        "minor_faults": minor_faults,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "heap_applied": heap_applied,
        "heap_mmap_threshold": _MMAP_THRESHOLD,
        "heap_trim_threshold": _TRIM_THRESHOLD,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimicsde",
                                     description="degenerate half-space diffusion pipelines")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a pipeline from a JSON config")
    runp.add_argument("--config", required=True, help="path to the JSON config")
    runp.add_argument("--break-generator", choices=["drift", "diffusion"], default=None,
                      help="negative control: corrupt the checking-side generator "
                           "(martingale and duality kinds only)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    with open(args.config) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            print(f"config is not valid JSON: {exc}", file=sys.stderr)
            return 2
    return run(config, break_generator=args.break_generator)


if __name__ == "__main__":
    sys.exit(main())
