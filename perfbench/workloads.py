"""The four benchmark workloads: pipeline configs, seeds and expected work.

Each workload is one ``mimicsde.cli.run`` config.  Sizes are chosen so one
pipeline call takes a few seconds on a 2-core x86 box, which lets a run of the
benchmark take the median of several fresh-process calls.

Pipeline seeds come from a pinned pool per workload, so every call has output
digests pinned in ``digests.json`` whatever ``--seed`` the benchmark is given;
``--seed`` picks where in the pool a run starts.
"""

from __future__ import annotations

import math

HESTON = {"kappa": 1.5, "theta": 0.04, "zeta": 0.3, "rho": -0.5, "r": 0.02, "q": 0.0}
START = {"t": 0.0, "x": [0.0, 0.09]}
POOL_SIZE = 8

# full-size and smoke-test sizes; the smoke sizes only exercise the plumbing,
# except that the mimic lattice needs ~3e4 paths to mask under half its cells,
# the most the pde kind's model loader accepts
FULL = {"sim_paths": 30_000, "mart_paths": 20_000, "mimic_paths": 30_000, "pde_counts": 65}
TINY = {"sim_paths": 400, "mart_paths": 400, "mimic_paths": 30_000, "pde_counts": 9}

# mimic lattice: 16 x 14 cells over [-0.6, 0.6] x [0, 0.25], 16 time layers
_MIMIC_TIMES = [k / 16 for k in range(1, 17)]
_MIMIC_EDGES = [[-0.6 + 1.2 * i / 16 for i in range(17)],
                [0.25 * i / 14 for i in range(15)]]


class Workload:
    """One named pipeline: its seed pool, data artifact and unit of work."""

    def __init__(self, name: str, base_seed: int, artifact: str | None, work_unit: str):
        self.name = name
        self.base_seed = base_seed
        self.artifact = artifact
        self.work_unit = work_unit

    def pipeline_seed(self, seed: int, repeat: int) -> int:
        return self.base_seed + (seed + repeat) % POOL_SIZE

    def pool(self) -> list[int]:
        return [self.base_seed + i for i in range(POOL_SIZE)]


WORKLOADS = {
    w.name: w for w in (
        Workload("heston-sim", 4100, "ensemble.csv", "path-steps"),
        # writes no data artifact; its report.json carries every result
        Workload("heston-martingale", 4200, None, "path-steps"),
        Workload("mimic-regime", 4300, "mimicked.csv", "path-steps"),
        # same pool as mimic-regime: its input is the model that pipeline saves
        Workload("pde-gridded", 4300, "solution.csv", "node-steps"),
    )
}


def _heston(kind: str, seed: int, out: str, n_paths: int, step: float, stride: int) -> dict:
    return {
        "kind": kind, "seed": seed, "output_dir": out,
        "model": {"builtin": "heston", "params": dict(HESTON)},
        "start": dict(START),
        "ensemble": {"n_paths": n_paths, "step": step, "horizon": 1.0,
                     "scheme": "full_truncation", "store_stride": stride},
    }


def mimic_config(kind: str, seed: int, out: str, sizes: dict) -> dict:
    """The regime-switching mimic pipeline; ``kind='project'`` stops after saving the model."""
    cfg = _heston(kind, seed, out, sizes["mimic_paths"], 2.0**-6, 4)
    cfg["driver"] = {"kind": "regime_switching", "hi_factor": 1.5, "switch_rate": 2.0}
    cfg["binning"] = {"times": list(_MIMIC_TIMES), "edges": [list(e) for e in _MIMIC_EDGES],
                      "kernel": "box", "min_count": 20}
    # the x_2 mean gap resolves lattice-regression bias (z up to ~4.7 at 3e4
    # paths); acceptance 07 reports it without asserting it, and so does this
    cfg["thresholds"] = {"gap_z": 8.0}
    return cfg


def config(name: str, seed: int, out: str, sizes: dict = FULL, model_csv: str | None = None) -> dict:
    """The cli config of workload ``name`` at pipeline seed ``seed`` writing to ``out``."""
    if name == "heston-sim":
        return _heston("simulate", seed, out, sizes["sim_paths"], 2.0**-7, 128)
    if name == "heston-martingale":
        cfg = _heston("martingale", seed, out, sizes["mart_paths"], 2.0**-7, 1)
        # 3 test functions x 4 intervals x 3 probes = 36 z scores per call: at
        # the default z_crit 3 about 9% of correct calls read inconclusive, at
        # 4 about 0.2%
        cfg["martingale"] = {"z_crit": 4.0}
        return cfg
    if name == "mimic-regime":
        return mimic_config("full-mimic", seed, out, sizes)
    if name == "pde-gridded":
        n = sizes["pde_counts"]
        return {"kind": "pde", "seed": seed, "output_dir": out,
                "model": {"gridded": {"csv": model_csv}},
                "pde": {"dt": 2.0**-7, "counts": [n, n], "horizon": 0.5}}
    raise KeyError(name)


def work(cfg: dict) -> int:
    """Path-steps (Monte Carlo kinds) or node-steps (pde kind) one call performs."""
    if cfg["kind"] == "pde":
        p = cfg["pde"]
        steps = round(p["horizon"] / p["dt"])
        # the pde kind solves twice: a constant-data check and the terminal value
        return 2 * math.prod(p["counts"]) * steps
    e = cfg["ensemble"]
    path_steps = e["n_paths"] * round(e["horizon"] / e["step"])
    # full-mimic simulates the driver ensemble and then the mimicking model
    return 2 * path_steps if cfg["kind"] == "full-mimic" else path_steps
