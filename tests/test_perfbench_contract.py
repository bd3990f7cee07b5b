"""The benchmark's contract with ``mimicsde``: the tracer and the workload configs.

The benchmark tracer wraps ``mimicsde`` callables by name.  Deleting or
renaming one of them breaks a traced benchmark run, and a change to what a
wrapped call returns can break a counter the tracer reads from it.  A schema
change that rejects a workload's config fails every call of that workload.
These tests make the suite fail first.  They only import ``perfbench/tracer.py``
and ``perfbench/workloads.py``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from mimicsde import cli

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(code: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_tracer_installs_over_every_wrapped_name():
    proc = _run_traced("import tracer; tracer.install(tracer.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_the_pde_march():
    # the march counters read each solution's meta["n_steps"] and grid
    code = "\n".join([
        "import json, tracer",
        "tr = tracer.Tracer()",
        "tracer.install(tr)",
        "import numpy as np, mimicsde as m",
        "grid = m.Grid.build(dt=1 / 8, x_prime_extent=1.0, x_max=0.5, counts=[9, 9])",
        "m.solve_two_grid(m.heston_model(1.5, 0.04, 0.3, -0.5), lambda x: np.ones(len(x)),",
        "                 0.25, grid)",
        "print(json.dumps({**tr.metrics(), 'n_nodes': grid.n_nodes}))",
    ])
    proc = _run_traced(code)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["pde.march_steps"] > 0
    assert metrics["pde.nodes"] == metrics["n_nodes"]


def test_every_workload_config_passes_the_schema(tmp_path):
    # each workload's config, and the project config that writes pde-gridded's
    # input model; the workload module imports nothing of mimicsde
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out, sizes = str(tmp_path), workloads.TINY
    configs = {name: workloads.config(name, w.base_seed, out, sizes,
                                      model_csv=str(tmp_path / "mimicked.csv"))
               for name, w in workloads.WORKLOADS.items()}
    configs["project"] = workloads.mimic_config("project", 0, out, sizes)
    for name, cfg in configs.items():
        try:
            jsonschema.validate(cfg, cli.CONFIG_SCHEMA)
        except jsonschema.ValidationError as err:
            pytest.fail(f"workload {name}: {err.message}")
