"""Benchmark of the ``mimicsde`` CLI pipelines.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run calls ``mimicsde.cli.run`` on the named
workload's config again and again, each call in a fresh process and one at a
time, until the next call would overrun ``--seconds`` (at least three calls).
Every call's outputs are checked: exit status 0, ``report.json`` says
``passed``, no stored state below the x_d = 0 boundary, and the sha256 of
``report.json`` and of the data artifact against ``digests.json``.  A digest
mismatch is reported by name but does not fail the call, so a declared
stream or format change stays visible without being scored as an error.

With ``--trace 0`` the last line carries the end-to-end metrics of
``BENCHMARK.json`` (medians over the calls); with ``--trace 1`` untraced and
traced calls alternate and the last line carries the per-layer metrics
(medians over the traced calls) plus the tracing overhead.  The line before
it is a JSON detail record with every call and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.util import find_spec
from pathlib import Path

from workloads import FULL, WORKLOADS, config, mimic_config, work

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "mimicsde"
WORK = BENCH / "_work"
MIN_CALLS = 3
MAX_CALLS = 40
CALL_TIMEOUT_S = 150
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        # one process, no extra threads: the load is a single pipeline call
        env.setdefault(var, "1")
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(env: dict) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **{var: env.get(var) for var in THREAD_VARS},
        "threads_flag": ("not passed: --threads is a no-op because threadpoolctl is absent"
                         if find_spec("threadpoolctl") is None else "not passed"),
        "load": "one child process at a time, pinned to the lowest allowed CPU, no worker threads",
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call(cfg: dict, trace: bool, env: dict) -> tuple[int, dict | None]:
    """Run one config in a fresh process; returns its exit status and result record."""
    out = Path(cfg["output_dir"])
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cfg_path = out.with_name(out.name + ".config.json")
    result_path = out.with_name(out.name + ".result.json")
    cfg_path.write_text(json.dumps(cfg))
    result_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(cfg_path), repr(spawned),
             "1" if trace else "0", str(result_path)],
            env=env, stdout=sys.stderr, timeout=CALL_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return -1, None
    result = json.loads(result_path.read_text()) if result_path.exists() else None
    return proc.returncode, result


def gridded_input(pipeline_seed: int, sizes: dict, env: dict, tag: str) -> tuple[Path | None, str]:
    """The mimicking model mimic-regime saves at this seed, made once per source tree."""
    out = WORK / "inputs" / tag / f"mimic-{sizes['mimic_paths']}-{pipeline_seed}"
    csv = out / "mimicked.csv"
    if not csv.exists():
        cfg = mimic_config("project", pipeline_seed, str(out), sizes)
        status, _ = call(cfg, False, env)
        if status != 0 or not csv.exists():
            shutil.rmtree(out, ignore_errors=True)
            return None, f"preparing the gridded model failed with status {status}"
    return csv, ""


def check(cfg: dict, artifact: str | None, status: int, result: dict | None) -> tuple[list, dict]:
    """Failures of one call and the digests of its outputs."""
    out = Path(cfg["output_dir"])
    failures = []
    if status != 0:
        failures.append(f"exit status {status}")
    if result is None:
        failures.append("no result record")
    elif result["support_violations"] != 0:
        failures.append(f"{result['support_violations']} stored support violations")
    digests = {}
    for name in ("report.json", artifact):
        if name is None:
            continue
        if (out / name).is_file():
            digests[name] = sha256(out / name)
        else:
            failures.append(f"missing {name}")
    if "report.json" in digests:
        try:
            report = json.loads((out / "report.json").read_text())
        except json.JSONDecodeError:
            report = {}
        if report.get("passed") is not True:
            failures.append("report.json passed is not true")
        if report.get("support", {}).get("violations", 0) != 0:
            failures.append("report.json counts support violations")
    return failures, digests


def mismatches(expected: dict, digests: dict) -> list:
    """Names of the outputs whose digest differs from the pinned one."""
    return sorted(k for k in expected if digests.get(k) != expected[k])


def one_call(name: str, pipeline_seed: int, trace: bool, env: dict, sizes: dict,
             pinned: dict, tag: str) -> dict:
    w = WORKLOADS[name]
    rec = {"pipeline_seed": pipeline_seed, "traced": trace}
    model_csv = None
    if name == "pde-gridded":
        model_csv, problem = gridded_input(pipeline_seed, sizes, env, tag)
        if model_csv is None:
            return {**rec, "status": None, "failures": [problem], "digest_mismatch": [],
                    "elapsed_s": 0.0}
    cfg = config(name, pipeline_seed, str(WORK / "runs" / name), sizes,
                 str(model_csv) if model_csv else None)
    began = time.monotonic()
    status, result = call(cfg, trace, env)
    rec["elapsed_s"] = time.monotonic() - began
    failures, digests = check(cfg, w.artifact, status, result)
    rec["digest_mismatch"] = mismatches(pinned.get(str(pipeline_seed), {}), digests)
    rec.update(status=status, failures=failures, digests=digests, work=work(cfg),
               result=result)
    return rec


def run(name: str, seed: int, seconds: float, trace: bool, sizes: dict = FULL) -> dict:
    """Measure workload ``name`` for about ``seconds``; returns the detail record."""
    env = child_env()
    pinned = {}
    if sizes is FULL:
        pinned = json.loads((BENCH / "digests.json").read_text()).get(name, {})
    tag = source_digest()
    calls = []
    measured = 0.0
    while True:
        rec = one_call(name, WORKLOADS[name].pipeline_seed(seed, len(calls)),
                       trace and len(calls) % 2 == 1, env, sizes, pinned, tag)
        calls.append(rec)
        measured += rec["elapsed_s"]
        # traced runs alternate untraced and traced calls and stop on a pair
        step = 2 if trace else 1
        if len(calls) >= MIN_CALLS and len(calls) % step == 0 and (
                measured + step * rec["elapsed_s"] > seconds or len(calls) >= MAX_CALLS):
            break
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "source": tag, "work_unit": WORKLOADS[name].work_unit, "environment": environment(env), "calls": calls,
            "failed": sum(1 for c in calls if c["failures"]),
            "digest_mismatch": sum(len(c["digest_mismatch"]) for c in calls)}


def summarise(detail: dict, spec: dict) -> dict:
    """The result line: end-to-end (untraced) or per-layer (traced) medians.

    Calls that failed the output check are left out of the medians unless
    every call failed; ``statistics.StatisticsError`` means nothing was measured.
    """
    calls = detail["calls"]
    ok = [c for c in calls if not c["failures"]] or [c for c in calls if c.get("result")]
    plain = [c["result"] for c in ok if not c["traced"]]
    traced = [c["result"] for c in ok if c["traced"]]
    median = statistics.median
    if not detail["trace"]:
        values = {k: median([r[k] for r in plain])
                  for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
        values["steps_per_s"] = median([c["work"] / c["result"]["wall_s"]
                                        for c in ok if not c["traced"]])
        wanted = spec["end_to_end"]
    else:
        values = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]} \
            if traced else {}
        values["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                      - median([r["wall_s"] for r in plain]))
        wanted = spec["per_layer"]
    return {
        "correct": detail["failed"] == 0,
        "attempted": len(calls),
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: run from a checkout with {SRC.relative_to(ROOT)} and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for c in detail["calls"]:
        for problem in c["failures"]:
            print(f"call at seed {c['pipeline_seed']} failed: {problem}", file=sys.stderr)
        for name in c["digest_mismatch"]:
            print(f"digest_mismatch: {name} at seed {c['pipeline_seed']}", file=sys.stderr)
    print(json.dumps(detail))
    try:
        line = summarise(detail, spec)
    except statistics.StatisticsError:
        print("perfbench: no call produced a measurement", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
