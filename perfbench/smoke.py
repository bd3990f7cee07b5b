"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Checks, for every workload, that an untraced and a traced call pass the
output check with identical output digests (tracing must not change
results), that every end-to-end and per-layer metric of ``BENCHMARK.json`` is
emitted with its unit, and that a corrupted or missing artifact, a failed
report or a stored support violation is caught.  Finally it checks that the
benchmark refuses to run, printing no result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import (BENCH, ROOT, WORK, WORKLOADS, check, child_env, config, mismatches, one_call,
                 source_digest, summarise)
from workloads import TINY

SEED = 4300


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    tag = source_digest()
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for name, w in WORKLOADS.items():
        plain = one_call(name, SEED, False, env, TINY, {}, tag)
        traced = one_call(name, SEED, True, env, TINY, {}, tag)
        expect(not plain["failures"] and not traced["failures"],
               f"{name}: both calls pass the output check {plain['failures'] + traced['failures']}")
        expect(plain["digests"] == traced["digests"], f"{name}: tracing leaves the digests unchanged")

        for trace, calls, wanted in ((False, [plain], "end_to_end"),
                                     (True, [plain, traced], "per_layer")):
            line = summarise({"trace": trace, "calls": calls, "failed": 0}, spec)
            names = {m["name"]: m["unit"] for m in spec[wanted]}
            emitted = {k: v["unit"] for k, v in line["metrics"].items()
                       if isinstance(v["value"], (int, float)) and math.isfinite(v["value"])}
            expect(emitted == names, f"{name}: every {wanted} metric emitted with its unit")

        # the traced call's outputs are still on disk; damage them one way at a time
        cfg = config(name, SEED, str(WORK / "runs" / name), TINY, "unused")
        out = Path(cfg["output_dir"])
        victim = out / (w.artifact or "report.json")
        original = victim.read_bytes()
        victim.write_bytes(b"#" + original)
        _, digests = check(cfg, w.artifact, 0, traced["result"])
        expect(mismatches(traced["digests"], digests) == [victim.name],
               f"{name}: a corrupted {victim.name} is a digest mismatch")
        victim.write_bytes(original)
        report = json.loads((out / "report.json").read_text())
        (out / "report.json").write_text(json.dumps({**report, "passed": False}))
        failures, _ = check(cfg, w.artifact, 0, traced["result"])
        expect(bool(failures), f"{name}: a failed report is a failed call")
        failures, _ = check(cfg, w.artifact, 0, {**traced["result"], "support_violations": 1})
        expect(bool(failures), f"{name}: a stored support violation is a failed call")
        if w.artifact:
            (out / w.artifact).unlink()
            failures, _ = check(cfg, w.artifact, 0, traced["result"])
            expect(bool(failures), f"{name}: a missing {w.artifact} is a failed call")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "heston-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
