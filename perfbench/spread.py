"""Run-to-run spread of the benchmark, as the acceptance rule measures it.

    python3 perfbench/spread.py --runs 10 --first-seed 1 --out perfbench/results/set1.json
    python3 perfbench/spread.py --runs 10 --first-seed 101 --against perfbench/results/set1.json \\
        --out perfbench/results/set2.json

For each workload, runs ``run.py`` once per seed (``--first-seed`` onwards)
with the ``run_seconds`` of ``BENCHMARK.json`` and reports, per end-to-end
metric, the median and the quartile spread (Q3 - Q1) / median from
``statistics.quantiles(values, n=4)``.  A spread above a third of the
metric's bound is flagged, ``setup_s`` excepted.  With ``--against``, each
median is also compared with that earlier set's and flagged if it is worse by
more than the bound.  With ``--trace 1`` the per-layer medians are recorded
instead and nothing is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# per call: pipeline seed, traced, then these figures
CALL_FIGURES = ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None, help="comma-separated subset")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", default=None, help="earlier set to compare medians with")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    record = {"runs": args.runs, "first_seed": args.first_seed, "trace": args.trace,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    flagged = []
    for name in names:
        values = {m["name"]: [] for m in metrics}
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            detail, result = one_run(name, seed, spec["run_seconds"], args.trace)
            record.setdefault("environment", detail["environment"])
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "digest_mismatch": detail["digest_mismatch"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "calls": [[c["pipeline_seed"], c["traced"]]
                                   + [round(c["result"][k], 4) for k in CALL_FIGURES]
                                   for c in detail["calls"] if c.get("result")]})
            for k, v in result["metrics"].items():
                values[k].append(v["value"])
            if not result["correct"] or detail["digest_mismatch"]:
                flagged.append(f"{name} seed {seed}: failed={result['failed']} "
                               f"digest_mismatch={detail['digest_mismatch']}")
        summary = {}
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            entry = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(med) if med else None}
            if ("bound" in m and m["name"] != "setup_s" and entry["spread"] is not None
                    and entry["spread"] > m["bound"] / 3):
                flagged.append(f"{name} {m['name']}: spread {entry['spread']:.3f} "
                               f"> bound/3 = {m['bound'] / 3:.3f}")
            before = earlier.get(name, {}).get("summary", {}).get(m["name"])
            if before and "bound" in m:
                worse = (med - before["median"]) / before["median"]
                if m["better"] == "higher":
                    worse = -worse
                entry["worse_than_earlier"] = worse
                if worse > m["bound"]:
                    flagged.append(f"{name} {m['name']}: median worse by {worse:.3f} "
                                   f"> bound {m['bound']}")
            summary[m["name"]] = entry
            print(f"{name:18s} {m['name']:34s} median {med:12.5g}  spread {entry['spread'] or 0:.3f}"
                  + (f"  vs earlier {entry['worse_than_earlier']:+.3f}"
                     if "worse_than_earlier" in entry else ""), flush=True)
        record["workloads"][name] = {"summary": summary, "runs": runs}
    record["flagged"] = flagged
    for line in flagged:
        print("FLAGGED", line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if flagged and not args.trace else 0


if __name__ == "__main__":
    sys.exit(main())
